//! Prometheus-style text exposition: the one renderer and the one strict
//! parser shared by every tier.
//!
//! Rendering lives on [`MetricsRegistry::render`](crate::registry::MetricsRegistry::render).
//! Parsing is deliberately strict: the old client folded `/metricsz` into a
//! `HashMap`, silently dropping duplicate and unparsable lines, which is
//! exactly how a formatting regression in one tier goes unnoticed until a
//! dashboard lies. [`parse`] instead errors on
//! the first malformed or duplicated sample, with the line number, and is
//! the same code path used by the typed client, the integration tests, and
//! the `obs-check` CI binary.

use std::collections::HashMap;
use std::fmt;

/// One parsed sample: the full sample key (metric name plus any `{...}`
/// label set, verbatim) and its value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sample {
    /// Sample key, e.g. `cactus_serve_requests_total` or
    /// `cactus_serve_latency_us_bucket{le="8"}`.
    pub key: String,
    /// Parsed value.
    pub value: f64,
}

/// A parsed exposition page: samples in document order plus a by-key index.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    samples: Vec<Sample>,
    index: HashMap<String, f64>,
}

impl Exposition {
    /// Value of the sample with this exact key (including labels), if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<f64> {
        self.index.get(key).copied()
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the page held no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A strict-parse failure, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exposition line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

fn valid_key(key: &str) -> bool {
    // Metric name, optionally followed by a brace-balanced label set.
    let (name, labels) = match key.find('{') {
        Some(i) => (&key[..i], Some(&key[i..])),
        None => (key, None),
    };
    let mut chars = name.chars();
    let head_ok =
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !head_ok || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return false;
    }
    match labels {
        None => true,
        Some(l) => l.len() >= 2 && l.starts_with('{') && l.ends_with('}'),
    }
}

/// Parse a text exposition page strictly.
///
/// Blank lines and `#` comment lines are skipped. Every other line must be
/// `key value` where `key` is a valid metric name (with optional `{...}`
/// labels) and `value` parses as a finite-or-infinite `f64`. Duplicate keys,
/// malformed keys, missing or unparsable values, and trailing garbage are
/// all hard errors carrying the 1-based line number.
pub fn parse(text: &str) -> Result<Exposition, ParseError> {
    let mut out = Exposition::default();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |reason: String| ParseError {
            line: lineno,
            reason,
        };
        // Labels never contain spaces in our renderer, but be safe: the
        // value is the last whitespace-separated token.
        let (key, value) = line
            .rsplit_once(|c: char| c.is_ascii_whitespace())
            .ok_or_else(|| err(format!("no value in {line:?}")))?;
        let key = key.trim_end();
        if !valid_key(key) {
            return Err(err(format!("invalid sample key {key:?}")));
        }
        let value: f64 = value
            .parse()
            .map_err(|_| err(format!("unparsable value {value:?} for {key:?}")))?;
        if out.index.insert(key.to_owned(), value).is_some() {
            return Err(err(format!("duplicate sample key {key:?}")));
        }
        out.samples.push(Sample {
            key: key.to_owned(),
            value,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn roundtrip_through_registry() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("reqs_total", "requests").unwrap();
        c.add(7);
        let g = reg.gauge("depth", "queue depth").unwrap();
        g.set(3.5);
        let h = reg.histogram("lat_us", "latency").unwrap();
        h.observe_us(5);
        h.observe_us(900);

        let text = reg.render();
        let expo = parse(&text).expect("own output parses");
        assert_eq!(expo.get("reqs_total"), Some(7.0));
        assert_eq!(expo.get("depth"), Some(3.5));
        assert_eq!(expo.get("lat_us_count"), Some(2.0));
        assert_eq!(expo.get("lat_us_sum"), Some(905.0));
        assert_eq!(expo.get("lat_us_bucket{le=\"+Inf\"}"), Some(2.0));
        assert!(expo.get("lat_us_p99_us").is_some());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let expo = parse("# HELP x y\n\n# TYPE x counter\nx 1\n").unwrap();
        assert_eq!(expo.len(), 1);
        assert_eq!(expo.get("x"), Some(1.0));
    }

    #[test]
    fn duplicate_key_is_an_error() {
        let err = parse("x 1\nx 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("duplicate"), "{}", err.reason);
    }

    #[test]
    fn unparsable_value_is_an_error() {
        let err = parse("x one\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("unparsable"), "{}", err.reason);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse("lonely_name\n").is_err());
    }

    #[test]
    fn invalid_key_is_an_error() {
        assert!(parse("9bad 1\n").is_err());
        assert!(parse("bad-dash 1\n").is_err());
        assert!(parse("unclosed{le=\"1\" 1\n").is_err());
    }

    #[test]
    fn labeled_keys_parse() {
        let expo = parse("h_bucket{le=\"8\"} 3\nh_bucket{le=\"+Inf\"} 5\n").unwrap();
        assert_eq!(expo.get("h_bucket{le=\"8\"}"), Some(3.0));
        assert_eq!(expo.get("h_bucket{le=\"+Inf\"}"), Some(5.0));
    }
}
