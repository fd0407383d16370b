//! Property tests over the HTTP request-head parser.
//!
//! Three properties, each over generated inputs:
//!
//! * **Round-trip** — any well-formed request head (random path segments,
//!   optional query, random headers whose values may contain `:`)
//!   serializes to the wire and parses back to exactly the fields that went
//!   in, with header names lowercased and values trimmed.
//! * **Totality** — arbitrary bytes never panic the parser; they produce
//!   `Ok` or a typed `HttpError`, nothing else.
//! * **Strictness** — request lines with whitespace abuse (double or
//!   leading spaces, tabs, extra tokens) are rejected as `Malformed`, never
//!   silently reinterpreted.

use std::io::BufReader;

use cactus_serve::http::{read_request, HttpError};
use proptest::prelude::*;

const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~";
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-";
/// Header-value alphabet deliberately includes `:` (URLs, IPv6 literals)
/// and spaces — the parser must split on the *first* colon only and trim.
const VALUE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 :;=/,.-_()";

/// A random string over `chars` with length drawn from `len`.
fn charset_string(
    chars: &'static [u8],
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..chars.len(), len)
        .prop_map(move |idxs| idxs.into_iter().map(|i| chars[i] as char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn well_formed_heads_round_trip(
        segments in prop::collection::vec(charset_string(PATH_CHARS, 1..8), 1..5),
        headers in prop::collection::vec(
            (charset_string(NAME_CHARS, 1..10), charset_string(VALUE_CHARS, 0..24)),
            0..6,
        ),
        with_query in 0u32..2,
    ) {
        let path = format!("/{}", segments.join("/"));
        let query = "device=rtx-3080&threshold=0.7";
        let target = if with_query == 1 {
            format!("{path}?{query}")
        } else {
            path.clone()
        };
        let mut wire = format!("GET {target} HTTP/1.1\r\n");
        for (name, value) in &headers {
            wire.push_str(&format!("{name}: {value}\r\n"));
        }
        wire.push_str("\r\n");

        let mut reader = BufReader::new(wire.as_bytes());
        let request = read_request(&mut reader).expect("well-formed head must parse");
        prop_assert_eq!(request.method(), "GET");
        prop_assert_eq!(&request.path, &path);
        prop_assert_eq!(
            request.query(),
            (with_query == 1).then_some(query)
        );
        prop_assert_eq!(request.headers().len(), headers.len());
        for ((parsed_name, parsed_value), (name, value)) in request.headers().iter().zip(&headers) {
            prop_assert_eq!(parsed_name, &name.to_ascii_lowercase());
            prop_assert_eq!(parsed_value, value.trim());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u32..256, 0..256)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let mut reader = BufReader::new(bytes.as_slice());
        // Ok or a typed error — reaching this line at all is the property.
        let _ = read_request(&mut reader);
    }

    #[test]
    fn whitespace_abuse_is_malformed(kind in 0usize..6, seg in charset_string(PATH_CHARS, 1..8)) {
        let line = match kind {
            0 => format!("GET  /{seg} HTTP/1.1"),        // double space
            1 => format!("GET /{seg}  HTTP/1.1"),        // double space before version
            2 => format!(" GET /{seg} HTTP/1.1"),        // leading space
            3 => format!("GET\t/{seg} HTTP/1.1"),        // tab separator
            4 => format!("GET /{seg} HTTP/1.1 "),        // trailing space
            _ => format!("GET /{seg} HTTP/1.1 smuggled"), // extra token
        };
        let wire = format!("{line}\r\n\r\n");
        let mut reader = BufReader::new(wire.as_bytes());
        match read_request(&mut reader) {
            Err(HttpError::Malformed(_)) => {}
            other => panic!("{line:?} must be rejected as malformed, got {other:?}"),
        }
    }
}
