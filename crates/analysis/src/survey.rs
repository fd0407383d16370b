//! The Figure 1 literature-survey dataset: GPU-compute benchmark-suite
//! usage in ISCA/MICRO/ASPLOS/HPCA papers, 2010–2020.
//!
//! Figure 1 reports data the authors collected by hand from conference
//! proceedings; it is not the output of any system that can be re-run.
//! Following the substitution rule in DESIGN.md we encode the survey series
//! (values transcribed approximately from the figure) so the figure's table
//! can be regenerated and its headline claim — Rodinia and Parboil are the
//! most popular suites — is machine-checkable.

/// Survey years covered by Figure 1.
pub(crate) const YEARS: [u16; 11] = [
    2010, 2011, 2012, 2013, 2014, 2015, 2016, 2017, 2018, 2019, 2020,
];

/// One benchmark suite's per-year paper counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SuiteSeries {
    /// Suite name.
    pub name: &'static str,
    /// Papers per year, aligned with [`YEARS`].
    pub counts: [u16; 11],
}

impl SuiteSeries {
    /// Total papers across the decade.
    #[must_use]
    pub(crate) fn total(&self) -> u32 {
        self.counts.iter().map(|&c| u32::from(c)).sum()
    }
}

/// The survey dataset (values transcribed approximately from Figure 1).
#[must_use]
pub(crate) fn dataset() -> Vec<SuiteSeries> {
    vec![
        SuiteSeries {
            name: "Rodinia",
            counts: [2, 4, 7, 9, 12, 14, 16, 17, 18, 19, 18],
        },
        SuiteSeries {
            name: "Parboil",
            counts: [1, 3, 5, 7, 9, 10, 11, 10, 9, 8, 7],
        },
        SuiteSeries {
            name: "CUDA-SDK",
            counts: [3, 4, 5, 6, 6, 7, 6, 5, 5, 4, 4],
        },
        SuiteSeries {
            name: "LoneStar",
            counts: [0, 1, 2, 3, 3, 4, 4, 5, 4, 4, 3],
        },
        SuiteSeries {
            name: "PolyBench",
            counts: [0, 0, 1, 2, 3, 4, 4, 4, 3, 3, 3],
        },
        SuiteSeries {
            name: "SHOC",
            counts: [1, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2],
        },
        SuiteSeries {
            name: "Other",
            counts: [1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 6],
        },
    ]
}

/// Suites ranked by total usage, most popular first.
#[must_use]
pub fn ranking() -> Vec<(String, u32)> {
    let mut totals: Vec<(String, u32)> = dataset()
        .iter()
        .map(|s| (s.name.to_owned(), s.total()))
        .collect();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    totals
}

/// Render the Figure 1 data table.
#[must_use]
pub fn render_table() -> String {
    let data = dataset();
    let mut out = String::new();
    out.push_str(&format!("{:<10}", "Suite"));
    for y in YEARS {
        out.push_str(&format!("{y:>6}"));
    }
    out.push_str(&format!("{:>7}\n", "Total"));
    for s in &data {
        out.push_str(&format!("{:<10}", s.name));
        for c in s.counts {
            out.push_str(&format!("{c:>6}"));
        }
        out.push_str(&format!("{:>7}\n", s.total()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rodinia_and_parboil_lead_the_ranking() {
        let r = ranking();
        assert_eq!(r[0].0, "Rodinia");
        assert_eq!(r[1].0, "Parboil");
    }

    #[test]
    fn series_are_aligned_with_years() {
        for s in dataset() {
            assert_eq!(s.counts.len(), YEARS.len());
        }
    }

    #[test]
    fn totals_are_sums() {
        let s = &dataset()[0];
        let manual: u32 = s.counts.iter().map(|&c| u32::from(c)).sum();
        assert_eq!(s.total(), manual);
    }

    #[test]
    fn table_renders_all_suites() {
        let t = render_table();
        for s in dataset() {
            assert!(t.contains(s.name));
        }
        assert!(t.contains("2010"));
        assert!(t.contains("2020"));
    }
}
