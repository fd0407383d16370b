//! Seeded-bad fixture: a second CSV quote rule outside profiler's csv.rs.

fn csv_escape(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}
