//! Control fixture: csv.rs is the one CSV field codec.

fn unquote(field: &str) -> String {
    field.replace("\"\"", "\"")
}
