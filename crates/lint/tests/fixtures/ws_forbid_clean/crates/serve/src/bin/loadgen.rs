//! Control fixture: a path call reading a file is not a method call on a
//! stream, and test code may read however it likes.

fn load(file: &str) -> std::io::Result<String> {
    std::fs::read_to_string(file)
}

#[cfg(test)]
mod tests {
    fn head(reader: &mut impl std::io::BufRead, line: &mut String) {
        let _ = reader.read_line(line);
    }
}
