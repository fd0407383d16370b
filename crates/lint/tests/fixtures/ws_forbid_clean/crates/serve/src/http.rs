//! Control fixture: http.rs is the one HTTP message reader.

fn gather(reader: &mut impl std::io::BufRead, head: &mut Vec<u8>) -> usize {
    reader.read_until(b'\n', head).unwrap_or(0)
}
