//! Seeded-bad fixture: FFI outside net.rs/signal.rs, a line read outside http.rs.

fn first(p: *const u8) -> u8 {
    unsafe { *p }
}

fn status_line(reader: &mut impl std::io::BufRead, line: &mut String) -> usize {
    reader.read_line(line).unwrap_or(0)
}
