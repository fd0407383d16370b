//! Seeded-bad fixture: FFI outside serve's net.rs and signal.rs.

fn first(p: *const u8) -> u8 {
    unsafe { *p }
}
