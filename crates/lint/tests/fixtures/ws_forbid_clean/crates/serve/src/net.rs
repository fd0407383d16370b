//! Control fixture: net.rs is the daemon's home for FFI.

fn first(p: *const u8) -> u8 {
    unsafe { *p }
}
