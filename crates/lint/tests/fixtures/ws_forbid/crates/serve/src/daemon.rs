//! Control fixture: the one file allowed to define the daemon loop.

fn accept_loop() {}
