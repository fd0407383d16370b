//! The machine-speed yardstick of the loopback workloads.
//!
//! Floors take out the noise that comes and goes within a run; what is left
//! is the machine being a few percent faster or slower for minutes at a
//! time, which moves every floor of a run together. A *beat* is one
//! fixed-size round trip over loopback TCP to a thread that does nothing
//! else: the same system calls, wake-ups and context switches a `GET`
//! through the fleet is made of, in the benchmark's own code, so no change to
//! the program moves it. Beats are interleaved with the ops of a pass and
//! floored per position like the ops; across runs of the same binary the
//! median beat floor tracks the median op floor of `hot-read` and
//! `store-read` at r = 0.95–0.99 (`benchmark/README.md`), so their
//! end-to-end figures are reported at the reference beat, [`REFERENCE_US`].
//! The simulating workloads get no such correction: no yardstick tried
//! tracks a 90 ms physics step better than r ≈ 0.8.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;

use crate::host::timed;

/// The median beat floor (µs) of the reference container at its best.
/// Scaling by it only fixes the unit: figures read as microseconds on that
/// machine.
pub const REFERENCE_US: f64 = 8.0;
/// One beat follows every this-many-th op of a pass.
pub const BEAT_EVERY: usize = 4;

const REQUEST: [u8; 128] = [b'q'; 128];
const REPLY_LEN: usize = 2048;

pub struct Yardstick {
    stream: TcpStream,
    reply: [u8; REPLY_LEN],
    peer: Option<JoinHandle<()>>,
}

impl Yardstick {
    /// # Errors
    ///
    /// Socket errors setting up the loopback pair.
    pub fn start() -> io::Result<Self> {
        // Any free port: nothing hashes this one.
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut served, _) = listener.accept()?;
        served.set_nodelay(true)?;
        let peer = std::thread::spawn(move || {
            let mut request = [0u8; REQUEST.len()];
            let reply = [b'y'; REPLY_LEN];
            while served.read_exact(&mut request).is_ok() && served.write_all(&reply).is_ok() {}
        });
        Ok(Self {
            stream,
            reply: [0; REPLY_LEN],
            peer: Some(peer),
        })
    }

    /// One round trip: `(start_ns, dur_ns)`.
    ///
    /// # Errors
    ///
    /// Socket errors; the peer never closes first.
    pub fn beat(&mut self) -> io::Result<(u64, u64)> {
        let (done, start, dur) = timed(|| {
            self.stream.write_all(&REQUEST)?;
            self.stream.read_exact(&mut self.reply)
        });
        done.map(|()| (start, dur))
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // The peer leaves its loop on end of stream.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Samples;

    #[test]
    fn beats_round_trip_and_are_floored_per_position() {
        let mut yard = Yardstick::start().expect("loopback pair");
        let mut beats = Samples::new(3);
        for _ in 0..2 {
            beats.begin_pass();
            for position in 0..3 {
                let (start, dur) = yard.beat().expect("beat");
                assert!(dur > 0);
                beats.record(position, start, dur);
            }
        }
        assert!(beats.floors.missing() == 0 && beats.floors.median_us() > 0.0);
    }
}
