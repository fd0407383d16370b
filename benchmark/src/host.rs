//! What the benchmark needs from the machine: one pinned CPU, a clock, a
//! scratch directory inside the checkout, free ports, and the peak RSS.

use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Words in the affinity mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread — and every thread it spawns afterwards — to the
/// highest-numbered CPU it is allowed on. CPU 0 carries the container's
/// interrupt and housekeeping load; and with fleet and client on one CPU no
/// hop is a cross-vCPU wake-up, which on a shared KVM guest is a VM exit.
///
/// # Errors
///
/// The OS error when the affinity mask cannot be read or set.
pub fn pin_to_highest_cpu() -> io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Nanoseconds since the first call in this process: the time base of every
/// span the benchmark records.
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Time one call. Returns its result, start and duration (ns).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    (out, start, end - start)
}

/// `VmHWM` of this process in MB (the peak resident set so far).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// The benchmark's own directory in the checkout it was built from.
#[must_use]
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A per-process scratch directory under `benchmark/.work/`, removed on
/// drop (also when a failed check unwinds). Store directories live here
/// rather than on `/dev/shm`: a run reads and writes only inside its
/// checkout, so `store.append` pays the checkout filesystem's `fdatasync`.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// # Errors
    ///
    /// Filesystem errors creating the directory.
    pub fn create() -> io::Result<Self> {
        let dir = benchmark_dir()
            .join(".work")
            .join(std::process::id().to_string());
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory (replacing any previous one of the name).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Recursively copy `from` into the (new) directory `to`.
///
/// # Errors
///
/// Filesystem errors.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Fail early, naming the port, when any of `count` ports from `base` is
/// taken: ring placement hashes the `addr:port` labels, so the fleet cannot
/// fall back to ephemeral ports without changing which backend owns what.
///
/// # Errors
///
/// The bind error of the first busy port.
pub fn preflight_ports(base: u16, count: u16) -> io::Result<()> {
    for port in base..base + count {
        TcpListener::bind(("127.0.0.1", port)).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("port {port} is not free ({e}); pass another --base-port"),
            )
        })?;
    }
    Ok(())
}
