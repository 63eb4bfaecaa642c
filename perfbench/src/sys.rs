//! What the benchmark reads from the host: the pool size it may use, the
//! process's CPU time and peak memory, and the source revision.

use std::ffi::{c_int, c_long};
use std::path::Path;

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux process accounting (getrusage, /proc)");

/// Hardware threads the process may run on.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the rayon pool to at most one thread per host thread: an unset
/// `RAYON_NUM_THREADS` becomes the host's count, and a larger one is
/// refused, since a wider pool would measure oversubscription. Must run
/// before anything touches the pool.
pub fn pin_pool() -> Result<(), String> {
    let host = host_threads();
    match std::env::var("RAYON_NUM_THREADS") {
        Ok(value) => {
            let threads: usize = value
                .parse()
                .map_err(|_| format!("RAYON_NUM_THREADS={value} is not a thread count"))?;
            if threads == 0 || threads > host {
                return Err(format!(
                    "RAYON_NUM_THREADS={threads}, but the host has {host} threads; \
                     the benchmark runs 1 to {host} pool threads"
                ));
            }
        }
        Err(_) => std::env::set_var("RAYON_NUM_THREADS", host.to_string()),
    }
    Ok(())
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux's `struct rusage`: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// User plus system CPU seconds of the whole process, all threads.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, exclusively borrowed value with the
    // layout of `struct rusage`, which is all getrusage writes through
    // the pointer; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    seconds(&usage.utime) + seconds(&usage.stime)
}

/// This process's peak resident memory (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    cloudmedia_sim::peak_rss_bytes().map_or(0.0, |bytes| bytes as f64 / (1024.0 * 1024.0))
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    head_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into())
}

fn head_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}
