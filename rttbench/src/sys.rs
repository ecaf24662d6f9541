//! What the benchmark asks of the operating system beyond the standard
//! library: waiting for a socket with a sub-millisecond timeout, and the
//! process's CPU time and peak resident set from `/proc`.  The wait is the
//! benchmark's only `unsafe` call.
//!
//! The fleet generator drives one connection per thread: it must send each
//! open-loop session at its due time *and* answer challenges as they arrive.
//! `SO_RCVTIMEO` rounds to scheduler ticks (a millisecond or more), which
//! would make the generator run late by that much; `ppoll(2)` takes a
//! nanosecond `timespec` and sleeps on a high-resolution timer.

#![allow(unsafe_code)]

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the round-trip benchmark's system calls target 64-bit Linux");

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux: seconds, then nanoseconds.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanos: i64,
}

const POLLIN: i16 = 0x001;

/// Clock ticks per second of the times in `/proc/<pid>/stat`: the kernel's
/// `USER_HZ`, which is 100 on every 64-bit Linux architecture.
const USER_HZ: u64 = 100;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Blocks until `stream` is readable (or hung up) or `timeout` passes;
/// `None` waits indefinitely.  Returns whether the socket is ready.
pub fn wait_readable(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<bool> {
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let spec = timeout.map(|d| Timespec {
        seconds: i64::try_from(d.as_secs()).unwrap_or(i64::MAX),
        nanos: i64::from(d.subsec_nanos()),
    });
    let spec_ptr = spec.as_ref().map_or(std::ptr::null(), |s| s as *const Timespec);
    // SAFETY: `fd` and `spec` are live locals with the C layouts of `struct
    // pollfd` and `struct timespec` for the whole call; `nfds` is 1, matching
    // the single `pollfd`; a null `sigmask` leaves the signal mask unchanged,
    // and a null `timeout` means "wait indefinitely", both as ppoll(2) allows.
    let rc = unsafe { ppoll(&mut fd, 1, spec_ptr, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(false);
        }
        return Err(err);
    }
    Ok(rc > 0)
}

/// User plus system CPU time of the whole process so far, every thread
/// included (exited ones too), at clock-tick resolution.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) sits in parentheses and may hold spaces;
    // after it come `state` (field 3) ... `utime` (14) and `stime` (15).
    let fields: Vec<&str> =
        stat[stat.rfind(')').map_or(0, |at| at + 1)..].split_whitespace().collect();
    let ticks = |field: usize| -> u64 {
        fields
            .get(field - 3)
            .and_then(|f| f.parse().ok())
            .expect("utime and stime in /proc/self/stat")
    };
    Duration::from_millis((ticks(14) + ticks(15)) * 1000 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_time();
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        assert!(cpu_time() > before + Duration::from_millis(20), "spun 50 ms, {x}");
    }
}
