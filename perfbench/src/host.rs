//! Host-side measurements: process CPU time and peak resident set size
//! read from `/proc`, and a counting allocator for per-call allocation
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`. Linux reports them in `USER_HZ`, which is 100 on
/// every architecture the kernel exposes to user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/self/stat`.
///
/// The command name (field 2) is parenthesized and may contain spaces, so
/// fields are counted from the last `)`: the first field after it is
/// `state` (field 3), which puts `utime` (14) and `stime` (15) at offsets
/// 11 and 12.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The value in KiB of a `Key:   1234 kB` line of `/proc/self/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// CPU seconds (user + system) this process has used so far, including
/// threads that have already exited.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_s(&stat).expect("parse /proc/self/stat")
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kib(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// The system allocator, counting allocations while [`count_allocs`] runs.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that no memory operation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the number of allocations and
/// reallocations made while it ran. Call it with no other threads
/// allocating, or their allocations are counted too.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 75 0 0 20 0 3 0 12345 1000000 500";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.25));
    }

    #[test]
    fn stat_cpu_rejects_truncated_text() {
        assert_eq!(parse_stat_cpu_s("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn status_reads_the_named_key_only() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= t0);
        assert!(peak_rss_mib() > 0.0);
    }
}
