//! Process-level measurements: latency quantiles, CPU time, peak RSS
//! and a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Nearest-rank quantile of an ascending slice, in milliseconds.
pub fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Median of unsorted values.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// User plus system CPU time of the whole process, from
/// `/proc/self/stat` (Linux; the benchmark targets Linux hosts).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line (1-based),
    // i.e. 11 and 12 after the state field that `rest` starts with.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / USER_HZ
}

/// Clock ticks per second of `/proc` times; 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Reference-kernel rounds per second, summed over the host's hardware
/// threads, of the reference host at its typical speed; [`speed_index`]
/// is measured relative to it.
const REFERENCE_ROUNDS_PER_S: f64 = 4.2e8;

/// How long one host-speed measurement runs.
const REFERENCE_SLICE: Duration = Duration::from_millis(100);

/// SHA-256-style rounds on a register state: a fixed CPU-bound kernel,
/// frozen in the benchmark so that no change to the program moves it.
fn reference_rounds(seed: u32, rounds: u32) -> u32 {
    let mut s: [u32; 8] = [
        seed,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    for i in 0..rounds {
        let w = i.wrapping_mul(0x9e37_79b9);
        let s1 = s[4].rotate_right(6) ^ s[4].rotate_right(11) ^ s[4].rotate_right(25);
        let ch = (s[4] & s[5]) ^ (!s[4] & s[6]);
        let t1 = s[7].wrapping_add(s1).wrapping_add(ch).wrapping_add(w);
        let s0 = s[0].rotate_right(2) ^ s[0].rotate_right(13) ^ s[0].rotate_right(22);
        let maj = (s[0] & s[1]) ^ (s[0] & s[2]) ^ (s[1] & s[2]);
        s = [
            t1.wrapping_add(s0.wrapping_add(maj)),
            s[0],
            s[1],
            s[2],
            s[3].wrapping_add(t1),
            s[4],
            s[5],
            s[6],
        ];
    }
    s[0]
}

/// CPU time the hypervisor gave to other guests while this one was
/// runnable, summed over all CPUs, in seconds (`steal` of `/proc/stat`).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat
        .lines()
        .next()
        .expect("/proc/stat starts with the cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: u64 = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    steal as f64 / USER_HZ
}

/// Share of the host's CPU time this guest got over an interval of
/// `wall` in which `steal` seconds were stolen (1.0 on bare metal).
pub fn availability(wall: Duration, steal: f64) -> f64 {
    let capacity = wall.as_secs_f64() * hardware_threads() as f64;
    (1.0 - steal / capacity).clamp(0.05, 1.0)
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host's current CPU speed relative to the reference host: the
/// reference kernel's rate on every hardware thread at once, over
/// [`REFERENCE_SLICE`], corrected for time stolen from the guest, divided
/// by [`REFERENCE_ROUNDS_PER_S`]. Call it while the workload is paused.
pub fn speed_index() -> f64 {
    const CHUNK: u32 = 20_000;
    let threads = hardware_threads();
    let steal0 = steal_seconds();
    let t0 = std::time::Instant::now();
    let rounds: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut done = 0u64;
                    let mut acc = t as u32;
                    while t0.elapsed() < REFERENCE_SLICE {
                        acc = reference_rounds(std::hint::black_box(acc), CHUNK);
                        done += u64::from(CHUNK);
                    }
                    std::hint::black_box(acc);
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .sum()
    });
    let wall = t0.elapsed();
    let available = availability(wall, steal_seconds() - steal0);
    rounds as f64 / wall.as_secs_f64() / available / REFERENCE_ROUNDS_PER_S
}

/// Counts heap allocations while [`Allocations::start`] is active. The
/// untraced run pays one relaxed load per allocation and counts nothing.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are statistics that never influence allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is the system allocator's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counts over one measured section.
pub struct Allocations {
    count: u64,
    bytes: u64,
}

impl Allocations {
    pub fn start() -> Self {
        COUNTING.store(true, Ordering::Relaxed);
        Allocations {
            count: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Stops counting; returns `(allocations, bytes)` since `start`.
    pub fn stop(self) -> (u64, u64) {
        COUNTING.store(false, Ordering::Relaxed);
        (
            ALLOCS.load(Ordering::Relaxed) - self.count,
            ALLOC_BYTES.load(Ordering::Relaxed) - self.bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(quantile_ms(&v, 0.5), 50.0);
        assert_eq!(quantile_ms(&v, 0.99), 99.0);
        assert_eq!(quantile_ms(&v[..1], 0.99), 1.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_counters_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
