//! Host facts recorded with every result, so a run on a contended host
//! can be told apart from a regression.

use std::hint::black_box;
use std::time::Instant;

/// What the host offered and what the run used.
#[derive(Clone, Copy, Debug)]
pub struct HostFacts {
    /// `available_parallelism()`.
    pub nproc: usize,
    /// Wall of one CPU-bound spin loop alone.
    pub one_loop_ms: f64,
    /// Wall of two identical loops on two threads at once.
    pub two_loops_ms: f64,
}

impl HostFacts {
    /// Measures the host: a fixed xorshift spin alone, then two at once.
    pub fn probe() -> HostFacts {
        const ITERS: u64 = 40_000_000;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let t = Instant::now();
        black_box(spin(ITERS));
        let one_loop_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(ITERS));
            let b = s.spawn(|| spin(ITERS));
            black_box(a.join().expect("spin thread"));
            black_box(b.join().expect("spin thread"));
        });
        let two_loops_ms = t.elapsed().as_secs_f64() * 1e3;
        HostFacts {
            nproc,
            one_loop_ms,
            two_loops_ms,
        }
    }

    /// Throughput of two concurrent loops relative to one: 2.0 on two
    /// idle cores, about 1.0 when only one core's worth of CPU is there.
    pub fn parallel_x(&self) -> f64 {
        2.0 * self.one_loop_ms / self.two_loops_ms.max(1e-9)
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// A memory field of `/proc/self/status` (`VmRSS:`, `VmHWM:`, ...) in
/// MB. `None` where that file is unavailable (Linux only).
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Entries of the calibration kernel's arena (64 MiB of `u64`).
const CAL_ENTRIES: usize = 8 << 20;
/// Random read-modify-writes per calibration sample.
const CAL_ACCESSES: u64 = 2_000_000;
/// Upper bound on calibration samples taken in one gap between ops.
const CAL_MAX_SAMPLES: usize = 10;

/// A fixed memory-bound kernel timed between ops. On a shared host the
/// speed of the memory system drifts by tens of percent over seconds to
/// minutes, and the workloads (pointer-heavy compiler and simulator
/// code) drift with it; the kernel's time, sampled right before and
/// after each op and each set-up, is the yardstick the `*_ref` metrics
/// and `setup_s` divide by. It is benchmark code, so no change to the
/// program moves it.
pub struct Calibration {
    arena: Vec<u64>,
    state: u64,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            arena: (0..CAL_ENTRIES as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24)
                .collect(),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Samples the kernel until the samples add up to `budget_ms` (at
    /// least one, at most [`CAL_MAX_SAMPLES`]); returns their times in ms.
    pub fn samples_ms(&mut self, budget_ms: f64) -> Vec<f64> {
        let mut out = vec![self.sample_ms()];
        while out.iter().sum::<f64>() < budget_ms && out.len() < CAL_MAX_SAMPLES {
            out.push(self.sample_ms());
        }
        out
    }

    /// Runs the kernel once and returns its wall time in ms.
    fn sample_ms(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.arena.len() as u64;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..CAL_ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            acc = acc.wrapping_add(self.arena[i]);
            self.arena[i] = acc;
        }
        self.state = x;
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }
}
