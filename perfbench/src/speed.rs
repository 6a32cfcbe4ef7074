//! Machine-speed normalisation of the timed metrics.
//!
//! The machines this benchmark runs on are shared, in two ways that move
//! wall time without any change to the program:
//!
//! - The host time-slices the benchmark's core with other work. A step of
//!   several milliseconds is then often cut by another process's turn, and
//!   the pause lands in the step's wall time. Every figure is therefore
//!   timed in the CPU time of the benchmark's own thread ([`cpu_ns`]): the
//!   benchmark runs on one thread, so this is the wall time the same work
//!   takes on a core of its own.
//! - The machine's speed drifts by 1.3–1.8× in phases of about a second,
//!   for a pure interpreter loop as much as for the program, and CPU time
//!   drifts with it. So a timed loop is cut into segments of about
//!   [`PROBE_PERIOD`]; between segments a fixed reference kernel is timed,
//!   and each segment's time is divided by the machine's slowdown measured
//!   at its two ends, raised to the workload's speed elasticity (see
//!   [`crate::workload::Spec::speed_elasticity`]).
//!
//! Normalised figures read as "at the speed at which the kernel takes
//! [`PROBE_NS`] of CPU time". The kernel uses only the standard library,
//! its allocations are not counted, and its own time is excluded from
//! every figure.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// CPU time of [`probe`]'s kernel at the reference speed (about its
/// typical time on the machine the benchmark was first run on).
pub const PROBE_NS: f64 = 500_000.0;

/// Wall time between probes.
pub const PROBE_PERIOD: Duration = Duration::from_millis(50);

/// Times the reference kernel and returns the machine's slowdown against
/// [`PROBE_NS`]. The kernel does what the program does most: it copies
/// frame-sized byte runs into fresh buffers, counts into a hash map and
/// inserts into an ordered map. An untimed pass runs first, so the timed
/// pass finds warm caches and reuses the blocks the first pass freed,
/// whatever state the program left the heap in.
pub fn probe() -> f64 {
    crate::alloc::uncounted(|| {
        kernel();
        let t0 = cpu_ns();
        kernel();
        (cpu_ns() - t0) as f64 / PROBE_NS
    })
}

fn kernel() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let src = [7u8; 2048];
    let mut bufs: Vec<Vec<u8>> = (0..256).map(|_| Vec::new()).collect();
    let mut counts = HashMap::with_capacity(4096);
    let mut ordered = BTreeMap::new();
    for i in 0..2_000u64 {
        let r = next();
        let len = 64 + (r % 1984) as usize;
        bufs[(r >> 20) as usize % 256] = src[..len].to_vec();
        *counts.entry(r % 4096).or_insert(0u64) += i;
        ordered.insert(r % 1024, i);
    }
    black_box((bufs.len(), counts.len(), ordered.len()));
}

/// Nanoseconds of CPU time the calling thread has used so far.
#[cfg(target_os = "linux")]
pub fn cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec`, and the thread
    // CPU-time clock exists on every Linux the standard library supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Nanoseconds of CPU time the calling thread has used so far; where no
/// thread CPU-time clock is wired up, wall time since the first call.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Meter of one timed loop; see the module docs.
pub struct Meter {
    /// Exponent applied to the probed slowdown.
    elasticity: f64,
    /// Slowdown probed at the start of the open segment.
    start_slowdown: f64,
    seg_start: Instant,
    seg_start_cpu: u64,
    /// Step CPU times of the open segment, in ns, as measured.
    steps: Vec<u64>,
    /// Normalised step CPU times, in ns.
    pub norm_steps: Vec<f64>,
    /// Wall seconds, as measured (probes excluded).
    pub raw_s: f64,
    /// CPU seconds, as measured (probes excluded).
    pub cpu_s: f64,
    /// CPU seconds, normalised.
    pub norm_s: f64,
}

impl Meter {
    /// Probes the machine and opens the first segment, with room for
    /// `steps` steps so the meter does not allocate inside the loop.
    /// Segments are divided by the probed slowdown to the power
    /// `elasticity`.
    pub fn start(steps: usize, elasticity: f64) -> Meter {
        let start_slowdown = probe();
        Meter {
            elasticity,
            start_slowdown,
            seg_start: Instant::now(),
            seg_start_cpu: cpu_ns(),
            steps: Vec::with_capacity(steps),
            norm_steps: Vec::with_capacity(steps),
            raw_s: 0.0,
            cpu_s: 0.0,
            norm_s: 0.0,
        }
    }

    /// Records the CPU time of one step of the loop.
    pub fn step(&mut self, ns: u64) {
        self.steps.push(ns);
    }

    /// Closes the open segment if it has run for [`PROBE_PERIOD`], or if
    /// `last`.
    pub fn tick(&mut self, last: bool) {
        let wall = self.seg_start.elapsed();
        if wall < PROBE_PERIOD && !last {
            return;
        }
        let cpu = (cpu_ns() - self.seg_start_cpu) as f64 / 1e9;
        let end_slowdown = probe();
        let slowdown = ((self.start_slowdown + end_slowdown) / 2.0).powf(self.elasticity);
        self.raw_s += wall.as_secs_f64();
        self.cpu_s += cpu;
        self.norm_s += cpu / slowdown;
        self.norm_steps
            .extend(self.steps.drain(..).map(|ns| ns as f64 / slowdown));
        self.start_slowdown = end_slowdown;
        self.seg_start = Instant::now();
        self.seg_start_cpu = cpu_ns();
    }

    /// The machine's average slowdown over the loop, as probed.
    pub fn slowdown(&self) -> f64 {
        if self.norm_s > 0.0 {
            (self.cpu_s / self.norm_s).powf(self.elasticity.recip())
        } else {
            1.0
        }
    }
}
