//! What the benchmark needs from the host: one CPU to run on, a fixed loop
//! that tells how fast that CPU is right now, and the CPU time and peak
//! memory of this process and its children, read from `/proc`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Microseconds the calibration spin takes on the box the first baseline
/// was measured on, at its usual speed. Frozen: every corrected time is
/// `raw / (calib_us / CALIB_NOMINAL_US)`, so changing it — or the loop
/// below — rescales every baseline.
pub const CALIB_NOMINAL_US: f64 = 600.0;

const CALIB_FLOATS: usize = 256 * 1024;
/// One sweep takes ≈25 µs on that box (the compiler vectorises it). A
/// spin is kept short because many are taken.
const CALIB_SWEEPS: usize = 20;
/// Time between two spins inside timed work. A spin sweeps 1 MiB and so
/// empties the caches the program was running from: with one every 16 ms
/// `graph-hot` answered 10 % fewer recommendations per second than with one
/// every 65 ms, and its 95th percentile sat 15 % higher, on the calls that
/// refill the cache.
pub const SPIN_EVERY: Duration = Duration::from_millis(60);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

const CPU_SET_BYTES: usize = 128;

/// Pins the calling thread to the highest-numbered CPU it may run on and
/// returns that CPU. Called on the main thread before any other thread or
/// process exists, so the batcher thread and every shard process inherit
/// the mask. CPU 0 is avoided when there is a choice because it takes most
/// interrupts.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// The running kernel's release string, for the run's header line.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The benchmark's own fixed unit of work: 20 multiply-add sweeps over
/// 256 Ki `f32` (1 MiB, so it lives in L2/L3 like the program's matrices).
/// Its duration moves only with the host's speed, never with the program.
pub struct Calibrator {
    buf: Vec<f32>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            buf: (0..CALIB_FLOATS)
                .map(|i| (i % 251) as f32 * 0.004)
                .collect(),
        };
        // Fault the pages in and warm the cache outside any measurement.
        c.spin_us();
        c
    }

    /// Runs the loop once and returns its wall time in microseconds.
    pub fn spin_us(&mut self) -> f64 {
        let t = Instant::now();
        for sweep in 0..CALIB_SWEEPS {
            let a = 1.0 + (sweep as f32) * 1e-7;
            for x in self.buf.iter_mut() {
                *x = *x * a + 1e-6;
            }
            black_box(&mut self.buf);
        }
        // Keep values bounded so the loop never drifts into denormals or
        // infinities, which would change its speed. Element 250 starts
        // largest and every element grows alike.
        if self.buf[250] > 1e3 {
            for (i, x) in self.buf.iter_mut().enumerate() {
                *x = (i % 251) as f32 * 0.004;
            }
        }
        t.elapsed().as_secs_f64() * 1e6
    }

    /// Times `f`, a call that cannot be interrupted for a spin (work that
    /// can takes its spins inside, like the timed windows do). One spin is
    /// taken before it and one after (a second one straight after the first
    /// would find the buffer still in the cache and read a sixth faster
    /// than spins taken amid work do); while it runs, a second thread on
    /// the same CPU wakes every [`SPIN_EVERY`], spins once and sleeps
    /// again, because the host changes pace within a call of seconds and
    /// spins at its two ends then say little about the middle. Returns
    /// `f`'s result, its raw wall seconds without the time the spins inside
    /// it took (a spin is all CPU, on the one CPU), and the host-speed
    /// factor of the interval.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut spins = vec![self.spin_us()];
        let done = AtomicBool::new(false);
        let (out, secs, inside) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut inside = Vec::new();
                loop {
                    // Unparked early when `f` ends; a spurious wake-up costs
                    // one spin more.
                    std::thread::park_timeout(SPIN_EVERY);
                    if done.load(Ordering::SeqCst) {
                        return inside;
                    }
                    inside.push(self.spin_us());
                }
            });
            let t = Instant::now();
            let out = f();
            let secs = t.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            sampler.thread().unpark();
            let inside = sampler.join().expect("the sampler thread only spins");
            (out, secs, inside)
        });
        let secs = secs - inside.iter().sum::<f64>() / 1e6;
        spins.extend(inside);
        spins.push(self.spin_us());
        (out, secs, crate::stats::factor(&spins))
    }
}

/// On-CPU nanoseconds of every live thread of `pid`, from
/// `/proc/<pid>/task/*/schedstat` (first field). A thread that has exited
/// no longer counts, so deltas are taken over intervals in which no thread
/// ends. `None` when the process is gone.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may end between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())?;
        }
    }
    Some(total)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB. `None` when the process is
/// gone or is a zombie.
pub fn process_peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process plus the children it is accounting for.
pub struct ProcessGroup {
    pids: Vec<u32>,
}

impl ProcessGroup {
    pub fn with_children(children: &[u32]) -> Self {
        let mut pids = vec![std::process::id()];
        pids.extend_from_slice(children);
        ProcessGroup { pids }
    }

    /// On-CPU nanoseconds of this process and, summed, of the children.
    pub fn cpu_ns(&self) -> (u64, u64) {
        let own = process_cpu_ns(self.pids[0]).unwrap_or(0);
        let children = self.pids[1..]
            .iter()
            .filter_map(|&p| process_cpu_ns(p))
            .sum();
        (own, children)
    }

    /// Summed peak resident set of the group in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.pids
            .iter()
            .filter_map(|&p| process_peak_rss_mib(p))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::process::{Command, Stdio};

    #[test]
    fn calibration_spin_takes_measurable_time() {
        let mut c = Calibrator::new();
        let us = c.spin_us();
        assert!(us > 100.0, "spin of {us} µs is too short to calibrate with");
        let ((), secs, f) = c.bracket(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(secs >= 0.005);
        assert!(f > 0.0);
    }

    #[test]
    fn own_cpu_time_grows_with_work() {
        let before = process_cpu_ns(std::process::id()).expect("own schedstat");
        let mut c = Calibrator::new();
        for _ in 0..20 {
            c.spin_us();
        }
        let after = process_cpu_ns(std::process::id()).expect("own schedstat");
        assert!(after > before, "{after} vs {before}");
    }

    /// A child that burns CPU and then blocks: its time and memory must
    /// show in the group's totals while it lives, and drop out (not fail)
    /// once it is gone.
    #[test]
    fn child_cpu_and_rss_are_accounted() {
        let mut child = Command::new("sh")
            .arg("-c")
            .arg("i=0; while [ $i -lt 100000 ]; do i=$((i+1)); done; echo done; read x")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sh");
        let mut line = String::new();
        std::io::BufRead::read_line(
            &mut std::io::BufReader::new(child.stdout.take().expect("piped")),
            &mut line,
        )
        .expect("child ready line");
        let group = ProcessGroup::with_children(&[child.id()]);
        let (own_cpu, child_cpu) = group.cpu_ns();
        assert!(child_cpu > 1_000_000, "child burned only {child_cpu} ns");
        assert!(own_cpu > 0, "group includes this process");
        let own = process_peak_rss_mib(std::process::id()).expect("own VmHWM");
        assert!(group.peak_rss_mib() > own, "group includes the child's RSS");
        child
            .stdin
            .take()
            .expect("piped")
            .write_all(b"\n")
            .expect("release child");
        child.wait().expect("reap child");
        assert_eq!(group.cpu_ns().1, 0, "a reaped child counts nothing");
    }
}
