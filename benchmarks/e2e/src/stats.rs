//! The estimator: from per-window raw measurements to the numbers reported.
//!
//! A window is one full pass over a workload's input pool, so every window
//! of a run does the same work. Each window carries its own host-speed
//! factor `f = calib_us / CALIB_NOMINAL_US`, `calib_us` being the median of
//! the calibration spins taken around and inside it; every time measured
//! in the window is divided by it. The half of the windows with the
//! smallest duration — the quiet half — is what timing metrics are
//! computed from: interference can only add time, so the quiet half is the
//! program and the noisy half is the neighbours.

use crate::host::CALIB_NOMINAL_US;

/// Raw measurements of one window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall seconds of the pass, uncorrected.
    pub wall_s: f64,
    /// Wall microseconds of each timed call, uncorrected, in call order.
    pub latencies_us: Vec<f64>,
    /// Recommendations answered.
    pub recs: u64,
    /// On-CPU nanoseconds of the process and its children, uncorrected.
    pub cpu_ns: u64,
    /// The children's part of `cpu_ns`.
    pub child_cpu_ns: u64,
    /// Wall microseconds of each write call (`adapt`), uncorrected. Writes
    /// are inside `wall_s` but not among `latencies_us`.
    pub writes_us: Vec<f64>,
    /// Microseconds of every calibration spin taken around and inside the
    /// window's timed work.
    pub spins_us: Vec<f64>,
}

/// Host-speed factor of an interval from the calibration spins taken in
/// it (1 = the nominal box): their median, so one spin that met an
/// interrupt does not count, over the nominal spin.
pub fn factor(spins_us: &[f64]) -> f64 {
    median(spins_us) / CALIB_NOMINAL_US
}

impl Window {
    /// What a calibration spin took during this window.
    pub fn calib_us(&self) -> f64 {
        median(&self.spins_us)
    }

    /// Host-speed factor of this window.
    pub fn factor(&self) -> f64 {
        factor(&self.spins_us)
    }

    /// Wall seconds on the nominal box.
    pub fn corrected_s(&self) -> f64 {
        self.wall_s / self.factor()
    }
}

/// Indices of the `len / 2` windows (at least one) with the smallest raw
/// duration, in ascending index order. Raw, because ranking by corrected
/// duration would prefer the windows whose factor happened to be measured
/// too high, and so bias every figure low.
pub fn quiet_half(windows: &[Window]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| {
        windows[a]
            .wall_s
            .total_cmp(&windows[b].wall_s)
            .then(a.cmp(&b))
    });
    order.truncate((windows.len() / 2).max(1).min(windows.len()));
    order.sort_unstable();
    order
}

/// Why a percentile was refused.
#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    pub have_beyond: usize,
}

/// Samples required beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending). Refused unless at least
/// [`MIN_BEYOND`] samples lie beyond the chosen rank: a tail read from fewer
/// is one outlier, not a distribution.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            have_beyond: beyond,
        });
    }
    Ok(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (no tail rule: used for
/// set-up repeats and per-layer replays, where every sample is one whole
/// measurement). Zero for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What a run reports about its timed windows.
#[derive(Debug, Clone)]
pub struct Estimate {
    pub windows: usize,
    pub quiet_windows: usize,
    pub quiet_samples: usize,
    pub rec_p50_us: f64,
    pub rec_p95_us: f64,
    pub rec_per_s: f64,
    pub cpu_us_per_rec: f64,
    pub child_cpu_us_per_rec: f64,
    /// Median corrected write call, 0 without writes.
    pub write_p50_us: f64,
    /// Median calibration spin over all windows.
    pub calib_us: f64,
    /// Median corrected window duration over all windows ÷ the same over
    /// the quiet half: how much the noisy half was slowed.
    pub quiet_spread: f64,
    /// Uncorrected, all windows.
    pub raw_rec_p50_us: f64,
    pub raw_rec_per_s: f64,
}

/// Computes the reported numbers from the timed windows.
pub fn estimate(windows: &[Window]) -> Result<Estimate, TooFewSamples> {
    let quiet = quiet_half(windows);
    let mut lat: Vec<f64> = quiet
        .iter()
        .flat_map(|&i| {
            let f = windows[i].factor();
            windows[i].latencies_us.iter().map(move |&l| l / f)
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let recs: u64 = quiet.iter().map(|&i| windows[i].recs).sum();
    let secs: f64 = quiet.iter().map(|&i| windows[i].corrected_s()).sum();
    let cpu_us: f64 = quiet
        .iter()
        .map(|&i| windows[i].cpu_ns as f64 / 1e3 / windows[i].factor())
        .sum();
    let child_cpu_us: f64 = quiet
        .iter()
        .map(|&i| windows[i].child_cpu_ns as f64 / 1e3 / windows[i].factor())
        .sum();
    let writes: Vec<f64> = quiet
        .iter()
        .flat_map(|&i| {
            let f = windows[i].factor();
            windows[i].writes_us.iter().map(move |&l| l / f)
        })
        .collect();
    let mut raw: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies_us.iter().copied())
        .collect();
    raw.sort_by(f64::total_cmp);
    let all_s: Vec<f64> = windows.iter().map(Window::corrected_s).collect();
    let quiet_s: Vec<f64> = quiet.iter().map(|&i| windows[i].corrected_s()).collect();
    Ok(Estimate {
        windows: windows.len(),
        quiet_windows: quiet.len(),
        quiet_samples: lat.len(),
        rec_p50_us: percentile(&lat, 50.0)?,
        rec_p95_us: percentile(&lat, 95.0)?,
        rec_per_s: recs as f64 / secs,
        cpu_us_per_rec: cpu_us / recs as f64,
        child_cpu_us_per_rec: child_cpu_us / recs as f64,
        write_p50_us: median(&writes),
        calib_us: median(&windows.iter().map(Window::calib_us).collect::<Vec<_>>()),
        quiet_spread: median(&all_s) / median(&quiet_s),
        raw_rec_p50_us: percentile(&raw, 50.0)?,
        raw_rec_per_s: windows.iter().map(|w| w.recs).sum::<u64>() as f64
            / windows.iter().map(|w| w.wall_s).sum::<f64>(),
    })
}

/// Order-sensitive 64-bit fold (FNV-1a) of the answers of one pass: the
/// model's position among the labelled kinds and every score's bit
/// pattern. Two passes agree exactly when every answer agrees bit for bit
/// and in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds one answer in.
    pub fn answer(&mut self, model: u8, scores: &[f64]) {
        self.byte(model);
        for s in scores {
            for b in s.to_bits().to_le_bytes() {
                self.byte(b);
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window whose spins read `speed` times the nominal spin.
    fn window(wall_s: f64, speed: f64, lat: f64, calls: usize) -> Window {
        Window {
            wall_s,
            latencies_us: vec![lat; calls],
            recs: calls as u64,
            cpu_ns: (wall_s * 1e9) as u64,
            spins_us: vec![speed * CALIB_NOMINAL_US; 3],
            ..Window::default()
        }
    }

    #[test]
    fn quiet_half_drops_injected_slow_windows() {
        // Eight windows at nominal speed; three of them were disturbed.
        let mut ws: Vec<Window> = (0..8).map(|_| window(0.100, 1.0, 10.0, 100)).collect();
        for &i in &[1, 4, 6] {
            ws[i] = window(0.170, 1.0, 17.0, 100);
        }
        let q = quiet_half(&ws);
        assert_eq!(q, vec![0, 2, 3, 5], "four quietest, ties by index");
        let e = estimate(&ws).expect("enough samples");
        assert_eq!(e.quiet_windows, 4);
        assert!((e.rec_p50_us - 10.0).abs() < 1e-9);
        assert!((e.rec_p95_us - 10.0).abs() < 1e-9, "slow windows left out");
        assert!((e.rec_per_s - 1000.0).abs() < 1e-6);
        assert!(e.raw_rec_per_s < 1000.0, "raw figure pays for the noise");
    }

    #[test]
    fn quiet_half_ranks_by_raw_duration() {
        // Window 0's factor reads high; corrected it would look fastest, but
        // a factor measured too high must not buy a place in the quiet half.
        let ws = vec![
            window(0.140, 1.5, 14.0, 50),
            window(0.100, 1.0, 10.0, 50),
            window(0.120, 1.0, 12.0, 50),
            window(0.130, 1.0, 13.0, 50),
        ];
        assert_eq!(quiet_half(&ws), vec![1, 2]);
    }

    #[test]
    fn a_windows_factor_is_the_median_of_its_spins() {
        let mut w = window(0.1, 1.0, 10.0, 20);
        w.spins_us.push(40.0 * CALIB_NOMINAL_US);
        assert!(
            (w.factor() - 1.0).abs() < 1e-12,
            "one spin met an interrupt"
        );
    }

    #[test]
    fn correction_divides_by_the_windows_own_factor() {
        // The same work on a host running at half speed: every raw time
        // doubles, every corrected figure is unchanged.
        let nominal: Vec<Window> = (0..4).map(|_| window(0.2, 1.0, 40.0, 128)).collect();
        let slow: Vec<Window> = (0..4).map(|_| window(0.4, 2.0, 80.0, 128)).collect();
        let (a, b) = (estimate(&nominal).unwrap(), estimate(&slow).unwrap());
        assert!((a.rec_p50_us - b.rec_p50_us).abs() < 1e-9);
        assert!((a.rec_per_s - b.rec_per_s).abs() < 1e-9);
        assert!((a.cpu_us_per_rec - b.cpu_us_per_rec).abs() < 1e-9);
        assert!((b.raw_rec_p50_us - 80.0).abs() < 1e-9);
        assert!((slow[0].factor() - 2.0).abs() < 1e-12);
        assert!((slow[0].corrected_s() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(100.0));
        assert_eq!(percentile(&v, 95.0), Ok(190.0), "exactly ten beyond");
        assert_eq!(
            percentile(&v, 99.0),
            Err(TooFewSamples { have_beyond: 2 }),
            "two samples are not a tail"
        );
        assert_eq!(
            percentile(&v[..19], 50.0),
            Err(TooFewSamples { have_beyond: 9 })
        );
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checksum_sees_bits_and_order() {
        let fold = |answers: &[(u8, [f64; 2])]| {
            let mut c = Checksum::new();
            for (m, s) in answers {
                c.answer(*m, s);
            }
            c.value()
        };
        let a = [(0u8, [0.25, 0.5]), (2u8, [1.0, 0.0])];
        assert_eq!(fold(&a), fold(&a), "same answers, same checksum");
        assert_ne!(fold(&a), fold(&[a[1], a[0]]), "order matters");
        assert_ne!(
            fold(&a),
            fold(&[(0u8, [0.25, 0.5]), (2u8, [1.0, -0.0])]),
            "a sign bit matters"
        );
        assert_ne!(fold(&a), fold(&[(1u8, [0.25, 0.5]), (2u8, [1.0, 0.0])]));
    }
}
