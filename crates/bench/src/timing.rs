//! The timing harness of every bench target, and the fingerprint of the
//! host a timing ran on. A single sub-millisecond sample is noise on a
//! shared host, so [`time`] batches cheap bodies and a [`Timing`] keeps
//! every sample: it reports the median with its quartiles and range.

use sim_core::stats::percentile_sorted;
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// The samples of one [`time`] call in seconds per call of the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Sorted ascending; never empty.
    secs: Vec<f64>,
}

impl Timing {
    fn from_samples(mut secs: Vec<f64>) -> Timing {
        secs.sort_by(f64::total_cmp);
        Timing { secs }
    }

    /// The median sample.
    pub fn median(&self) -> f64 {
        percentile_sorted(&self.secs, 0.5)
    }

    /// The first and third quartiles.
    pub(crate) fn quartiles(&self) -> (f64, f64) {
        let q = |p| percentile_sorted(&self.secs, p);
        (q(0.25), q(0.75))
    }

    /// The fastest sample.
    pub fn min(&self) -> f64 {
        self.secs[0]
    }

    /// The slowest sample.
    pub fn max(&self) -> f64 {
        self.secs[self.secs.len() - 1]
    }
}

/// `median [q1, q3] (min–max)`, all in the unit of the median.
impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let median = self.median();
        let (unit, name, digits) = [(1.0, "s", 3), (1e-3, "ms", 3), (1e-6, "µs", 3)]
            .into_iter()
            .find(|&(unit, ..)| median >= unit)
            .unwrap_or((1e-9, "ns", 1));
        let (q1, q3) = self.quartiles();
        let [median, q1, q3, min, max] = [median, q1, q3, self.min(), self.max()].map(|x| x / unit);
        write!(
            f,
            "{median:.digits$} {name} [{q1:.digits$}, {q3:.digits$}] ({min:.digits$}–{max:.digits$})"
        )
    }
}

/// Times `body`. It first runs in batches of 1, 8, 64, … calls until one
/// batch takes at least 1 ms: those calls are the warm-up, so a body that
/// takes that long already is warmed up by exactly one call. Then
/// `samples` batches of the final size are recorded, each as its seconds
/// per call. Each result goes through [`black_box`], so the compiler
/// cannot delete the work.
///
/// # Panics
///
/// Panics if `samples` is 0.
pub fn time<R>(samples: usize, mut body: impl FnMut() -> R) -> Timing {
    assert!(samples > 0, "time() needs at least one sample");
    let mut batch = |calls: u64| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(body());
        }
        start.elapsed().as_secs_f64()
    };
    let mut calls = 1u64;
    while batch(calls) < 1e-3 {
        calls *= 8;
    }
    Timing::from_samples((0..samples).map(|_| batch(calls) / calls as f64).collect())
}

/// The machine a timing ran on. Each value is `unknown` when it cannot be
/// read.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Hardware threads this process may use.
    pub nproc: String,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
}

/// Reads the [`Host`] fingerprint.
pub fn host() -> Host {
    let nproc = std::thread::available_parallelism().map(|n| n.to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(key, _)| key.trim() == "model name")
        .map(|(_, value)| value.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let known = |value: Option<String>| value.unwrap_or_else(|| "unknown".into());
    Host {
        nproc: known(nproc.ok()),
        cpu: known(cpu),
        rustc: known(rustc),
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Host { nproc, cpu, rustc } = self;
        write!(f, "host: nproc {nproc}, cpu {cpu}, {rustc}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_a_known_sample_set() {
        let odd = Timing::from_samples(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd.secs, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((odd.median(), odd.quartiles()), (3.0, (2.0, 4.0)));
        assert_eq!((odd.min(), odd.max()), (1.0, 5.0));
        let even = Timing::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median(), even.quartiles()), (2.5, (1.75, 3.25)));
    }

    #[test]
    fn a_no_op_body_is_batched() {
        let mut calls = 0u64;
        let timing = time(3, || {
            calls += 1;
            calls
        });
        assert!(calls > 3, "{calls} calls for 3 samples");
        assert_eq!(timing.secs.len(), 3);
        let (q1, q3) = timing.quartiles();
        assert!(timing.min() <= q1 && q1 <= timing.median());
        assert!(timing.median() <= q3 && q3 <= timing.max());
    }

    #[test]
    fn display_picks_the_unit_of_the_median() {
        let show = |secs: Vec<f64>| Timing::from_samples(secs).to_string();
        assert_eq!(show(vec![2.0]), "2.000 s [2.000, 2.000] (2.000–2.000)");
        assert_eq!(
            show(vec![1e-3, 2e-3, 0.5]),
            "2.000 ms [1.500, 251.000] (1.000–500.000)"
        );
        assert!(show(vec![2e-6]).starts_with("2.000 µs ["));
        assert_eq!(
            show(vec![30e-9, 36e-9, 1e-6]),
            "36.0 ns [33.0, 518.0] (30.0–1000.0)"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panic() {
        time(0, || ());
    }

    #[test]
    fn host_reads_or_says_unknown() {
        let Host { nproc, cpu, rustc } = host();
        assert!([nproc, cpu, rustc].iter().all(|value| !value.is_empty()));
    }
}
