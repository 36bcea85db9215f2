//! Metric names, their computation from a measured window, and the
//! result line.
//!
//! The names here are the ones `BENCHMARK.json` declares; a test checks
//! that the two lists agree.

use crate::stats::{mean, median, nearest_rank, percentile, sorted};
use crate::workloads::{Outcome, Window};
use std::fmt::Write as _;

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// End-to-end metrics (untraced runs), with units, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("ttfb_p50_ms", "ms"),
    ("ok_rate", "ratio"),
    ("full_quality_rate", "ratio"),
    ("cpu_ms_per_op", "ms"),
];

/// Op counts of a window, for the `attempted`/`failed` fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: usize,
    /// Answered, verified ops (degraded included).
    pub ok: usize,
    /// Verified ops served at a reduced budget.
    pub degraded: usize,
    /// Refused by admission control.
    pub shed: usize,
    /// Failed or timed out.
    pub failed: usize,
    /// Answered wrongly.
    pub wrong: usize,
}

impl std::ops::Add for Tally {
    type Output = Tally;

    fn add(self, o: Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            ok: self.ok + o.ok,
            degraded: self.degraded + o.degraded,
            shed: self.shed + o.shed,
            failed: self.failed + o.failed,
            wrong: self.wrong + o.wrong,
        }
    }
}

impl Tally {
    /// Counts the ops of `window`.
    pub fn of(window: &Window) -> Tally {
        let mut t = Tally { attempted: window.ops.len(), ..Tally::default() };
        for op in &window.ops {
            match op.outcome {
                Outcome::Ok => {
                    t.ok += 1;
                    t.degraded += usize::from(op.budget > 0);
                }
                Outcome::Shed => t.shed += 1,
                Outcome::Failed | Outcome::TimedOut => t.failed += 1,
                Outcome::Wrong => t.wrong += 1,
            }
        }
        t
    }

    /// Failed + shed + timed out + wrong.
    pub fn errors(&self) -> usize {
        self.attempted - self.ok
    }
}

/// Latency percentiles of a window in ms; an op that did not answer
/// correctly counts as missing every limit (infinite latency).
pub struct Latencies {
    /// Sorted per-op latency, ms.
    pub lat: Vec<f64>,
    /// Sorted per-op time to first usable byte, ms.
    pub ttfb: Vec<f64>,
}

impl Latencies {
    /// Collects the window's latencies.
    pub fn of(window: &Window) -> Latencies {
        let ms = |ok: bool, us: f64| if ok { us / 1e3 } else { f64::INFINITY };
        Latencies {
            lat: sorted(window.ops.iter().map(|o| ms(o.ok(), o.latency_us))),
            ttfb: sorted(window.ops.iter().map(|o| ms(o.ok(), o.ttfb_us))),
        }
    }
}

/// Computes every end-to-end metric. A percentile the sample does not
/// support is NaN (see [`check_supported`]).
pub fn end_to_end(window: &Window, setups_s: &[f64]) -> Vec<Metric> {
    let t = Tally::of(window);
    let l = Latencies::of(window);
    let pct = |v: &[f64], pm: u32| percentile(v, pm).unwrap_or(f64::NAN);
    let good = (t.ok - t.degraded) as f64;
    let values = [
        median(setups_s),
        good / window.elapsed_s.max(1e-9),
        pct(&l.lat, 500),
        pct(&l.lat, 900),
        pct(&l.ttfb, 500),
        t.ok as f64 / t.attempted.max(1) as f64,
        good / t.ok.max(1) as f64,
        window.cpu_s * 1e3 / t.ok.max(1) as f64,
    ];
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| Metric::new(n, u, v)).collect()
}

/// `Err` naming the metrics whose percentile the run's sample does not
/// support: the run was too short to report them.
pub fn check_supported(metrics: &[Metric]) -> Result<(), String> {
    let missing: Vec<&str> =
        metrics.iter().filter(|m| m.value.is_nan()).map(|m| m.name.as_str()).collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("too few ops to support {}", missing.join(", ")))
    }
}

/// Human-readable summary lines of a window (printed before the result).
pub fn summary(window: &Window) -> String {
    let t = Tally::of(window);
    let Latencies { lat, ttfb } = Latencies::of(window);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "ops: {} attempted, {} ok ({} degraded), {} shed, {} failed/timed out, {} wrong; \
         error_rate {:.4}, degraded_rate {:.4}",
        t.attempted,
        t.ok,
        t.degraded,
        t.shed,
        t.failed,
        t.wrong,
        t.errors() as f64 / t.attempted.max(1) as f64,
        t.degraded as f64 / t.ok.max(1) as f64,
    );
    let fmt = |v: &[f64], pm: u32| {
        percentile(v, pm).map_or("n/a (unsupported)".into(), |x| format!("{x:.3} ms"))
    };
    let _ = writeln!(
        s,
        "latency over {} ops: p50 {}, p90 {}, p99 {}; ttfb p50 {}, p90 {}, p99 {}",
        lat.len(),
        fmt(&lat, 500),
        fmt(&lat, 900),
        fmt(&lat, 990),
        fmt(&ttfb, 500),
        fmt(&ttfb, 900),
        fmt(&ttfb, 990),
    );
    let streams: Vec<_> = window.ops.iter().filter(|o| o.ok() && o.facts.chunks > 0).collect();
    if !streams.is_empty() {
        let whole = sorted(streams.iter().map(|o| (o.latency_us + o.facts.end_wait_us) / 1e3));
        let stalled = streams.iter().filter(|o| o.facts.end_wait_us > END_WAIT_STALL_US).count();
        let _ = writeln!(
            s,
            "whole streams, to the end frame: p50 {}, p90 {}; end frame later than {} us \
             after the last chunk on {stalled} of {} streams",
            fmt(&whole, 500),
            fmt(&whole, 900),
            END_WAIT_STALL_US,
            streams.len(),
        );
    }
    let _ = writeln!(
        s,
        "window: {:.2} s, process CPU {:.2} s, host steal {:.2} s",
        window.elapsed_s, window.cpu_s, window.steal_s
    );
    if !window.lateness_us.is_empty() {
        let late = sorted(window.lateness_us.iter().copied());
        let _ = writeln!(
            s,
            "generator lateness over {} arrivals: mean {:.0} us, p99 {:.0} us, max {:.0} us, \
             {} later than {} us",
            late.len(),
            mean(&late),
            nearest_rank(&late, 990),
            late.last().copied().unwrap_or(0.0),
            late.iter().filter(|&&x| x > LATENESS_LIMIT_US).count(),
            LATENESS_LIMIT_US,
        );
    }
    s
}

/// An end-of-stream frame this long after the chunk that completed the
/// frame counts as stalled in the summary (the stalls seen are about
/// 40 ms; streams without one wait well under 1 ms).
pub const END_WAIT_STALL_US: f64 = 20_000.0;

/// The open-loop validity limit: a `lidar-burst` run is invalid when more
/// than 1% of its arrivals were submitted later than this after their due
/// time (the generator's lateness p99 exceeded the limit).
pub const LATENESS_LIMIT_US: f64 = 20_000.0;

/// `Err` with the reason when the open-loop generator ran too late for
/// its latencies to mean what they claim.
pub fn check_lateness(window: &Window) -> Result<(), String> {
    let n = window.lateness_us.len();
    let late = window.lateness_us.iter().filter(|&&x| x > LATENESS_LIMIT_US).count();
    if late * 100 > n {
        Err(format!(
            "generator lateness p99 exceeds {LATENESS_LIMIT_US} us: {late} of {n} arrivals were late"
        ))
    } else {
        Ok(())
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.errors(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Op, OpFacts};

    pub(crate) fn synthetic_window(n: usize) -> Window {
        let ops = (0..n)
            .map(|i| Op {
                frame: i % 4,
                latency_us: 1000.0 + i as f64,
                ttfb_us: 500.0 + i as f64,
                outcome: Outcome::Ok,
                digest: 0,
                budget: usize::from(i % 10 == 0) * 7,
                facts: OpFacts::default(),
            })
            .collect();
        Window { ops, elapsed_s: 2.0, cpu_s: 1.0, ..Window::default() }
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let w = synthetic_window(200);
        let m = end_to_end(&w, &[0.3, 0.1, 0.2]);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("ops_per_s"), 90.0); // 180 full-quality ops over 2 s
        assert_eq!(get("lat_p50_ms"), 1.099);
        assert_eq!(get("ok_rate"), 1.0);
        assert_eq!(get("full_quality_rate"), 0.9);
        assert_eq!(get("cpu_ms_per_op"), 5.0);
    }

    #[test]
    fn failures_count_against_rates_and_latency() {
        let mut w = synthetic_window(200);
        for op in w.ops.iter_mut().take(100) {
            op.outcome = Outcome::Wrong;
        }
        let m = end_to_end(&w, &[1.0]);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("ok_rate"), 0.5);
        assert_eq!(get("lat_p90_ms"), f64::INFINITY);
        let line = result_line(false, &Tally::of(&w), &m);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 200, \"failed\": 100,"));
    }

    #[test]
    fn short_windows_are_refused() {
        assert!(check_supported(&end_to_end(&synthetic_window(100), &[1.0])).is_ok());
        assert!(check_supported(&end_to_end(&synthetic_window(99), &[1.0])).is_err());
    }

    #[test]
    fn late_generators_invalidate_the_run() {
        let mut w = synthetic_window(0);
        w.lateness_us = vec![10.0; 200];
        assert!(check_lateness(&w).is_ok());
        w.lateness_us[..2].fill(LATENESS_LIMIT_US + 1.0);
        assert!(check_lateness(&w).is_ok(), "1% late is within the limit");
        w.lateness_us[2] = LATENESS_LIMIT_US + 1.0;
        assert!(check_lateness(&w).is_err());
    }
}
