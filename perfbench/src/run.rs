//! The benchmark's command line and its two kinds of run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics and the latency stack.
//! Either way the last line of standard output is the JSON result.

use crate::inputs::{frames, Workload};
use crate::report::{self, result_line, Metric, Tally};
use crate::verify::Reference;
use crate::workloads::Rig;
use crate::{host, stats, trace};
use std::time::Instant;

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs the benchmark; returns the process exit code.
pub fn main(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <lidar-burst|viewer-tcp|infer-tcp> --seed <n> --seconds <s> --trace <0|1>");
            return 2;
        }
    };
    let w = args.workload;
    println!("fingerprint: {}", host::fingerprint(w.name(), args.seed, args.trace));

    // Inputs and reference digests: generated before anything is timed.
    let t = Instant::now();
    let pool = frames(w, args.seed);
    let reference = Reference::compute(w, &pool);
    println!(
        "inputs: {} frames x {} points, reference digests in {:.2} s",
        pool.len(),
        w.points(),
        t.elapsed().as_secs_f64()
    );

    if args.trace {
        return trace::run(&args, &pool, &reference);
    }

    // The first set-up's rig is measured; the other set-ups follow the
    // window, so peak RSS read right after it excludes engines started and
    // stopped only to time set-up.
    let t = Instant::now();
    let mut rig = Rig::start(w, &pool, &reference);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut window = rig.run(w, &pool, args.seed, args.seconds, false);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    rig.shutdown();
    for _ in 1..SETUPS {
        let t = Instant::now();
        let rig = Rig::start(w, &pool, &reference);
        setups.push(t.elapsed().as_secs_f64());
        rig.shutdown();
    }
    let wrong = window.verify(&reference);
    print!("{}", report::summary(&window));
    println!("setup: {:?} s (median {:.4} s)", setups, stats::median(&setups));
    println!("peak RSS after the window: {peak_rss_mb:.1} MiB");

    let metrics = report::end_to_end(&window, &setups);
    // A wrong answer is reported as such however the run went otherwise.
    if wrong == 0 {
        let valid =
            report::check_lateness(&window).and_then(|()| report::check_supported(&metrics));
        if let Err(e) = valid {
            println!("INVALID RUN: {e}");
            eprintln!("perfbench: invalid run: {e}");
            return 3;
        }
    }
    finish(wrong, &Tally::of(&window), &metrics)
}

/// Prints the metrics and the result line; the exit code is non-zero
/// when any answer was wrong.
pub fn finish(wrong: usize, tally: &Tally, metrics: &[Metric]) -> i32 {
    for m in metrics {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = wrong == 0 && tally.attempted > 0;
    println!("{}", result_line(correct, tally, metrics));
    if correct {
        0
    } else {
        eprintln!("perfbench: {wrong} answers differ from the direct library results");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv("--workload viewer-tcp --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Workload::ViewerTcp, seed: 9, seconds: 10.0, trace: true });
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload infer-tcp")).is_err());
        assert!(parse(&argv("--workload infer-tcp --seed 1 --trace 2")).is_err());
    }
}
