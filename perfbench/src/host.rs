//! Process accounting from `/proc/self` and the host fingerprint printed
//! with every result.

use std::fmt::Write as _;

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// 100 on every Linux architecture the workspace builds for).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, from
/// `/proc/self/stat` (fields 14 and 15). `None` where `/proc` is absent.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds the hypervisor ran something else while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`, all CPUs).
/// Host contention the benchmark cannot control shows up here.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Online CPUs as `/proc/cpuinfo` lists them (what `nproc --all` counts).
fn cpuinfo_processors() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The revision of the checkout in the working directory, read from
/// `.git` without leaving the directory; "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).map(|rev| rev.trim().to_owned()).filter(|r| !r.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One-line JSON fingerprint of the host, build and run.
pub fn fingerprint(workload: &str, seed: u64, trace: bool) -> String {
    let mut knobs: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("FRACTALCLOUD_")).collect();
    knobs.sort();
    let knobs = knobs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {}, \
         \"available_parallelism\": {available}, \"parallel_workers\": {}, \
         \"kernel_backend\": {}, \"fractalcloud_env\": {{{knobs}}}, \"git_revision\": {}, \
         \"build_profile\": {}}}",
        json_str(workload),
        cpuinfo_processors(),
        fractalcloud_parallel::workers(),
        json_str(fractalcloud_pointcloud::kernels::active_backend().name()),
        json_str(&git_revision()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_this_process() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
        assert!(steal_seconds().is_some_and(|s| s >= 0.0));
    }

    #[test]
    fn fingerprint_escapes_strings() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        let f = fingerprint("viewer-tcp", 3, false);
        assert!(f.starts_with('{') && f.ends_with('}'));
        assert!(f.contains("\"seed\": 3"));
    }
}
