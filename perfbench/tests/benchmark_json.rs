//! `BENCHMARK.json` and the runner must agree: every declared metric is
//! printed under its declared name and unit, and every name is well formed.

use fractalcloud_perfbench::inputs::Workload;
use fractalcloud_perfbench::report::{result_line, Metric, Tally, END_TO_END};
use fractalcloud_perfbench::trace::{LayerFigures, Layers};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The string values of `key` inside the top-level array `section`, in
/// order (`BENCHMARK.json` is flat enough for a scan).
fn values(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    let body = &json[open..close];
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let q = rest.find('"').expect("string value");
        let end = q + 1 + rest[q + 1..].find('"').expect("closing quote");
        out.push(rest[q + 1..end].to_owned());
        rest = &rest[end + 1..];
    }
    out
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn pairs(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect()
}

fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    values(json, section, "name").into_iter().zip(values(json, section, "unit")).collect()
}

#[test]
fn every_declared_name_is_well_formed_and_unique() {
    let json = benchmark_json();
    let mut all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| values(&json, s, "name"))
        .collect();
    for name in &all {
        assert!(well_formed(name), "{name:?} is not [A-Za-z0-9_.-]+ of at most 64 characters");
    }
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "names must be unique");
}

#[test]
fn workloads_match_the_runner() {
    let json = benchmark_json();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(values(&json, "workloads", "name"), names);
}

#[test]
fn end_to_end_metrics_are_printed_as_declared() {
    let json = benchmark_json();
    let printed: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
    assert_eq!(declared(&json, "end_to_end"), printed);
    let metrics: Vec<Metric> = END_TO_END.iter().map(|&(n, u)| Metric::new(n, u, 1.5)).collect();
    let line = result_line(true, &Tally { attempted: 1, ok: 1, ..Tally::default() }, &metrics);
    for (name, unit) in printed {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}")));
    }
}

#[test]
fn per_layer_metrics_are_printed_as_declared() {
    let json = benchmark_json();
    let figures = LayerFigures::new(Layers::for_model());
    assert_eq!(declared(&json, "per_layer"), pairs(&figures.metrics()));
}
