//! Smoke test: every workload for one op at the small preset, untraced
//! and traced, on the default seed (checked against the pinned digests)
//! and on a held-out seed with no pin. Every metric `BENCHMARK.json`
//! names must be printed with its unit, and no op may fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const HELD_OUT_SEED: u64 = 7;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |text: &str, key: &str| -> String {
        let at = text.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        text[at..at + text[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> String {
    run_ops(workload, seed, trace, 1)
}

fn run_ops(workload: &str, seed: u64, trace: u8, ops: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--preset", "small"])
        .args(["--ops", &ops.to_string(), "--seed", &seed.to_string()])
        .args(["--trace", &trace.to_string()])
        .env_remove("PERFBENCH_BLESS")
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn smoke(workload: &str) {
    for seed in [42, HELD_OUT_SEED] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, seed, trace);
            let last = stdout.lines().last().expect("a result line");
            let context = format!("{workload} seed {seed} trace {trace}:\n{stdout}");
            assert!(last.starts_with("{\"correct\": true,"), "{context}");
            assert!(last.contains("\"failed\": 0,"), "{context}");
            for (name, unit) in declared(section) {
                let at = last
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{name} missing; {context}"));
                let entry = &last[at..at + last[at..].find('}').expect("entry ends")];
                assert!(
                    entry.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}; {context}"
                );
            }
            if trace == 0 {
                let ratio = stdout
                    .lines()
                    .find(|l| l.starts_with("fail_ratio"))
                    .unwrap_or_else(|| panic!("fail_ratio missing; {context}"));
                assert_eq!(ratio.split_whitespace().nth(1), Some("0"), "{context}");
            }
        }
    }
}

#[test]
fn study() {
    smoke("study");
}

#[test]
fn reexecute() {
    smoke("reexecute");
}

#[test]
fn day_roll() {
    smoke("day-roll");
}

#[test]
fn warm_study() {
    smoke("warm-study");
}

/// A digest the default seed asks for but `pinned.txt` lacks (here the
/// dump after two days) is a failed check, not a self-comparison.
#[test]
fn unpinned_default_seed_digest_fails() {
    let stdout = run_ops("day-roll", 42, 0, 2);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false,"), "{stdout}");
    assert!(
        stdout.contains("no pinned digest for small 42 day_roll_d2"),
        "{stdout}"
    );
}
