//! `mmbench selfcheck`: do two sets of runs of the same code agree within
//! the benchmark's own bounds?
//!
//! Runs the full untraced suite twice with one seed (A, B) and once with the
//! next seed (C).  It fails unless every oracle check passed, every exact
//! metric is identical in A and B, and every timed metric's A and B values
//! differ by less than half its bound.  It prints what it saw, so that the
//! bounds in `BENCHMARK.json` are measured, not guessed; suite C shows how
//! far each metric moves with the seed.
//!
//! The host has bad phases — tens of seconds in which everything runs 30 %
//! slower — and a single pair of runs can land in one.  A workload whose
//! timed metrics disagree (its exact ones agreeing) is therefore run as a
//! pair once more, and fails only if the second pair disagrees too.

use crate::spec::{WorkloadSpec, END_TO_END, WORKLOADS};
use crate::{run_child, Args, ChildResult};

fn run_workload(name: &str, seed: u64, seconds: f64) -> Option<ChildResult> {
    let result = run_child(name, seed, seconds, false);
    if let Err(e) = &result {
        println!("FAILED {e}");
    }
    println!();
    result.ok()
}

fn suite(label: &str, seed: u64, seconds: f64) -> Vec<Option<ChildResult>> {
    println!("== selfcheck suite {label}: seed {seed} ==");
    WORKLOADS
        .iter()
        .map(|w| run_workload(w.name, seed, seconds))
        .collect()
}

fn metric(result: &ChildResult, name: &str) -> Option<f64> {
    result
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, value)| *value)
}

/// Whether the exact and the timed metrics of one workload agree.
struct Verdict {
    exact: bool,
    timed: bool,
}

/// Prints one row per end-to-end metric of `w` and judges the A/B pair.
fn compare(
    w: &WorkloadSpec,
    a: Option<&ChildResult>,
    b: Option<&ChildResult>,
    c: Option<&ChildResult>,
) -> Verdict {
    let mut verdict = Verdict {
        exact: true,
        timed: true,
    };
    let (Some(a), Some(b), Some(c)) = (a, b, c) else {
        println!("{:<22}a suite has no result for it: FAIL", w.name);
        verdict.exact = false;
        return verdict;
    };
    for (label, r) in [("A", a), ("B", b), ("C", c)] {
        if !r.correct {
            println!(
                "{:<22}suite {label}: {} of {} iterations failed their oracle: FAIL",
                w.name, r.failed, r.attempted
            );
            verdict.exact = false;
        }
    }
    for m in &END_TO_END {
        let (Some(va), Some(vb), Some(vc)) =
            (metric(a, m.name), metric(b, m.name), metric(c, m.name))
        else {
            println!(
                "{:<22}{:<13}missing from a result line: FAIL",
                w.name, m.name
            );
            verdict.exact = false;
            continue;
        };
        let diff = if va == vb { 0.0 } else { (va - vb).abs() / va };
        let limit = if m.exact { 0.0 } else { m.bound / 2.0 };
        let pass = if m.exact { va == vb } else { diff < limit };
        if m.exact {
            verdict.exact &= pass;
        } else {
            verdict.timed &= pass;
        }
        println!(
            "{:<22}{:<13}{va:>16.6}{vb:>16.6}{diff:>10.4}{limit:>9.4}{vc:>16.6}  {}",
            w.name,
            m.name,
            if pass { "ok" } else { "FAIL" }
        );
    }
    verdict
}

fn print_heading(seed: u64) {
    println!(
        "== selfcheck: A and B share seed {seed}, C has seed {} ==",
        seed + 1
    );
    println!(
        "{:<22}{:<13}{:>16}{:>16}{:>10}{:>9}{:>16}  verdict",
        "workload", "metric", "A", "B", "|A-B|/A", "limit", "C"
    );
}

pub fn run(args: &Args) -> bool {
    let a = suite("A", args.seed, args.seconds);
    let b = suite("B", args.seed, args.seconds);
    let c = suite("C", args.seed + 1, args.seconds);

    print_heading(args.seed);
    let verdicts: Vec<Verdict> = WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, w)| compare(w, a[i].as_ref(), b[i].as_ref(), c[i].as_ref()))
        .collect();

    let mut ok = true;
    for (i, (w, first)) in WORKLOADS.iter().zip(verdicts).enumerate() {
        if first.exact && first.timed {
            continue;
        }
        if !first.exact {
            ok = false;
            continue;
        }
        println!(
            "== selfcheck: a timed metric of {} disagreed; the pair runs once more ==",
            w.name
        );
        let a2 = run_workload(w.name, args.seed, args.seconds);
        let b2 = run_workload(w.name, args.seed, args.seconds);
        print_heading(args.seed);
        let second = compare(w, a2.as_ref(), b2.as_ref(), c[i].as_ref());
        ok &= second.exact && second.timed;
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    ok
}
