//! The structure gate: source-tree counts that may only fall.
//!
//! Each row of [`ROWS`] counts the lines in one slice of the source tree
//! that contain any of its patterns (or the files that contain none).  The
//! test fails when a count differs from the table.  A rise is a regression.
//! A fall must lower the table in the same change, so that every drop shows
//! in the diff that made it.
//!
//! Non-test code ends at a file's first column-0 `#[cfg(test)]`.  The gate
//! reads the tree with `std::fs` only and skips this file, whose table
//! names every pattern.

use std::fs;
use std::path::{Path, PathBuf};

struct Row {
    name: &'static str,
    /// Literal substrings; a line counts once if it holds any of them.
    patterns: &'static [&'static str],
    /// Directories or files, relative to the repo root; a `*` component
    /// stands for every entry of its parent directory.
    scope: &'static [&'static str],
    /// Files left out: a file name, or a path prefix ending in `/`.
    exempt: &'static [&'static str],
    measure: Measure,
    count: usize,
}

enum Measure {
    /// Lines holding a pattern.
    Lines,
    /// Lines holding a pattern before the file's column-0 `#[cfg(test)]`.
    NonTestLines,
    /// Files in scope that hold no pattern at all.
    FilesWithout,
}
use Measure::*;

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // The fault-round lifecycle pass, the per-node lifecycle gate and the
    // channel resolve boundary live in netsim-sim's round.rs; reference.rs
    // keeps the oracle's own copy and fault.rs defines the session.  No
    // other non-test code may call them.  The multimedia drivers'
    // lifecycle reads are not step gates.
    Row { name: "round bookkeeping stated once: round passes and slot folds",
          patterns: &[".apply_round(", "settle_slot(", "settle_lanes("], scope: &["crates/*/src"],
          exempt: &["round.rs", "reference.rs", "fault.rs"], measure: NonTestLines, count: 0 },
    Row { name: "round bookkeeping stated once: lifecycle gate",
          patterns: &[".is_operational("], scope: &["crates/*/src"],
          exempt: &["round.rs", "reference.rs", "fault.rs", "crates/multimedia/"],
          measure: NonTestLines, count: 0 },
    // The one counting allocator, the one tracing wrapper and the one `mix`
    // are testkit's; it is the one library crate that allows `unsafe`.
    Row { name: "counting global allocators", patterns: &["unsafe impl GlobalAlloc"],
          scope: &["crates"], exempt: &[], measure: Lines, count: 1 },
    Row { name: "library crates that do not forbid unsafe code",
          patterns: &["#![forbid(unsafe_code)]"],
          scope: &["src/lib.rs", "crates/*/src/lib.rs", "shims/*/src/lib.rs"], exempt: &[],
          measure: FilesWithout, count: 1 },
    Row { name: "conformance tracing wrappers", patterns: &["struct Traced"],
          scope: &["crates", "tests"], exempt: &[], measure: Lines, count: 1 },
    Row { name: "test-file copies of mix", patterns: &["fn mix("],
          scope: &["crates/*/tests", "tests"], exempt: &[], measure: Lines, count: 0 },
    // Cost the drivers charge by hand instead of executing it.
    Row { name: "hand-charged driver cost", patterns: &["add_messages(", "add_idle_rounds("],
          scope: &["crates/multimedia/src", "crates/baselines/src"], exempt: &[],
          measure: NonTestLines, count: 26 },
    // The public library surface; testkit is a test dependency only.
    Row { name: "public library functions", patterns: &["pub fn "], scope: &["crates/*/src"],
          exempt: &["crates/testkit/"], measure: NonTestLines, count: 504 },
    // Engine re-attachment driven from inside the algorithm library.
    Row { name: "library re-attachment calls", patterns: &[".reattach(", ".update_nodes("],
          scope: &["crates/multimedia/src/mst.rs", "crates/multimedia/src/rebalance.rs",
                   "crates/multimedia/src/global_fn.rs"],
          exempt: &[], measure: NonTestLines, count: 10 },
];

/// Expands `scope` (with `*` components) into the `.rs` files under it, as
/// paths relative to `root`, sorted.
fn files(root: &Path, scope: &str) -> Vec<String> {
    let mut bases = vec![PathBuf::new()];
    for part in scope.split('/') {
        bases = bases
            .into_iter()
            .flat_map(|base| match part {
                "*" => fs::read_dir(root.join(&base))
                    .map(|dir| dir.map(|e| base.join(e.expect("dir entry").file_name())))
                    .into_iter()
                    .flatten()
                    .collect(),
                _ => vec![base.join(part)],
            })
            .collect();
    }
    let mut out = Vec::new();
    let mut stack = bases;
    while let Some(rel) = stack.pop() {
        let path = root.join(&rel);
        if path.is_dir() && !rel.ends_with("target") {
            for entry in fs::read_dir(&path).expect("readable directory") {
                stack.push(rel.join(entry.expect("dir entry").file_name()));
            }
        } else if rel.extension().is_some_and(|e| e == "rs") && path.is_file() {
            out.push(rel.to_str().expect("UTF-8 path").to_owned());
        }
    }
    out.sort();
    out
}

/// The row's hits (`file:line: text`, or the file for [`FilesWithout`]).
fn hits(root: &Path, row: &Row) -> Vec<String> {
    let exempt = |file: &str| {
        row.exempt.iter().any(|&e| {
            if e.ends_with('/') {
                file.starts_with(e)
            } else {
                file.rsplit('/').next() == Some(e)
            }
        })
    };
    let mut out = Vec::new();
    for file in row.scope.iter().flat_map(|scope| files(root, scope)) {
        if file == file!() || exempt(&file) {
            continue;
        }
        let text = fs::read_to_string(root.join(&file)).expect("readable source");
        let lines = text
            .lines()
            .enumerate()
            .take_while(|(_, line)| {
                !(matches!(row.measure, NonTestLines) && line.starts_with("#[cfg(test)]"))
            })
            .filter(|(_, line)| row.patterns.iter().any(|p| line.contains(p)));
        if matches!(row.measure, FilesWithout) {
            if lines.count() == 0 {
                out.push(file);
            }
        } else {
            out.extend(lines.map(|(i, line)| format!("{file}:{}: {}", i + 1, line.trim())));
        }
    }
    out
}

#[test]
fn structure_counts_match_the_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for row in ROWS {
        let hits = hits(root, row);
        let found = hits.len();
        if found > row.count {
            failures.push(format!(
                "{}: {found} > {} — it may only fall:\n  {}",
                row.name,
                row.count,
                hits.join("\n  ")
            ));
        } else if found < row.count {
            failures.push(format!(
                "{}: fell to {found} — lower its count in tests/structure.rs from {}",
                row.name, row.count
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
