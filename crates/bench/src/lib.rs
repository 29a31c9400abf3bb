//! Benchmark and experiment harness for the multimedia-network reproduction.
//!
//! The paper is a theory paper: its "evaluation" is the set of complexity
//! bounds behind experiments E1–E9 (ROADMAP item 1).  This crate regenerates,
//! for every result, a measured table whose *shape* (growth exponents, who
//! wins, crossovers) can be compared against the claimed bound:
//!
//! the `experiments` binary (`cargo run -p bench --bin experiments --release`)
//! prints the tables and, with `--json`, writes them as exact records.  Host
//! time is the repo benchmark's concern (`BENCHMARK.json`, `benchmark/`).

#![forbid(unsafe_code)]

use multimedia::MultimediaNetwork;
use netsim_graph::{generators::Family, traversal};
use netsim_sim::CostAccount;

/// One measured data point of an experiment sweep.
#[derive(Clone, Debug)]
pub struct Record {
    /// Experiment id, e.g. "E1".
    pub experiment: String,
    /// Graph family name.
    pub family: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Algorithm / variant label.
    pub algorithm: String,
    /// Measured rounds (time).
    pub rounds: u64,
    /// Measured point-to-point messages.
    pub messages: u64,
    /// Extra named quantities (e.g. trees, max_radius, estimate ratio).
    pub extra: Vec<(String, f64)>,
}

impl Record {
    /// Creates a record from a cost account.
    pub fn new(
        experiment: &str,
        family: &str,
        n: usize,
        m: usize,
        algorithm: &str,
        cost: &CostAccount,
    ) -> Self {
        Record {
            experiment: experiment.to_string(),
            family: family.to_string(),
            n,
            m,
            algorithm: algorithm.to_string(),
            rounds: cost.rounds,
            messages: cost.p2p_messages,
            extra: Vec::new(),
        }
    }

    /// Attaches a named extra quantity.
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }
}

/// Prints a sequence of records as an aligned text table.
pub fn print_table(title: &str, records: &[Record]) {
    println!("\n== {title} ==");
    println!(
        "{:<6}{:<10}{:>8}{:>9}  {:<28}{:>10}{:>12}  extras",
        "exp", "family", "n", "m", "algorithm", "rounds", "messages"
    );
    for r in records {
        let extras: Vec<String> = r.extra.iter().map(|(k, v)| format!("{k}={v:.2}")).collect();
        println!(
            "{:<6}{:<10}{:>8}{:>9}  {:<28}{:>10}{:>12}  {}",
            r.experiment,
            r.family,
            r.n,
            r.m,
            r.algorithm,
            r.rounds,
            r.messages,
            extras.join(" ")
        );
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; map to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialises records to JSON (one array), hand-rolled: the offline build
/// environment cannot fetch serde, and the schema is small and flat.
pub fn to_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let extras: Vec<String> = r
            .extra
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), json_f64(*v)))
            .collect();
        out.push_str(&format!(
            "  {{\"experiment\": \"{}\", \"family\": \"{}\", \"n\": {}, \"m\": {}, \
             \"algorithm\": \"{}\", \"rounds\": {}, \"messages\": {}, \"extra\": {{{}}}}}",
            json_escape(&r.experiment),
            json_escape(&r.family),
            r.n,
            r.m,
            json_escape(&r.algorithm),
            r.rounds,
            r.messages,
            extras.join(", ")
        ));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Standard node-count sweep used by the experiments.
pub const SWEEP_N: [usize; 4] = [256, 1024, 4096, 16384];

/// Smaller sweep for the more expensive workloads.
pub const SWEEP_N_SMALL: [usize; 3] = [256, 1024, 4096];

/// The graph families exercised by the sweeps.
pub const SWEEP_FAMILIES: [Family; 4] = [
    Family::Ring,
    Family::Grid,
    Family::RandomConnected,
    Family::Ray,
];

/// Builds the standard workload network for a family and size.
pub fn workload(family: Family, n: usize, seed: u64) -> MultimediaNetwork {
    MultimediaNetwork::new(family.generate(n, seed))
}

/// Fits the exponent `b` of `y ≈ a·x^b` by least squares on log-log data.
/// Used to report measured growth exponents (≈ 0.5 for √n bounds, ≈ 1 for
/// linear bounds).
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let k = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

/// Diameter of a network's graph (exact for small graphs, two-sweep lower
/// bound for larger ones to keep the harness fast).
pub fn diameter_of(net: &MultimediaNetwork) -> u32 {
    if net.node_count() <= 2048 {
        traversal::diameter_radius(net.graph()).0
    } else {
        traversal::diameter_lower_bound(net.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_normalisations() {
        let mut c = CostAccount::new();
        c.add_idle_rounds(100);
        c.add_messages(500);
        let r = Record::new("E1", "ring", 1024, 1024, "det", &c).with("trees", 30.0);
        assert_eq!(r.rounds, 100);
        assert_eq!(r.extra.len(), 1);
        assert!(to_json(&[r]).contains("\"E1\""));
    }

    #[test]
    fn exponent_fit_recovers_slope() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (1 << i) as f64;
                (x, 3.0 * x.sqrt())
            })
            .collect();
        let b = fit_exponent(&pts);
        assert!((b - 0.5).abs() < 0.02, "fitted {b}");
        let lin: Vec<(f64, f64)> = (1..=6)
            .map(|i| ((1 << i) as f64, 7.0 * (1 << i) as f64))
            .collect();
        assert!((fit_exponent(&lin) - 1.0).abs() < 0.02);
        assert!(fit_exponent(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn workload_builder() {
        let net = workload(Family::Grid, 64, 1);
        assert!(net.node_count() >= 49);
        assert!(diameter_of(&net) > 0);
    }
}
