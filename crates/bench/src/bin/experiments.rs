//! Experiment driver: regenerates the measured tables of the paper's
//! results E1–E9 (the series ROADMAP item 1 puts on file).
//!
//! Usage:
//!   cargo run -p bench --bin experiments --release            # all experiments
//!   cargo run -p bench --bin experiments --release -- --exp e1 e4
//!   cargo run -p bench --bin experiments --release -- --quick # smaller sweeps
//!   cargo run -p bench --bin experiments --release -- --json out.json
//!
//! The simulated counts are exact, so two runs with the same options write
//! byte-identical JSON.

use baselines::{broadcast_only, p2p};
use bench::{diameter_of, fit_exponent, print_table, to_json, workload, Record};
use channel_access::{backoff, capetanakis, election, Contender};
use multimedia::{
    global_fn::{self, Sum},
    lower_bounds, mst,
    partition::{deterministic, randomized},
    size, synchronizer,
};
use netsim_graph::{generators::Family, log_star, NodeId};
use netsim_sim::{protocols::BfsBuild, AsyncConfig, EngineBuilder, EngineControl};

const USAGE: &str = "usage: experiments [--quick] [--exp ID...] [--json FILE]
  --quick      smaller sweeps
  --exp ID...  run only the named experiments (e1 .. e9; default: all)
  --json FILE  also write every record to FILE";

/// The experiment ids `--exp` accepts.
const EXPERIMENTS: [&str; 9] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];

#[derive(Debug, Default, PartialEq)]
struct Opts {
    quick: bool,
    exps: Vec<String>,
    json: Option<String>,
}

/// Parses the command line (program name already stripped).  An unknown
/// flag, an unknown experiment id, or a flag missing its value is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--exp" => {
                let given = opts.exps.len();
                while let Some(e) = args.next_if(|e| !e.starts_with("--")) {
                    let e = e.to_lowercase();
                    if !EXPERIMENTS.contains(&e.as_str()) {
                        return Err(format!("unknown experiment {e}"));
                    }
                    opts.exps.push(e);
                }
                if opts.exps.len() == given {
                    return Err("--exp needs at least one experiment id".to_string());
                }
            }
            "--json" => {
                let path = args.next_if(|p| !p.starts_with("--"));
                opts.json = Some(path.ok_or("--json needs a file path")?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn wanted(opts: &Opts, id: &str) -> bool {
    opts.exps.is_empty() || opts.exps.iter().any(|e| e == id)
}

fn sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![256, 1024]
    } else {
        vec![256, 1024, 4096, 16384]
    }
}

fn families() -> [Family; 4] {
    [
        Family::Ring,
        Family::Grid,
        Family::RandomConnected,
        Family::Ray,
    ]
}

fn report_exponent(label: &str, pts: &[(f64, f64)]) {
    println!(
        "   fitted growth exponent for {label}: {:.2}",
        fit_exponent(pts)
    );
}

/// E1 + E2: deterministic partition quality, time and messages.
fn e1_e2(opts: &Opts, all: &mut Vec<Record>) {
    let mut records = Vec::new();
    let mut time_pts = Vec::new();
    for fam in families() {
        for &n in &sweep(opts.quick) {
            let net = workload(fam, n, 42);
            let out = deterministic::partition(&net);
            let q = out.quality();
            let r = Record::new(
                "E1",
                fam.name(),
                net.node_count(),
                net.edge_count(),
                "det-partition",
                &out.cost,
            )
            .with("trees", q.trees as f64)
            .with("max_radius", f64::from(q.max_radius))
            .with("min_size", q.min_size as f64)
            .with("radius/sqrt_n", q.radius_over_sqrt_n)
            .with("rounds/(sqrt_n·log*)", {
                let nn = net.node_count() as f64;
                out.cost.rounds as f64
                    / (nn.sqrt() * f64::from(log_star(net.node_count() as u64).max(1)))
            })
            .with("msgs/bound", {
                let nn = net.node_count() as f64;
                out.cost.p2p_messages as f64
                    / (net.edge_count() as f64
                        + nn * nn.log2() * f64::from(log_star(net.node_count() as u64).max(1)))
            });
            if fam == Family::Grid {
                time_pts.push((net.node_count() as f64, out.cost.rounds as f64));
            }
            records.push(r);
        }
    }
    print_table(
        "E1/E2 — deterministic partition (Section 3): quality, time, messages",
        &records,
    );
    report_exponent("rounds vs n (grid; √n bound predicts 0.5)", &time_pts);
    all.extend(records);
}

/// E3: randomized partition — expected trees, radius, time, messages.
fn e3(opts: &Opts, all: &mut Vec<Record>) {
    let mut records = Vec::new();
    let seeds = if opts.quick { 5 } else { 20 };
    for fam in families() {
        for &n in &sweep(opts.quick) {
            let net = workload(fam, n, 7);
            let mut trees = 0.0;
            let mut radius = 0.0f64;
            let mut cost_sum = netsim_sim::CostAccount::new();
            for s in 0..seeds {
                let out = randomized::partition(&net, s);
                trees += out.outcome.forest.tree_count() as f64;
                radius = radius.max(f64::from(out.outcome.forest.max_radius()));
                cost_sum.absorb(&out.outcome.cost);
            }
            let avg_cost = netsim_sim::CostAccount {
                rounds: cost_sum.rounds / seeds,
                p2p_messages: cost_sum.p2p_messages / seeds,
                ..Default::default()
            };
            let nn = net.node_count() as f64;
            let r = Record::new(
                "E3",
                fam.name(),
                net.node_count(),
                net.edge_count(),
                "rand-partition(avg)",
                &avg_cost,
            )
            .with("avg_trees", trees / seeds as f64)
            .with("trees/sqrt_n", trees / seeds as f64 / nn.sqrt())
            .with("max_radius", radius)
            .with("radius/sqrt_n", radius / nn.sqrt());
            records.push(r);
        }
    }
    print_table(
        "E3 — randomized partition (Section 4, Theorem 1): E[trees] = O(√n), radius ≤ 4√n",
        &records,
    );
    all.extend(records);
}

/// E4: global sensitive functions — multimedia vs both single-medium baselines,
/// plus the ray-graph diameter sweep of the lower-bound section.
fn e4(opts: &Opts, all: &mut Vec<Record>) {
    let mut records = Vec::new();
    let mut mm_pts = Vec::new();
    let mut p2p_pts = Vec::new();
    for fam in [Family::Ring, Family::Grid, Family::RandomConnected] {
        for &n in &sweep(opts.quick) {
            let net = workload(fam, n, 9);
            let nn = net.node_count();
            let inputs: Vec<Sum> = (0..nn as u64).map(Sum).collect();
            let det = global_fn::compute_deterministic(&net, &inputs);
            let rnd = global_fn::compute_randomized(&net, &inputs, 5);
            records.push(
                Record::new(
                    "E4",
                    fam.name(),
                    nn,
                    net.edge_count(),
                    "multimedia-det",
                    &det.total_cost(),
                )
                .with("cores", det.tree_count as f64),
            );
            records.push(
                Record::new(
                    "E4",
                    fam.name(),
                    nn,
                    net.edge_count(),
                    "multimedia-rand",
                    &rnd.total_cost(),
                )
                .with("cores", rnd.tree_count as f64),
            );
            if fam == Family::Ring {
                mm_pts.push((nn as f64, det.total_cost().rounds as f64));
            }

            // Single-medium baselines (engine-executed point-to-point baseline
            // only at moderate sizes to keep the harness fast).
            let raw: Vec<u64> = (0..nn as u64).collect();
            if nn <= 4096 {
                let p = p2p::global_function(net.graph(), NodeId(0), &raw, |a, b| a + b);
                let rec = Record::new(
                    "E4",
                    fam.name(),
                    nn,
                    net.edge_count(),
                    "p2p-only",
                    &p.total_cost(),
                )
                .with("diameter", f64::from(diameter_of(&net)));
                if fam == Family::Ring {
                    p2p_pts.push((nn as f64, p.total_cost().rounds as f64));
                }
                records.push(rec);
            }
            let b = broadcast_only::global_function_tdma(&raw, |a, b| a + b);
            records.push(Record::new(
                "E4",
                fam.name(),
                nn,
                net.edge_count(),
                "broadcast-only",
                &b.cost,
            ));
        }
    }
    print_table(
        "E4 — global sensitive functions (Section 5): multimedia vs single media",
        &records,
    );
    report_exponent(
        "multimedia rounds vs n (ring; bound predicts ~0.5)",
        &mm_pts,
    );
    report_exponent(
        "point-to-point rounds vs n (ring; Ω(d) predicts 1.0)",
        &p2p_pts,
    );
    all.extend(records.clone());

    // Ray-graph diameter sweep (Theorem 2 / Claim 4 shape).
    let mut ray_records = Vec::new();
    let n = if opts.quick { 1025 } else { 4097 };
    for d in [8usize, 16, 32, 64, 128, 256] {
        let net = lower_bounds::ray_network(n, d, 3);
        let nn = net.node_count();
        let inputs: Vec<Sum> = (0..nn as u64).map(Sum).collect();
        let run = global_fn::compute_deterministic(&net, &inputs);
        let b = lower_bounds::bounds_for(nn, d as u32);
        ray_records.push(
            Record::new(
                "E4r",
                "ray",
                nn,
                net.edge_count(),
                &format!("multimedia-det d={d}"),
                &run.total_cost(),
            )
            .with("lb_multimedia", b.multimedia as f64)
            .with("lb_p2p", b.point_to_point as f64)
            .with("lb_broadcast", b.broadcast as f64),
        );
    }
    print_table(
        "E4 (ray graphs) — measured time vs Ω(min{d,√n}) as diameter grows",
        &ray_records,
    );
    all.extend(ray_records);
}

/// E5: minimum spanning tree vs the point-to-point Borůvka baseline.
fn e5(opts: &Opts, all: &mut Vec<Record>) {
    let mut records = Vec::new();
    let mut mm_pts = Vec::new();
    let mut base_pts = Vec::new();
    for fam in [Family::Ring, Family::RandomConnected, Family::Grid] {
        for &n in &sweep(opts.quick) {
            if n > 4096 && fam == Family::RandomConnected {
                continue; // keep the dense sweep fast
            }
            let net = workload(fam, n, 77);
            let run = mst::minimum_spanning_tree(&net);
            let nn = net.node_count();
            records.push(
                Record::new(
                    "E5",
                    fam.name(),
                    nn,
                    net.edge_count(),
                    "multimedia-mst",
                    &run.total_cost(),
                )
                .with("fragments", run.initial_fragments as f64)
                .with("phases", f64::from(run.phases)),
            );
            if fam == Family::Ring {
                mm_pts.push((nn as f64, run.total_cost().rounds as f64));
            }
            let base = p2p::boruvka_mst(net.graph());
            records.push(
                Record::new(
                    "E5",
                    fam.name(),
                    nn,
                    net.edge_count(),
                    "p2p-boruvka",
                    &base.cost,
                )
                .with("phases", f64::from(base.phases)),
            );
            if fam == Family::Ring {
                base_pts.push((nn as f64, base.cost.rounds as f64));
            }
        }
    }
    print_table(
        "E5 — minimum spanning tree (Section 6): multimedia vs point-to-point only",
        &records,
    );
    report_exponent(
        "multimedia MST rounds vs n (ring; √n·log n predicts ~0.5-0.6)",
        &mm_pts,
    );
    report_exponent(
        "p2p Borůvka rounds vs n (ring; Θ(n log n) predicts ~1.0+)",
        &base_pts,
    );
    all.extend(records);
}

/// E6: the channel synchronizer (Section 7.1) — overhead vs the synchronous run.
fn e6(opts: &Opts, all: &mut Vec<Record>) {
    let mut records = Vec::new();
    let ns = if opts.quick {
        vec![64usize, 144]
    } else {
        vec![64usize, 144, 256]
    };
    for &n in &ns {
        let net = workload(Family::Grid, n, 4);
        let root = NodeId(0);
        // Synchronous reference.
        let mut sync_engine =
            EngineBuilder::new(net.graph()).build_flat(|id| BfsBuild::new(id, root));
        sync_engine.run(100_000);
        let sync_cost = sync_engine.cost();
        records.push(Record::new(
            "E6",
            "grid",
            net.node_count(),
            net.edge_count(),
            "sync-engine-bfs",
            &sync_cost,
        ));
        // Asynchronous run under the channel synchronizer.
        let cfg = AsyncConfig {
            slot_ticks: 4,
            max_delay_ticks: 4,
            seed: 11,
        };
        let run =
            synchronizer::run_synchronized(&net, cfg, 50_000_000, |id| BfsBuild::new(id, root))
                .expect("synchronized run terminates");
        records.push(
            Record::new(
                "E6",
                "grid",
                net.node_count(),
                net.edge_count(),
                "async+synchronizer-bfs",
                &run.cost,
            )
            .with("payload_msgs", run.payload_messages as f64)
            .with(
                "msg_overhead",
                run.cost.p2p_messages as f64 / run.payload_messages.max(1) as f64,
            )
            .with(
                "slots_per_round",
                run.slots as f64 / run.rounds.max(1) as f64,
            ),
        );
    }
    print_table(
        "E6 — channel synchronizer (Section 7.1): ≤2× messages, O(1) slots per round",
        &records,
    );
    all.extend(records);
}

/// E7 + E8: network-size computation and estimation.
fn e7_e8(opts: &Opts, all: &mut Vec<Record>) {
    let mut records = Vec::new();
    for &n in &sweep(opts.quick) {
        let net = workload(Family::RandomConnected, n, 6);
        let exact = size::deterministic_count(&net);
        records.push(
            Record::new(
                "E7",
                "random",
                net.node_count(),
                net.edge_count(),
                "det-count",
                &exact.cost,
            )
            .with("counted_n", exact.n as f64)
            .with("level", f64::from(exact.level)),
        );
        let reps = if opts.quick { 11 } else { 31 };
        let mut ratios: Vec<f64> = (0..reps)
            .map(|s| size::randomized_estimate(&net, s).ratio)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let est = size::randomized_estimate(&net, 0);
        records.push(
            Record::new(
                "E8",
                "random",
                net.node_count(),
                net.edge_count(),
                "greenberg-ladner",
                &est.cost,
            )
            .with("median_ratio", ratios[ratios.len() / 2])
            .with("min_ratio", ratios[0])
            .with("max_ratio", *ratios.last().unwrap()),
        );
    }
    print_table(
        "E7/E8 — network size: deterministic count (7.3) and randomized estimate (7.4)",
        &records,
    );
    all.extend(records);
}

/// E9: channel-access substrate calibration.
fn e9(opts: &Opts, all: &mut Vec<Record>) {
    let mut records = Vec::new();
    let ks = if opts.quick {
        vec![16u64, 64, 256]
    } else {
        vec![16u64, 64, 256, 1024]
    };
    for &k in &ks {
        let id_space = 1u64 << 18;
        let contenders: Vec<Contender> = (0..k).map(|i| Contender::new(i * 131 + 7)).collect();
        let cap = capetanakis::resolve(&contenders, id_space);
        records.push(
            Record::new("E9", "-", k as usize, 0, "capetanakis", &cap.cost)
                .with("slots_per_contender", cap.slots() as f64 / k as f64),
        );
        let mb = backoff::resolve_known_count(&contenders, 3).expect("schedules");
        records.push(
            Record::new("E9", "-", k as usize, 0, "metcalfe-boggs", &mb.cost)
                .with("slots_per_contender", mb.slots() as f64 / k as f64),
        );
        let ids: Vec<u64> = contenders.iter().map(|c| c.id).collect();
        let det = election::bitwise_election(&ids, 18);
        records.push(Record::new(
            "E9",
            "-",
            k as usize,
            0,
            "bitwise-election",
            &det.cost,
        ));
        let wil = election::willard_election(&ids, 18, 5);
        records.push(Record::new(
            "E9",
            "-",
            k as usize,
            0,
            "willard-election",
            &wil.cost,
        ));
    }
    print_table(
        "E9 — channel-access substrate: slots vs number of contenders k",
        &records,
    );
    all.extend(records);
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut all = Vec::new();
    println!("multimedia-net experiment harness (quick = {})", opts.quick);
    if wanted(&opts, "e1") || wanted(&opts, "e2") {
        e1_e2(&opts, &mut all);
    }
    if wanted(&opts, "e3") {
        e3(&opts, &mut all);
    }
    if wanted(&opts, "e4") {
        e4(&opts, &mut all);
    }
    if wanted(&opts, "e5") {
        e5(&opts, &mut all);
    }
    if wanted(&opts, "e6") {
        e6(&opts, &mut all);
    }
    if wanted(&opts, "e7") || wanted(&opts, "e8") {
        e7_e8(&opts, &mut all);
    }
    if wanted(&opts, "e9") {
        e9(&opts, &mut all);
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, to_json(&all)).expect("write JSON output");
        println!("\nwrote {} records to {path}", all.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_args_accepts_the_documented_forms() {
        assert_eq!(parse(&[]), Ok(Opts::default()));
        assert_eq!(
            parse(&["--exp", "E1", "e4", "--quick", "--json", "out.json"]),
            Ok(Opts {
                quick: true,
                exps: vec!["e1".to_string(), "e4".to_string()],
                json: Some("out.json".to_string()),
            })
        );
    }

    #[test]
    fn parse_args_rejects_unknown_flags_ids_and_missing_values() {
        assert_eq!(
            parse(&["--jsn", "out.json"]).unwrap_err(),
            "unknown argument --jsn"
        );
        assert_eq!(
            parse(&["--exp", "e10"]).unwrap_err(),
            "unknown experiment e10"
        );
        assert!(parse(&["--exp"]).unwrap_err().contains("--exp needs"));
        assert!(parse(&["--exp", "--quick"])
            .unwrap_err()
            .contains("--exp needs"));
        assert!(parse(&["--json"]).unwrap_err().contains("--json needs"));
        assert!(parse(&["--json", "--quick"])
            .unwrap_err()
            .contains("--json needs"));
    }
}
