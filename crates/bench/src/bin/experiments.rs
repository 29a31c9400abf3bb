//! Experiment driver: regenerates the measured tables of `EXPERIMENTS.md`
//! and the round-engine performance baseline `BENCH_engine.json`.
//!
//! Usage:
//!   cargo run -p bench --bin experiments --release            # all experiments
//!   cargo run -p bench --bin experiments --release -- --exp e1 e4
//!   cargo run -p bench --bin experiments --release -- --quick # smaller sweeps
//!   cargo run -p bench --bin experiments --release -- --json out.json
//!   cargo run -p bench --bin experiments --release -- --engine
//!       # round-engine bench (flat vs reference) -> BENCH_engine.json,
//!       # including the `Vec<u8>` payload dimension (0 B / 64 B / 4 KB frames)
//!   cargo run -p bench --bin experiments --release -- --engine --payload 0,64,4096
//!   cargo run -p bench --bin experiments --release -- --engine --engine-json path.json

use baselines::{broadcast_only, p2p};
use bench::{
    diameter_of, engine_bench, fit_exponent, json_escape, json_f64, print_table, to_json, workload,
    Record,
};
use channel_access::{backoff, capetanakis, election, Contender};
use multimedia::{
    global_fn::{self, Sum},
    lower_bounds, mst,
    partition::{deterministic, randomized},
    rebalance, size, synchronizer, PartitionOutcome,
};
use netsim_graph::{generators, generators::Family, log_star, NodeId, SpanningForest};
use netsim_sim::{
    protocols::BfsBuild, AsyncConfig, CostAccount, FaultEvent, FaultPlan, SyncEngine,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Counting allocator: allocation count / bytes / peak-live bytes, used as the
// engine bench's peak-RSS proxy.  Lives in the binary so the library crates
// can keep `#![forbid(unsafe_code)]`.
// ---------------------------------------------------------------------------

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

fn on_alloc(bytes: usize) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: delegates directly to `System`; counter updates do not affect
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        on_dealloc(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Snapshot of the allocator counters.
#[derive(Clone, Copy)]
struct AllocSnapshot {
    count: u64,
    bytes: u64,
}

fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        count: ALLOC_COUNT.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Resets the peak tracker to the current live size so a following
/// measurement reports its own high-water mark.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

fn peak_delta(baseline_live: u64) -> u64 {
    PEAK_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(baseline_live)
}

struct Opts {
    quick: bool,
    exps: Vec<String>,
    json: Option<String>,
    engine: bool,
    engine_json: String,
    /// Frame sizes (bytes) of the engine bench's payload dimension.
    payload_sizes: Vec<usize>,
}

fn parse_args() -> Opts {
    let mut quick = false;
    let mut exps = Vec::new();
    let mut json = None;
    let mut engine = false;
    let mut engine_json = "BENCH_engine.json".to_string();
    let mut payload_sizes = vec![0usize, 64, 4096];
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--engine" => engine = true,
            "--engine-json" => {
                if let Some(p) = args.next() {
                    engine_json = p;
                }
            }
            "--payload" => {
                if let Some(sizes) = args.next() {
                    payload_sizes = sizes
                        .split(',')
                        .map(|s| s.trim().parse().expect("--payload takes bytes,bytes,..."))
                        .collect();
                }
            }
            "--exp" => {
                while let Some(e) = args.peek() {
                    if e.starts_with("--") {
                        break;
                    }
                    exps.push(args.next().unwrap().to_lowercase());
                }
            }
            "--json" => json = args.next(),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    Opts {
        quick,
        exps,
        json,
        engine,
        engine_json,
        payload_sizes,
    }
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
        let mut sync_engine = SyncEngine::new(net.graph(), |id| BfsBuild::new(id, root));
        sync_engine.run(100_000);
        let sync_cost = *sync_engine.cost();
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

/// One measured graph-construction configuration, for the
/// `graph_construction` section of `BENCH_engine.json`.
///
/// `generate` covers the whole topology generator (builder inserts included);
/// `rebuild` re-runs only the CSR finalisation over the existing edge list
/// (`Graph::map_weights` with the identity), whose allocation count must stay
/// O(1) — the invariant the `graph_alloc` test enforces.
struct GraphBuildRow {
    topology: &'static str,
    n: usize,
    m: usize,
    generate_seconds: f64,
    generate_allocations: u64,
    rebuild_seconds: f64,
    rebuild_allocations: u64,
}

impl GraphBuildRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"generate_seconds\": {}, \
             \"generate_allocations\": {}, \"rebuild_seconds\": {}, \
             \"rebuild_allocations\": {}}}",
            json_escape(self.topology),
            self.n,
            self.m,
            json_f64(self.generate_seconds),
            self.generate_allocations,
            json_f64(self.rebuild_seconds),
            self.rebuild_allocations,
        )
    }
}

/// One measured engine-bench configuration, for `BENCH_engine.json`.
struct EngineBenchRow {
    topology: &'static str,
    n: usize,
    m: usize,
    engine: &'static str,
    threads: usize,
    stats: engine_bench::RunStats,
    allocations: u64,
    allocated_bytes: u64,
    peak_live_bytes: u64,
}

impl EngineBenchRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"engine\": \"{}\", \
             \"threads\": {}, \"rounds\": {}, \"messages\": {}, \"seconds\": {}, \
             \"rounds_per_sec\": {}, \"messages_per_sec\": {}, \"allocations\": {}, \
             \"allocated_bytes\": {}, \"peak_live_bytes\": {}, \"checksum\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            json_escape(self.engine),
            self.threads,
            self.stats.rounds,
            self.stats.messages,
            json_f64(self.stats.seconds),
            json_f64(self.stats.rounds_per_sec()),
            json_f64(self.stats.messages_per_sec()),
            self.allocations,
            self.allocated_bytes,
            self.peak_live_bytes,
            self.stats.checksum,
        )
    }
}

/// One measured payload-dimension configuration (`Vec<u8>` frame gossip),
/// for the `payloads` section of `BENCH_engine.json`.
struct PayloadBenchRow {
    topology: &'static str,
    n: usize,
    m: usize,
    engine: &'static str,
    frame_bytes: usize,
    stats: engine_bench::RunStats,
    allocations: u64,
    allocated_bytes: u64,
    peak_live_bytes: u64,
}

impl PayloadBenchRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"engine\": \"{}\", \
             \"frame_bytes\": {}, \"rounds\": {}, \"messages\": {}, \"seconds\": {}, \
             \"rounds_per_sec\": {}, \"messages_per_sec\": {}, \"payload_mb_per_sec\": {}, \
             \"allocations\": {}, \"allocated_bytes\": {}, \"peak_live_bytes\": {}, \
             \"checksum\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            json_escape(self.engine),
            self.frame_bytes,
            self.stats.rounds,
            self.stats.messages,
            json_f64(self.stats.seconds),
            json_f64(self.stats.rounds_per_sec()),
            json_f64(self.stats.messages_per_sec()),
            json_f64(self.stats.messages_per_sec() * self.frame_bytes as f64 / (1024.0 * 1024.0)),
            self.allocations,
            self.allocated_bytes,
            self.peak_live_bytes,
            self.stats.checksum,
        )
    }
}

/// One measured channel-sharded configuration (K-channel global sum), for
/// the `channels` section of `BENCH_engine.json`.
struct ChannelBenchRow {
    topology: &'static str,
    n: usize,
    m: usize,
    k: u16,
    engine: &'static str,
    stats: engine_bench::RunStats,
    allocations: u64,
    allocated_bytes: u64,
    peak_live_bytes: u64,
}

impl ChannelBenchRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"k\": {}, \"engine\": \"{}\", \
             \"rounds\": {}, \"seconds\": {}, \"rounds_per_sec\": {}, \"slots_per_sec\": {}, \
             \"allocations\": {}, \"allocated_bytes\": {}, \"peak_live_bytes\": {}, \
             \"checksum\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            self.k,
            json_escape(self.engine),
            self.stats.rounds,
            json_f64(self.stats.seconds),
            json_f64(self.stats.rounds_per_sec()),
            json_f64(self.stats.rounds_per_sec() * f64::from(self.k)),
            self.allocations,
            self.allocated_bytes,
            self.peak_live_bytes,
            self.stats.checksum,
        )
    }
}

/// One measured wire-backend configuration (the channel-sharded sum driven
/// over loopback UDP by `netsim-io`'s [`WireNet`](netsim_io::WireNet)),
/// paired with the in-process flat run of the identical workload, for the
/// `wire` section of `BENCH_engine.json`.
struct WireBenchRow {
    topology: &'static str,
    n: usize,
    m: usize,
    k: u16,
    hosts: u16,
    wire: engine_bench::RunStats,
    flat: engine_bench::RunStats,
    bytes_total: u64,
}

impl WireBenchRow {
    fn bytes_per_round(&self) -> f64 {
        self.bytes_total as f64 / self.wire.rounds.max(1) as f64
    }

    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"k\": {}, \"hosts\": {}, \
             \"rounds\": {}, \"seconds\": {}, \"rounds_per_sec\": {}, \
             \"flat_rounds_per_sec\": {}, \"slowdown_vs_flat\": {}, \
             \"bytes_total\": {}, \"bytes_per_round\": {}, \"checksum\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            self.k,
            self.hosts,
            self.wire.rounds,
            json_f64(self.wire.seconds),
            json_f64(self.wire.rounds_per_sec()),
            json_f64(self.flat.rounds_per_sec()),
            json_f64(self.flat.rounds_per_sec() / self.wire.rounds_per_sec().max(1e-12)),
            self.bytes_total,
            json_f64(self.bytes_per_round()),
            self.wire.checksum,
        )
    }
}

/// One measured channel-sharded MST configuration (per-fragment elections on
/// per-fragment channels, dynamic re-attachment between merge phases), for
/// the `mst_sharded` section of `BENCH_engine.json`.
struct MstShardedRow {
    topology: &'static str,
    n: usize,
    m: usize,
    k: u16,
    engine: &'static str,
    phases: u32,
    initial_fragments: usize,
    /// Lane batches the busiest channel ran, summed over the phases.
    batches: u64,
    /// Engine-executed election rounds (drops with `K` once a channel
    /// hosts more than 64 fragments).
    rounds: u64,
    seconds: f64,
    allocations: u64,
    allocated_bytes: u64,
    peak_live_bytes: u64,
    checksum: u64,
}

impl MstShardedRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"k\": {}, \"engine\": \"{}\", \
             \"phases\": {}, \"initial_fragments\": {}, \"batches\": {}, \"rounds\": {}, \
             \"seconds\": {}, \
             \"rounds_per_sec\": {}, \"allocations\": {}, \"allocated_bytes\": {}, \
             \"peak_live_bytes\": {}, \"checksum\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            self.k,
            json_escape(self.engine),
            self.phases,
            self.initial_fragments,
            self.batches,
            self.rounds,
            json_f64(self.seconds),
            json_f64(self.rounds as f64 / self.seconds.max(1e-12)),
            self.allocations,
            self.allocated_bytes,
            self.peak_live_bytes,
            self.checksum,
        )
    }
}

/// One measured election-lane configuration (the same saturated election
/// workload as scalar one-at-a-time slots vs word-wide lane batches), for
/// the `lane_elections` section of `BENCH_engine.json`.  At width 64 with
/// 64 saturated slots the whole series fits one batch, so `rounds` drops by
/// ~the lane width (`speedup_vs_scalar`).
struct LaneElectionRow {
    topology: &'static str,
    n: usize,
    elections: u32,
    /// `"scalar"` (the width-1 baseline run) or `"lanes"` — both
    /// [`channel_access::assigned::LaneElectionSeries`].
    series: &'static str,
    width: u32,
    rounds: u64,
    lane_writes: u64,
    lanes_busy: u64,
    speedup_vs_scalar: f64,
    seconds: f64,
    checksum: u64,
}

impl LaneElectionRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"elections\": {}, \"series\": \"{}\", \
             \"width\": {}, \"rounds\": {}, \"lane_writes\": {}, \"lanes_busy\": {}, \
             \"speedup_vs_scalar\": {}, \"seconds\": {}, \"checksum\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.elections,
            json_escape(self.series),
            self.width,
            self.rounds,
            self.lane_writes,
            self.lanes_busy,
            json_f64(self.speedup_vs_scalar),
            json_f64(self.seconds),
            self.checksum,
        )
    }
}

/// One measured channel-sharded global-function configuration (the Section
/// 5.1 pipeline with its global stage on `K` per-group channels), for the
/// `global_fn_sharded` section of `BENCH_engine.json`.  `global_rounds` is
/// the engine-executed channel-stage round count — the number that drops
/// with the shard factor.
struct GlobalFnShardedRow {
    topology: &'static str,
    n: usize,
    m: usize,
    k: u16,
    engine: &'static str,
    tree_count: usize,
    groups: usize,
    global_rounds: u64,
    total_rounds: u64,
    seconds: f64,
    value: u64,
}

impl GlobalFnShardedRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"k\": {}, \"engine\": \"{}\", \
             \"tree_count\": {}, \"groups\": {}, \"global_rounds\": {}, \"total_rounds\": {}, \
             \"seconds\": {}, \"value\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            self.k,
            json_escape(self.engine),
            self.tree_count,
            self.groups,
            self.global_rounds,
            self.total_rounds,
            json_f64(self.seconds),
            self.value,
        )
    }
}

/// One measured adaptive re-sharding configuration (the Zipf-skewed sharded
/// global sum with the attachment either static or rebalanced between
/// windows), for the `resharding` section of `BENCH_engine.json`.
/// `beats_static` is the headline claim: the adaptive run finishes the same
/// window schedule in fewer engine rounds and more rounds of useful work per
/// second than the static attachment.
struct ReshardingRow {
    topology: &'static str,
    n: usize,
    m: usize,
    k: u16,
    engine: &'static str,
    /// `"static"` (skew bound off) or `"adaptive"` (monitor + re-sharding).
    mode: &'static str,
    windows: u32,
    rounds: u64,
    seconds: f64,
    windows_per_sec: f64,
    /// Re-sharding attempts the monitor fired (0 for static rows).
    attempts: usize,
    /// Attempts that committed (idle veto slot).
    commits: usize,
    migrations: u64,
    /// `static_rounds / rounds` — > 1 exactly when re-sharding won.
    round_win: f64,
    beats_static: bool,
    /// Order-sensitive digest of window totals + the decision trace,
    /// asserted bit-identical across all four substrates.
    checksum: u64,
    /// The per-window global sum (identical in every window).
    value: u64,
}

impl ReshardingRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"k\": {}, \"engine\": \"{}\", \
             \"mode\": \"{}\", \"windows\": {}, \"rounds\": {}, \"seconds\": {}, \
             \"windows_per_sec\": {}, \"attempts\": {}, \"commits\": {}, \"migrations\": {}, \
             \"round_win\": {}, \"beats_static\": {}, \"checksum\": \"{:016x}\", \
             \"value\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            self.k,
            json_escape(self.engine),
            json_escape(self.mode),
            self.windows,
            self.rounds,
            json_f64(self.seconds),
            json_f64(self.windows_per_sec),
            self.attempts,
            self.commits,
            self.migrations,
            json_f64(self.round_win),
            self.beats_static,
            self.checksum,
            self.value,
        )
    }
}

/// One measured fault-dimension configuration (seeded erasures and scripted
/// churn over the channel-sharded workloads), for the `faults` section of
/// `BENCH_engine.json`.  `rounds` vs `fault_free_rounds` is the
/// rounds-to-reconverge metric: how many extra engine rounds the plan cost.
struct FaultBenchRow {
    workload: &'static str,
    topology: &'static str,
    n: usize,
    m: usize,
    k: u16,
    engine: &'static str,
    plan: &'static str,
    erase_p: f64,
    churn_events: usize,
    rounds: u64,
    fault_free_rounds: u64,
    erased_slots: u64,
    dropped_messages: u64,
    crashed_rounds: u64,
    phases: u32,
    seconds: f64,
    checksum: u64,
}

impl FaultBenchRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"workload\": \"{}\", \"topology\": \"{}\", \"n\": {}, \"m\": {}, \
             \"k\": {}, \"engine\": \"{}\", \"plan\": \"{}\", \"erase_p\": {}, \
             \"churn_events\": {}, \"rounds\": {}, \"fault_free_rounds\": {}, \
             \"recovery_overhead\": {}, \"erased_slots\": {}, \"dropped_messages\": {}, \
             \"crashed_rounds\": {}, \"phases\": {}, \"seconds\": {}, \
             \"checksum\": \"{:016x}\"}}",
            json_escape(self.workload),
            json_escape(self.topology),
            self.n,
            self.m,
            self.k,
            json_escape(self.engine),
            json_escape(self.plan),
            json_f64(self.erase_p),
            self.churn_events,
            self.rounds,
            self.fault_free_rounds,
            json_f64(self.rounds as f64 / self.fault_free_rounds.max(1) as f64),
            self.erased_slots,
            self.dropped_messages,
            self.crashed_rounds,
            self.phases,
            json_f64(self.seconds),
            self.checksum,
        )
    }
}

/// One measured active-set configuration (million-node sparse token relay,
/// dense stepping vs the frontier), for the `active_set` section of
/// `BENCH_engine.json`.  `activity_fraction` is the measured fraction of
/// node-rounds that actually stepped; the claim under test is that sparse
/// rounds/sec degrades with the activity fraction, not with `n`.
struct ActiveSetRow {
    topology: &'static str,
    n: usize,
    m: usize,
    engine: &'static str,
    seeds: u64,
    target_fraction: f64,
    activity_fraction: f64,
    rounds: u64,
    stepped_nodes: u64,
    seconds: f64,
    rounds_per_sec: f64,
    checksum: u64,
}

impl ActiveSetRow {
    fn to_json(&self) -> String {
        format!(
            "  {{\"topology\": \"{}\", \"n\": {}, \"m\": {}, \"engine\": \"{}\", \
             \"seeds\": {}, \"target_fraction\": {}, \"activity_fraction\": {}, \
             \"rounds\": {}, \"stepped_nodes\": {}, \"seconds\": {}, \
             \"rounds_per_sec\": {}, \"checksum\": \"{:016x}\"}}",
            json_escape(self.topology),
            self.n,
            self.m,
            json_escape(self.engine),
            self.seeds,
            json_f64(self.target_fraction),
            json_f64(self.activity_fraction),
            self.rounds,
            self.stepped_nodes,
            json_f64(self.seconds),
            json_f64(self.rounds_per_sec),
            self.checksum,
        )
    }
}

/// Measures `run` with allocator accounting around it.
fn measured<F: FnOnce() -> engine_bench::RunStats>(
    run: F,
) -> (engine_bench::RunStats, u64, u64, u64) {
    let live = reset_peak();
    let before = alloc_snapshot();
    let stats = run();
    let after = alloc_snapshot();
    (
        stats,
        after.count - before.count,
        after.bytes - before.bytes,
        peak_delta(live),
    )
}

/// Round-engine bench: flat (and, when compiled in, parallel) vs reference
/// on the global-sum gossip workload; writes `BENCH_engine.json`.
fn engine(opts: &Opts) {
    let ns: &[usize] = if opts.quick {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // The classic trio plus the structured topologies of
    // `netsim_graph::topologies`, which stress the CSR layout and the radix
    // scatter differently (clustered, spatial, heavy-tailed, expander).
    let families = [
        Family::Grid,
        Family::Ring,
        Family::RandomConnected,
        Family::RingOfCliques,
        Family::Geometric,
        Family::PreferentialAttachment,
        Family::Expander,
    ];
    let mut rows: Vec<EngineBenchRow> = Vec::new();
    let mut build_rows: Vec<GraphBuildRow> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    println!("\n== ENGINE — flat zero-allocation engine vs reference (global-sum gossip) ==");
    println!(
        "{:<12}{:>9}{:>10}  {:<12}{:>8}{:>12}{:>14}{:>12}{:>14}",
        "topology", "n", "m", "engine", "rounds", "rounds/s", "messages/s", "allocs", "peak_bytes"
    );
    for fam in families {
        for &n in ns {
            let build_start = std::time::Instant::now();
            let build_before = alloc_snapshot();
            // The dense rejection sampler behind `Family::RandomConnected` is
            // O(n²); at bench scale use the sparse generator (same Θ(n) edge
            // count, average degree ~8).
            let g = if fam == Family::RandomConnected {
                generators::random_connected_sparse(n, 3 * n, 42)
            } else {
                fam.generate(n, 42)
            };
            let generate_seconds = build_start.elapsed().as_secs_f64();
            let generate_allocations = alloc_snapshot().count - build_before.count;
            // CSR refinalisation over the existing edge list: O(1) allocs.
            let rebuild_start = std::time::Instant::now();
            let rebuild_before = alloc_snapshot();
            let rebuilt = g.map_weights(|_, w| w);
            let rebuild_seconds = rebuild_start.elapsed().as_secs_f64();
            let rebuild_allocations = alloc_snapshot().count - rebuild_before.count;
            drop(rebuilt);
            build_rows.push(GraphBuildRow {
                topology: fam.name(),
                n: g.node_count(),
                m: g.edge_count(),
                generate_seconds,
                generate_allocations,
                rebuild_seconds,
                rebuild_allocations,
            });
            let rounds = engine_bench::workload_rounds(&g);
            let mut record = |name: &'static str,
                              threads: usize,
                              (stats, allocations, allocated_bytes, peak_live_bytes): (
                engine_bench::RunStats,
                u64,
                u64,
                u64,
            )| {
                println!(
                    "{:<12}{:>9}{:>10}  {:<12}{:>8}{:>12.0}{:>14.0}{:>12}{:>14}",
                    fam.name(),
                    g.node_count(),
                    g.edge_count(),
                    name,
                    stats.rounds,
                    stats.rounds_per_sec(),
                    stats.messages_per_sec(),
                    allocations,
                    peak_live_bytes
                );
                rows.push(EngineBenchRow {
                    topology: fam.name(),
                    n: g.node_count(),
                    m: g.edge_count(),
                    engine: name,
                    threads,
                    stats,
                    allocations,
                    allocated_bytes,
                    peak_live_bytes,
                });
                stats
            };
            let reference = record(
                "reference",
                1,
                measured(|| engine_bench::run_reference(&g, rounds)),
            );
            let flat = record("flat", 1, measured(|| engine_bench::run_flat(&g, rounds)));
            #[cfg(feature = "parallel")]
            {
                let threads = std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(4)
                    .min(8);
                let par = record(
                    "flat-parallel",
                    threads,
                    measured(|| engine_bench::run_flat_parallel(&g, rounds, threads)),
                );
                assert_eq!(
                    par.checksum,
                    flat.checksum,
                    "parallel run diverged from sequential on {} n={}",
                    fam.name(),
                    n
                );
            }
            assert_eq!(
                flat.checksum,
                reference.checksum,
                "flat and reference engines diverged on {} n={}",
                fam.name(),
                n
            );
            let speedup = flat.rounds_per_sec() / reference.rounds_per_sec();
            println!(
                "   -> speedup flat/reference: {speedup:.2}x ({} rounds of {} msgs)",
                flat.rounds, flat.messages
            );
            speedups.push((format!("{}/{}", fam.name(), g.node_count()), speedup));
        }
    }

    // ---- Payload dimension: Vec<u8> frame gossip, arena vs clone path. ----
    // One local (grid) and one index-random (expander) family suffice to
    // bracket the delivery patterns; the frame sizes are the interesting
    // axis (0 B = pure plumbing, 64 B = small frames, 4 KB = media frames).
    let payload_families = [Family::Grid, Family::Expander];
    let payload_ns: &[usize] = if opts.quick {
        &[1_000]
    } else {
        &[1_000, 10_000]
    };
    let mut payload_rows: Vec<PayloadBenchRow> = Vec::new();
    println!("\n== ENGINE payloads — Vec<u8> frame gossip: arena (flat) vs clone (reference) ==");
    println!(
        "{:<12}{:>9}{:>8}  {:<12}{:>8}{:>12}{:>14}{:>12}{:>12}",
        "topology", "n", "bytes", "engine", "rounds", "rounds/s", "messages/s", "MB/s", "allocs"
    );
    for fam in payload_families {
        for &n in payload_ns {
            let g = fam.generate(n, 42);
            for &frame_bytes in &opts.payload_sizes {
                let rounds = engine_bench::payload_workload_rounds(&g, frame_bytes);
                let mut record = |name: &'static str,
                                  (stats, allocations, allocated_bytes, peak_live_bytes): (
                    engine_bench::RunStats,
                    u64,
                    u64,
                    u64,
                )| {
                    println!(
                        "{:<12}{:>9}{:>8}  {:<12}{:>8}{:>12.0}{:>14.0}{:>12.1}{:>12}",
                        fam.name(),
                        g.node_count(),
                        frame_bytes,
                        name,
                        stats.rounds,
                        stats.rounds_per_sec(),
                        stats.messages_per_sec(),
                        stats.messages_per_sec() * frame_bytes as f64 / (1024.0 * 1024.0),
                        allocations,
                    );
                    payload_rows.push(PayloadBenchRow {
                        topology: fam.name(),
                        n: g.node_count(),
                        m: g.edge_count(),
                        engine: name,
                        frame_bytes,
                        stats,
                        allocations,
                        allocated_bytes,
                        peak_live_bytes,
                    });
                    stats
                };
                let reference = record(
                    "reference",
                    measured(|| engine_bench::run_reference_payload(&g, rounds, frame_bytes)),
                );
                let flat = record(
                    "flat",
                    measured(|| engine_bench::run_flat_payload(&g, rounds, frame_bytes)),
                );
                assert_eq!(
                    flat.checksum,
                    reference.checksum,
                    "payload engines diverged on {} n={} frame={}",
                    fam.name(),
                    n,
                    frame_bytes
                );
                println!(
                    "   -> speedup flat/reference at {frame_bytes} B: {:.2}x",
                    flat.rounds_per_sec() / reference.rounds_per_sec()
                );
            }
        }
    }

    // ---- Channel dimension: K-channel sharded global sum. -----------------
    // The multi-channel scenario family: node v attached to channel v mod K,
    // shard-local TDMA schedule, every slot a success, zero p2p traffic.
    // K cuts the round count by a factor of K; the flat engine resolves each
    // winner to an arena handle while the reference clones it per slot.
    let channel_n = if opts.quick { 512 } else { 8_192 };
    let channel_ks: [u16; 3] = [1, 4, 16];
    let mut channel_rows: Vec<ChannelBenchRow> = Vec::new();
    println!("\n== ENGINE channels — K-channel sharded global sum (flat vs reference) ==");
    println!(
        "{:<12}{:>9}{:>6}  {:<12}{:>8}{:>12}{:>14}{:>12}",
        "topology", "n", "K", "engine", "rounds", "rounds/s", "slots/s", "allocs"
    );
    {
        let g = Family::Ring.generate(channel_n, 42);
        for &k in &channel_ks {
            let mut record = |name: &'static str,
                              (stats, allocations, allocated_bytes, peak_live_bytes): (
                engine_bench::RunStats,
                u64,
                u64,
                u64,
            )| {
                println!(
                    "{:<12}{:>9}{:>6}  {:<12}{:>8}{:>12.0}{:>14.0}{:>12}",
                    Family::Ring.name(),
                    g.node_count(),
                    k,
                    name,
                    stats.rounds,
                    stats.rounds_per_sec(),
                    stats.rounds_per_sec() * f64::from(k),
                    allocations,
                );
                channel_rows.push(ChannelBenchRow {
                    topology: Family::Ring.name(),
                    n: g.node_count(),
                    m: g.edge_count(),
                    k,
                    engine: name,
                    stats,
                    allocations,
                    allocated_bytes,
                    peak_live_bytes,
                });
                stats
            };
            let reference = record(
                "reference",
                measured(|| engine_bench::run_reference_channels(&g, k)),
            );
            let flat = record("flat", measured(|| engine_bench::run_flat_channels(&g, k)));
            assert_eq!(
                flat.checksum, reference.checksum,
                "channel engines diverged at K={k}"
            );
            println!(
                "   -> K={k}: {} rounds, speedup flat/reference {:.2}x",
                flat.rounds,
                flat.rounds_per_sec() / reference.rounds_per_sec()
            );
        }
    }

    // ---- Wire dimension: the sharded sum over real loopback sockets. ------
    // The same K-channel workload driven by netsim-io's WireNet: two
    // in-process hosts exchanging wire frames over loopback UDP, checksum
    // and round count asserted bit-identical to the flat run (the
    // wire_conformance suite pins states, slots, and CostAccount too).  The
    // slowdown against flat is pure transport: frame codec, syscalls, and
    // per-round barrier latency.
    let wire_n = if opts.quick { 256 } else { 512 };
    let wire_ks: [u16; 2] = [1, 4];
    let wire_hosts: u16 = 2;
    let mut wire_rows: Vec<WireBenchRow> = Vec::new();
    println!("\n== ENGINE wire — sharded sum over loopback UDP (netsim-io) vs in-process flat ==");
    println!(
        "{:<12}{:>9}{:>6}{:>7}{:>8}{:>12}{:>14}{:>14}{:>12}",
        "topology", "n", "K", "hosts", "rounds", "rounds/s", "flat rd/s", "bytes/round", "slowdown"
    );
    {
        let g = Family::Ring.generate(wire_n, 42);
        for &k in &wire_ks {
            let flat = engine_bench::run_flat_channels(&g, k);
            let (wire, bytes_total) = engine_bench::run_wire_channels(&g, k, wire_hosts);
            assert_eq!(
                flat.checksum, wire.checksum,
                "wire backend diverged from flat at K={k}"
            );
            assert_eq!(
                flat.rounds, wire.rounds,
                "wire round count diverged from flat at K={k}"
            );
            let row = WireBenchRow {
                topology: Family::Ring.name(),
                n: g.node_count(),
                m: g.edge_count(),
                k,
                hosts: wire_hosts,
                wire,
                flat,
                bytes_total,
            };
            println!(
                "{:<12}{:>9}{:>6}{:>7}{:>8}{:>12.0}{:>14.0}{:>14.1}{:>11.1}x",
                row.topology,
                row.n,
                k,
                wire_hosts,
                wire.rounds,
                wire.rounds_per_sec(),
                flat.rounds_per_sec(),
                row.bytes_per_round(),
                flat.rounds_per_sec() / wire.rounds_per_sec().max(1e-12),
            );
            wire_rows.push(row);
        }
    }

    // ---- Sharded-MST dimension: per-fragment channels + re-attachment. ----
    // The Section 5/6 algorithm-layer scenario: every current fragment runs
    // its minimum-outgoing-link election on its own channel (64 fragments
    // per lane batch), merged fragments re-attach to the winner's channel
    // between phases, and the engine-executed election round count never
    // grows with the shard factor K — pinned bit-for-bit across all three
    // engine substrates.
    let mst_n = if opts.quick { 512 } else { 2_048 };
    // The third case swaps Stage 1 for the all-singletons partition (F = n
    // fragments): the regime in which a channel hosts more than one 64-lane
    // batch, so sharding still shortens the phases.
    let mst_cases = [
        ("cliquering", Family::RingOfCliques, false),
        ("geometric", Family::Geometric, false),
        ("cliquering-singletons", Family::RingOfCliques, true),
    ];
    let mst_ks: [u16; 3] = [1, 4, 16];
    let mut mst_rows: Vec<MstShardedRow> = Vec::new();
    println!("\n== ENGINE mst_sharded — channel-sharded MST merge (K fragment channels) ==");
    println!(
        "{:<22}{:>9}{:>6}  {:<16}{:>8}{:>9}{:>10}{:>12}{:>12}",
        "topology", "n", "K", "engine", "phases", "batches", "rounds", "seconds", "allocs"
    );
    for (label, fam, singletons) in mst_cases {
        let net = workload(fam, mst_n, 42);
        // Stage 1 depends only on the network, not on K or the engine:
        // hoist it so each row's seconds/allocations measure the sharded
        // merge the K-scaling claim is about.
        let stage1 = if singletons {
            PartitionOutcome {
                forest: SpanningForest::singletons(net.graph()),
                cost: CostAccount::new(),
                phases: 0,
            }
        } else {
            deterministic::partition(&net)
        };
        let mut per_k_rounds: Vec<u64> = Vec::new();
        for &k in &mst_ks {
            let mut per_engine: Vec<(&'static str, mst::ShardedMstRun)> = Vec::new();
            for (name, which) in [
                ("flat", mst::MergeSubstrate::Flat),
                ("reference", mst::MergeSubstrate::Reference),
                ("async-lockstep", mst::MergeSubstrate::AsyncLockstep),
            ] {
                let live = reset_peak();
                let before = alloc_snapshot();
                let start = std::time::Instant::now();
                let run = mst::sharded_mst_from_partition(&net, &stage1, k, which);
                let seconds = start.elapsed().as_secs_f64();
                let after = alloc_snapshot();
                println!(
                    "{:<22}{:>9}{:>6}  {:<16}{:>8}{:>9}{:>10}{:>12.3}{:>12}",
                    label,
                    net.node_count(),
                    k,
                    name,
                    run.phases,
                    run.election_batches,
                    run.election_rounds(),
                    seconds,
                    after.count - before.count,
                );
                mst_rows.push(MstShardedRow {
                    topology: label,
                    n: net.node_count(),
                    m: net.edge_count(),
                    k,
                    engine: name,
                    phases: run.phases,
                    initial_fragments: run.initial_fragments,
                    batches: run.election_batches,
                    rounds: run.election_rounds(),
                    seconds,
                    allocations: after.count - before.count,
                    allocated_bytes: after.bytes - before.bytes,
                    peak_live_bytes: peak_delta(live),
                    checksum: run.checksum(),
                });
                per_engine.push((name, run));
            }
            let (_, flat) = &per_engine[0];
            for (name, run) in &per_engine[1..] {
                assert_eq!(
                    flat.edges, run.edges,
                    "sharded MST diverged on {} K={k} ({name})",
                    label
                );
                assert_eq!(
                    flat.election_cost, run.election_cost,
                    "sharded MST election cost diverged on {} K={k} ({name})",
                    label
                );
            }
            per_k_rounds.push(flat.election_rounds());
        }
        // Elections ride 64-lane batches, so sharding only shortens a phase
        // whose busiest channel hosts more than 64 fragments; below that
        // every K needs the same single batch.
        assert!(
            per_k_rounds.windows(2).all(|w| if singletons {
                w[0] > w[1]
            } else {
                w[0] >= w[1]
            }),
            "election rounds must not grow with K (and must drop past 64·K \
             fragments) on {label}: {per_k_rounds:?}"
        );
        println!(
            "   -> {}: rounds {} (K=1) -> {} (K=4) -> {} (K=16), {:.1}x shard win",
            label,
            per_k_rounds[0],
            per_k_rounds[1],
            per_k_rounds[2],
            per_k_rounds[0] as f64 / per_k_rounds[2].max(1) as f64
        );
    }

    // ---- Election-lane dimension: scalar slots vs word-wide lane batches. -
    // The same saturated election workload (every slot has contenders, node
    // v contends in slot v mod E with its index as the station id) run as
    // `LaneElectionSeries` batches of increasing width — width 1, one
    // election at a time, is the scalar baseline row.  At width 64 the 64 slots collapse into a
    // single word-wide batch: the engine-executed round count drops by ~the
    // lane width, with identical winners (checksums asserted equal).
    let lane_ns: &[usize] = if opts.quick { &[256] } else { &[256, 4_096] };
    let lane_elections_count = 64u32;
    let mut lane_rows: Vec<LaneElectionRow> = Vec::new();
    println!("\n== ENGINE lane_elections — scalar election slots vs word-wide lane batches ==");
    println!(
        "{:<12}{:>9}{:>6}  {:<8}{:>7}{:>9}{:>12}{:>12}{:>10}",
        "topology", "n", "E", "series", "width", "rounds", "lane_writes", "lanes_busy", "speedup"
    );
    for &n in lane_ns {
        let g = Family::Grid.generate(n, 42);
        // The first width-1 run is the scalar baseline of every row.
        let mut scalar: Option<engine_bench::ElectionRunStats> = None;
        let mut widest_rounds = 0;
        for (series, width) in [("scalar", 1), ("lanes", 1), ("lanes", 8), ("lanes", 64)] {
            let stats = engine_bench::run_lane_elections(&g, lane_elections_count, width);
            let scalar = *scalar.get_or_insert(stats);
            assert_eq!(
                stats.checksum, scalar.checksum,
                "lane packing changed a winner at n={n} width={width}"
            );
            assert!(
                stats.lanes_busy > 0,
                "saturated slots never occupied a lane"
            );
            let speedup = scalar.rounds as f64 / stats.rounds.max(1) as f64;
            println!(
                "{:<12}{:>9}{:>6}  {:<8}{:>7}{:>9}{:>12}{:>12}{:>10.1}",
                "grid",
                g.node_count(),
                lane_elections_count,
                series,
                width,
                stats.rounds,
                stats.lane_writes,
                stats.lanes_busy,
                speedup,
            );
            lane_rows.push(LaneElectionRow {
                topology: "grid",
                n: g.node_count(),
                elections: lane_elections_count,
                series,
                width,
                rounds: stats.rounds,
                lane_writes: stats.lane_writes,
                lanes_busy: stats.lanes_busy,
                speedup_vs_scalar: speedup,
                seconds: stats.seconds,
                checksum: stats.checksum,
            });
            widest_rounds = stats.rounds;
        }
        let scalar = scalar.expect("the width-1 baseline ran");
        assert!(
            widest_rounds * 8 <= scalar.rounds,
            "64 saturated lanes must cut election rounds >= 8x \
             (got {widest_rounds} vs scalar {})",
            scalar.rounds
        );
        println!(
            "   -> grid n={n}: scalar {} rounds vs one 64-wide batch {} rounds, {:.1}x",
            scalar.rounds,
            widest_rounds,
            scalar.rounds as f64 / widest_rounds.max(1) as f64
        );
    }

    // ---- Sharded global-function dimension: Section 5.1 on K channels. ----
    // The deterministic global-sensitive-function pipeline with its global
    // stage ported onto per-group channels: each group elects a rep and
    // TDMA-broadcasts its tree partials concurrently with the other groups,
    // then the reps combine on channel 0.  The engine-executed global-stage
    // round count drops with the shard factor; the value and the global cost
    // are pinned identical across the engine substrates.
    let gfn_n = if opts.quick { 512 } else { 2_048 };
    let gfn_families = [Family::RingOfCliques, Family::Geometric];
    let gfn_ks: [u16; 3] = [1, 4, 16];
    let mut gfn_rows: Vec<GlobalFnShardedRow> = Vec::new();
    println!("\n== ENGINE global_fn_sharded — Section 5.1 global stage on K group channels ==");
    println!(
        "{:<12}{:>9}{:>6}  {:<16}{:>7}{:>8}{:>10}{:>12}{:>12}",
        "topology", "n", "K", "engine", "trees", "groups", "rounds", "total", "seconds"
    );
    for fam in gfn_families {
        let net = workload(fam, gfn_n, 42);
        let stage1 =
            deterministic::partition_to_level(&net, global_fn::balanced_target_level(&net));
        let inputs: Vec<Sum> = (0..net.node_count() as u64)
            .map(|i| Sum(i.wrapping_mul(0x9e3779b97f4a7c15) | 1))
            .collect();
        let expected = inputs.iter().fold(0u64, |a, s| a.wrapping_add(s.0));
        let mut per_k_rounds: Vec<u64> = Vec::new();
        for &k in &gfn_ks {
            let mut per_engine: Vec<(&'static str, global_fn::ShardedGlobalFnRun<Sum>)> =
                Vec::new();
            for (name, which) in [
                ("flat", mst::MergeSubstrate::Flat),
                ("reference", mst::MergeSubstrate::Reference),
                ("async-lockstep", mst::MergeSubstrate::AsyncLockstep),
            ] {
                let start = std::time::Instant::now();
                let run =
                    global_fn::compute_sharded_with_partition(&net, &stage1, &inputs, k, which);
                let seconds = start.elapsed().as_secs_f64();
                assert_eq!(
                    run.value.0,
                    expected,
                    "sharded global sum diverged on {} K={k} ({name})",
                    fam.name()
                );
                println!(
                    "{:<12}{:>9}{:>6}  {:<16}{:>7}{:>8}{:>10}{:>12}{:>12.3}",
                    fam.name(),
                    net.node_count(),
                    k,
                    name,
                    run.tree_count,
                    run.groups,
                    run.global_rounds(),
                    run.total_cost().rounds,
                    seconds,
                );
                gfn_rows.push(GlobalFnShardedRow {
                    topology: fam.name(),
                    n: net.node_count(),
                    m: net.edge_count(),
                    k,
                    engine: name,
                    tree_count: run.tree_count,
                    groups: run.groups,
                    global_rounds: run.global_rounds(),
                    total_rounds: run.total_cost().rounds,
                    seconds,
                    value: run.value.0,
                });
                per_engine.push((name, run));
            }
            let (_, flat) = &per_engine[0];
            for (name, run) in &per_engine[1..] {
                assert_eq!(
                    flat.global_cost,
                    run.global_cost,
                    "sharded global-fn cost diverged on {} K={k} ({name})",
                    fam.name()
                );
            }
            per_k_rounds.push(flat.global_rounds());
        }
        // The combine broadcast grows with min(F, K), so the ladder need not
        // be strictly monotone at large K — but sharding the group phase
        // must beat the single-channel schedule.
        assert!(
            per_k_rounds.last().unwrap() < per_k_rounds.first().unwrap(),
            "global rounds must drop with K on {}: {per_k_rounds:?}",
            fam.name()
        );
        println!(
            "   -> {}: global rounds {} (K=1) -> {} (K=4) -> {} (K=16), {:.1}x shard win",
            fam.name(),
            per_k_rounds[0],
            per_k_rounds[1],
            per_k_rounds[2],
            per_k_rounds[0] as f64 / *per_k_rounds.last().unwrap() as f64
        );
    }

    // ---- Re-sharding dimension: adaptive channel re-sharding. -------------
    // The Zipf-skewed sharded global sum (channel 0 carries a harmonic
    // share of all nodes, so its oversized shard serialises the TDMA
    // schedule) repeated for a fixed window count, once with the attachment
    // frozen and once with `multimedia::rebalance` interleaving the
    // engine-executed re-sharding protocol between windows.  Each attempt
    // costs real engine rounds (Wilson-walk stream, cut broadcast, notify
    // census, veto slot) and the adaptive run still finishes the schedule
    // in fewer total rounds.  Window totals, decision trace, CostAccount,
    // and run checksum are pinned bit-identical across all four substrates.
    let reshard_n = if opts.quick { 512 } else { 8_192 };
    let reshard_k: u16 = 16;
    let reshard_windows: u32 = 6;
    let reshard_skew: u64 = 2;
    let mut reshard_rows: Vec<ReshardingRow> = Vec::new();
    println!("\n== ENGINE resharding — adaptive re-sharding of a Zipf-skewed sharded sum ==");
    println!(
        "{:<12}{:>9}{:>6}  {:<16}{:<10}{:>9}{:>11}{:>10}{:>12}{:>7}",
        "topology",
        "n",
        "K",
        "engine",
        "mode",
        "rounds",
        "windows/s",
        "attempts",
        "migrations",
        "win"
    );
    {
        let net = workload(Family::Ring, reshard_n, 42);
        let n = net.node_count();
        let vals: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) | 1)
            .collect();
        let expected = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        let chans = rebalance::zipf_channels(n, reshard_k, 1);
        let mut per_engine: Vec<(
            &'static str,
            rebalance::RebalanceRun,
            rebalance::RebalanceRun,
        )> = Vec::new();
        for (name, which) in [
            ("flat", mst::MergeSubstrate::Flat),
            ("reference", mst::MergeSubstrate::Reference),
            ("async-lockstep", mst::MergeSubstrate::AsyncLockstep),
            ("wire", mst::MergeSubstrate::Wire),
        ] {
            let measure = |mode: &'static str,
                           skew: Option<u64>,
                           static_rounds: Option<u64>,
                           rows: &mut Vec<ReshardingRow>| {
                let start = std::time::Instant::now();
                let run = rebalance::rebalanced_sum(
                    &net,
                    &vals,
                    &chans,
                    reshard_k,
                    reshard_windows,
                    skew,
                    0x5eed,
                    None,
                    which,
                );
                let seconds = start.elapsed().as_secs_f64();
                assert_eq!(run.window_totals.len(), reshard_windows as usize);
                for &t in &run.window_totals {
                    assert_eq!(t, expected, "window total diverged ({name}, {mode})");
                }
                let commits = run.events.iter().filter(|e| e.committed).count();
                let round_win = static_rounds.map_or(1.0, |s| s as f64 / run.rounds() as f64);
                let beats_static = static_rounds.is_some_and(|s| run.rounds() < s);
                println!(
                    "{:<12}{:>9}{:>6}  {:<16}{:<10}{:>9}{:>11.1}{:>10}{:>12}{:>7}",
                    Family::Ring.name(),
                    n,
                    reshard_k,
                    name,
                    mode,
                    run.rounds(),
                    f64::from(reshard_windows) / seconds,
                    run.events.len(),
                    run.migrations,
                    if static_rounds.is_some() {
                        if beats_static {
                            "yes"
                        } else {
                            "NO"
                        }
                    } else {
                        "-"
                    },
                );
                rows.push(ReshardingRow {
                    topology: Family::Ring.name(),
                    n,
                    m: net.edge_count(),
                    k: reshard_k,
                    engine: name,
                    mode,
                    windows: reshard_windows,
                    rounds: run.rounds(),
                    seconds,
                    windows_per_sec: f64::from(reshard_windows) / seconds,
                    attempts: run.events.len(),
                    commits,
                    migrations: run.migrations,
                    round_win,
                    beats_static,
                    checksum: run.checksum(),
                    value: expected,
                });
                run
            };
            let static_run = measure("static", None, None, &mut reshard_rows);
            let adaptive = measure(
                "adaptive",
                Some(reshard_skew),
                Some(static_run.rounds()),
                &mut reshard_rows,
            );
            assert!(
                adaptive.migrations > 0,
                "the monitor never committed a migration ({name})"
            );
            assert!(
                adaptive.rounds() < static_run.rounds(),
                "adaptive re-sharding must beat the static attachment ({name}): \
                 {} vs {} rounds",
                adaptive.rounds(),
                static_run.rounds()
            );
            println!(
                "   -> {name}: adaptive {} rounds vs static {}, {:.2}x round win, \
                 {} migrations over {} commits",
                adaptive.rounds(),
                static_run.rounds(),
                static_run.rounds() as f64 / adaptive.rounds() as f64,
                adaptive.migrations,
                adaptive.events.iter().filter(|e| e.committed).count(),
            );
            per_engine.push((name, static_run, adaptive));
        }
        let (_, flat_static, flat_adaptive) = &per_engine[0];
        for (name, static_run, adaptive) in &per_engine[1..] {
            assert_eq!(
                static_run.window_totals, flat_static.window_totals,
                "static window totals diverged ({name})"
            );
            assert_eq!(
                static_run.cost, flat_static.cost,
                "static cost diverged ({name})"
            );
            assert_eq!(
                static_run.checksum(),
                flat_static.checksum(),
                "static checksum diverged ({name})"
            );
            assert_eq!(
                adaptive.events, flat_adaptive.events,
                "re-sharding decision trace diverged ({name})"
            );
            assert_eq!(
                adaptive.cost, flat_adaptive.cost,
                "adaptive cost diverged ({name})"
            );
            assert_eq!(
                adaptive.checksum(),
                flat_adaptive.checksum(),
                "adaptive checksum diverged ({name})"
            );
        }
    }

    // ---- Fault dimension: seeded erasures and scripted churn. -------------
    // Rounds-to-reconverge on both channel-sharded workloads: the TDMA
    // global sum (erased slots cost retry rounds, crashed ranks time out
    // after `ChannelShardedSum::TIMEOUT` strikes) and the sharded MST merge
    // (erased or crash-corrupted elections cost retry phases; crashed nodes
    // depart and the forest reconverges to the MST of the survivors).  Every
    // row's result is verified: exact sums / never-crashed agreement for the
    // global sum, cross-engine edge + cost equality and convergence for the
    // MST.
    let mut fault_rows: Vec<FaultBenchRow> = Vec::new();
    println!("\n== ENGINE faults — seeded erasures & churn: rounds to reconverge ==");
    println!(
        "{:<14}{:>9}{:>5}  {:<12}{:<12}{:>8}{:>10}{:>10}{:>10}{:>9}",
        "workload", "n", "K", "plan", "engine", "rounds", "overhead", "erased", "crashed", "phases"
    );
    let fault_k = 4u16;
    {
        let g = Family::Ring.generate(channel_n, 42);
        let n = g.node_count();
        let churn = vec![
            FaultEvent::Crash {
                round: 3,
                node: NodeId(5),
            },
            FaultEvent::Crash {
                round: 7,
                node: NodeId(n / 2),
            },
            FaultEvent::Recover {
                round: 25,
                node: NodeId(5),
            },
        ];
        let plans: [(&'static str, f64, Vec<FaultEvent>); 3] = [
            ("erase-0.10", 0.10, Vec::new()),
            ("erase-0.30", 0.30, Vec::new()),
            ("churn", 0.10, churn),
        ];
        for (i, (label, erase_p, events)) in plans.into_iter().enumerate() {
            let churn_events = events.len();
            let plan = FaultPlan::from_rates(0xfa57 + i as u64, erase_p, 0.0, 0.0, 0.0)
                .with_events(events);
            let flat = engine_bench::run_flat_channels_faulted(&g, fault_k, &plan);
            let reference = engine_bench::run_reference_channels_faulted(&g, fault_k, &plan);
            assert_eq!(
                flat.checksum, reference.checksum,
                "faulted channel engines diverged under {label}"
            );
            assert_eq!(flat.rounds, reference.rounds);
            assert_eq!(flat.erased_slots, reference.erased_slots);
            assert_eq!(flat.crashed_rounds, reference.crashed_rounds);
            assert!(
                flat.erased_slots > 0,
                "erasure rate {erase_p} never fired under {label}"
            );
            if churn_events > 0 {
                assert!(flat.crashed_rounds > 0, "churn schedule never fired");
            }
            for (name, stats) in [("flat", flat), ("reference", reference)] {
                println!(
                    "{:<14}{:>9}{:>5}  {:<12}{:<12}{:>8}{:>10.2}{:>10}{:>10}{:>9}",
                    "sharded_sum",
                    n,
                    fault_k,
                    label,
                    name,
                    stats.rounds,
                    stats.recovery_overhead(),
                    stats.erased_slots,
                    stats.crashed_rounds,
                    0,
                );
                fault_rows.push(FaultBenchRow {
                    workload: "sharded_sum",
                    topology: Family::Ring.name(),
                    n,
                    m: g.edge_count(),
                    k: fault_k,
                    engine: name,
                    plan: label,
                    erase_p,
                    churn_events,
                    rounds: stats.rounds,
                    fault_free_rounds: stats.fault_free_rounds,
                    erased_slots: stats.erased_slots,
                    dropped_messages: stats.dropped_messages,
                    crashed_rounds: stats.crashed_rounds,
                    phases: 0,
                    seconds: stats.seconds,
                    checksum: stats.checksum,
                });
            }
        }
    }
    {
        let fam = Family::RingOfCliques;
        let net = workload(fam, mst_n, 42);
        let n = net.node_count();
        let stage1 = deterministic::partition(&net);
        let baseline =
            mst::sharded_mst_from_partition(&net, &stage1, fault_k, mst::MergeSubstrate::Flat);
        let mut baseline_edges = baseline.edges.clone();
        baseline_edges.sort_unstable();
        let churn = vec![
            FaultEvent::Crash {
                round: 2,
                node: NodeId(3),
            },
            FaultEvent::Crash {
                round: 5,
                node: NodeId(n / 3),
            },
            FaultEvent::Crash {
                round: 9,
                node: NodeId(2 * n / 3),
            },
        ];
        let plans: [(&'static str, f64, Vec<FaultEvent>); 3] = [
            ("erase-0.10", 0.10, Vec::new()),
            ("erase-0.25", 0.25, Vec::new()),
            ("churn", 0.10, churn),
        ];
        for (i, (label, erase_p, events)) in plans.into_iter().enumerate() {
            let churn_events = events.len();
            let plan = FaultPlan::from_rates(0x157f + i as u64, erase_p, 0.0, 0.0, 0.0)
                .with_events(events);
            let mut per_engine: Vec<(&'static str, mst::FaultedMstRun)> = Vec::new();
            for (name, which) in [
                ("flat", mst::MergeSubstrate::Flat),
                ("reference", mst::MergeSubstrate::Reference),
                ("async-lockstep", mst::MergeSubstrate::AsyncLockstep),
            ] {
                let start = std::time::Instant::now();
                // An erased word poisons a whole 64-fragment lane batch, so
                // at erase_p = 0.25 most phases make no progress (n = 2048:
                // 121 phases); the budget leaves room for that.
                let run =
                    mst::sharded_mst_faulted(&net, &stage1, fault_k, which, plan.clone(), 256);
                let seconds = start.elapsed().as_secs_f64();
                assert!(
                    run.converged,
                    "faulted sharded MST failed to reconverge under {label} ({name})"
                );
                if churn_events == 0 {
                    // Erasure-only: every node survives, so the elected
                    // forest is exactly the fault-free MST.
                    let mut edges = run.edges.clone();
                    edges.sort_unstable();
                    assert_eq!(
                        edges, baseline_edges,
                        "erasures must cost rounds, not correctness ({label}, {name})"
                    );
                }
                println!(
                    "{:<14}{:>9}{:>5}  {:<12}{:<12}{:>8}{:>10.2}{:>10}{:>10}{:>9}",
                    "sharded_mst",
                    n,
                    fault_k,
                    label,
                    name,
                    run.election_rounds(),
                    run.election_rounds() as f64 / baseline.election_rounds().max(1) as f64,
                    run.election_cost.lanes_erased,
                    run.election_cost.crashed_rounds,
                    run.phases,
                );
                fault_rows.push(FaultBenchRow {
                    workload: "sharded_mst",
                    topology: fam.name(),
                    n,
                    m: net.edge_count(),
                    k: fault_k,
                    engine: name,
                    plan: label,
                    erase_p,
                    churn_events,
                    rounds: run.election_rounds(),
                    fault_free_rounds: baseline.election_rounds(),
                    // Elections ride the lane sub-slot, so their erasures
                    // land in the lane counter, not the message-slot one.
                    erased_slots: run.election_cost.lanes_erased,
                    dropped_messages: run.election_cost.dropped_messages,
                    crashed_rounds: run.election_cost.crashed_rounds,
                    phases: run.phases,
                    seconds,
                    checksum: run.checksum(),
                });
                per_engine.push((name, run));
            }
            let (_, flat) = &per_engine[0];
            assert!(flat.election_cost.lanes_erased > 0);
            for (name, run) in &per_engine[1..] {
                assert_eq!(
                    flat.edges, run.edges,
                    "faulted sharded MST diverged under {label} ({name})"
                );
                assert_eq!(
                    flat.election_cost, run.election_cost,
                    "faulted sharded MST election cost diverged under {label} ({name})"
                );
            }
        }
    }

    // ---- Active-set dimension: million-node graphs, almost all idle. ------
    // The sparse token relay (`engine_bench::ActiveTokens`): `f · n` seed
    // tokens hop between neighbours while the other nodes stay idle.  Dense
    // stepping pays O(n) per round regardless; the frontier pays O(active).
    // Rows pair dense and sparse at each activity fraction, with checksums
    // asserted equal — the speedup is bought by skipping work, not by
    // changing the computation.
    let active_ns: &[usize] = if opts.quick {
        &[1 << 20]
    } else {
        &[1 << 20, 1 << 23]
    };
    let active_fractions: &[f64] = &[0.001, 0.01];
    let active_rounds: u32 = if opts.quick { 48 } else { 64 };
    let mut active_rows: Vec<ActiveSetRow> = Vec::new();
    println!("\n== ENGINE active_set — sparse frontier vs dense stepping on mostly-idle graphs ==");
    println!(
        "{:<14}{:>10}{:>10}  {:<12}{:>10}{:>12}{:>14}{:>12}",
        "topology", "n", "m", "engine", "fraction", "rounds/s", "stepped", "seconds"
    );
    for &n in active_ns {
        let builds: [(&'static str, netsim_graph::Graph); 2] = [
            (
                "geometric",
                netsim_graph::topologies::random_geometric(
                    n,
                    netsim_graph::topologies::geometric_threshold_radius(n) * 1.1,
                    42,
                ),
            ),
            (
                "pref-attach",
                netsim_graph::topologies::preferential_attachment(n, 3, 42),
            ),
        ];
        for (name, g) in &builds {
            for &fraction in active_fractions {
                let seeds = ((fraction * n as f64) as u64).max(1);
                let mut record = |engine: &'static str, stats: engine_bench::ActiveSetStats| {
                    println!(
                        "{:<14}{:>10}{:>10}  {:<12}{:>10.4}{:>12.1}{:>14}{:>12.3}",
                        name,
                        g.node_count(),
                        g.edge_count(),
                        engine,
                        stats.activity(g.node_count()),
                        stats.rounds_per_sec(),
                        stats.stepped,
                        stats.seconds,
                    );
                    active_rows.push(ActiveSetRow {
                        topology: name,
                        n: g.node_count(),
                        m: g.edge_count(),
                        engine,
                        seeds,
                        target_fraction: fraction,
                        activity_fraction: stats.activity(g.node_count()),
                        rounds: stats.rounds,
                        stepped_nodes: stats.stepped,
                        seconds: stats.seconds,
                        rounds_per_sec: stats.rounds_per_sec(),
                        checksum: stats.checksum,
                    });
                    stats
                };
                let dense = record(
                    "flat-dense",
                    engine_bench::run_active_set(g, seeds, active_rounds, false),
                );
                let sparse = record(
                    "flat-sparse",
                    engine_bench::run_active_set(g, seeds, active_rounds, true),
                );
                assert_eq!(
                    sparse.checksum, dense.checksum,
                    "sparse stepping diverged from dense on {name} n={n} f={fraction}"
                );
                assert_eq!(
                    dense.stepped,
                    g.node_count() as u64 * u64::from(active_rounds),
                    "dense stepping must visit every node every round"
                );
                assert!(
                    sparse.stepped <= seeds * u64::from(active_rounds),
                    "frontier stepped more nodes than there are live tokens"
                );
                println!(
                    "   -> {name} n={n} f={fraction}: sparse/dense speedup {:.1}x \
                     ({} of {} node-rounds active)",
                    sparse.rounds_per_sec() / dense.rounds_per_sec(),
                    sparse.stepped,
                    dense.stepped,
                );
            }
        }
    }

    let row_json: Vec<String> = rows.iter().map(EngineBenchRow::to_json).collect();
    let build_json: Vec<String> = build_rows.iter().map(GraphBuildRow::to_json).collect();
    let speedup_json: Vec<String> = speedups
        .iter()
        .map(|(key, s)| {
            format!(
                "    {{\"config\": \"{}\", \"speedup\": {}}}",
                json_escape(key),
                json_f64(*s)
            )
        })
        .collect();
    let payload_json: Vec<String> = payload_rows.iter().map(PayloadBenchRow::to_json).collect();
    let channel_json: Vec<String> = channel_rows.iter().map(ChannelBenchRow::to_json).collect();
    let wire_json: Vec<String> = wire_rows.iter().map(WireBenchRow::to_json).collect();
    let mst_json: Vec<String> = mst_rows.iter().map(MstShardedRow::to_json).collect();
    let lane_json: Vec<String> = lane_rows.iter().map(LaneElectionRow::to_json).collect();
    let gfn_json: Vec<String> = gfn_rows.iter().map(GlobalFnShardedRow::to_json).collect();
    let reshard_json: Vec<String> = reshard_rows.iter().map(ReshardingRow::to_json).collect();
    let fault_json: Vec<String> = fault_rows.iter().map(FaultBenchRow::to_json).collect();
    let active_json: Vec<String> = active_rows.iter().map(ActiveSetRow::to_json).collect();
    // Record the autotuned radix-scatter block shift so a perf shift between
    // machines (or a probe change) is attributable from the JSON alone.
    let block_shift = netsim_sim::tuned_block_shift();
    let doc = format!(
        "{{\n\"schema\": \"bench-engine/v10\",\n\"block_shift\": {block_shift},\n\
         \"workload\": \"global-sum gossip \
         (constant-traffic heartbeat aggregation; see bench::engine_bench)\",\n\
         \"payload_workload\": \"Vec<u8> frame gossip (intern-on-broadcast arena vs \
         clone-per-delivery reference; see bench::engine_bench::FrameGossip)\",\n\
         \"channel_workload\": \"K-channel sharded global sum (per-node attachment, \
         TDMA shard schedule, handle-based slot winners; see \
         netsim_sim::protocols::ChannelShardedSum)\",\n\
         \"mst_sharded_workload\": \"channel-sharded MST merge (per-fragment \
         bitwise elections on per-fragment channels, 64 per lane batch, dynamic re-attachment to \
         the winner's channel between phases; see multimedia::mst::sharded_mst)\",\n\
         \"lane_elections_workload\": \"saturated bitwise elections: scalar \
         one-at-a-time (width-1) slots vs up to 64 elections packed into \
         word-wide LaneElectionSeries batches, every node's own-slot winner asserted \
         (see bench::engine_bench::run_lane_elections)\",\n\
         \"global_fn_sharded_workload\": \"Section 5.1 global sensitive \
         function with its global stage on K per-group channels: per-group \
         rep election + TDMA partial broadcasts, reps re-attach and combine \
         on channel 0 (see multimedia::global_fn::compute_sharded)\",\n\
         \"resharding_workload\": \"adaptive channel re-sharding: the \
         Zipf-skewed K-channel sharded sum repeated for a fixed window \
         schedule, static attachment vs the engine-executed re-sharding \
         protocol (contention monitor, Wilson-walk spanning tree, \
         balance-optimal cut, notify census + veto slot) between windows; \
         decision trace and checksum pinned across all four substrates \
         (see multimedia::rebalance and netsim_sim::reshard)\",\n\
         \"faults_workload\": \"seeded erasures and scripted churn over the \
         channel-sharded workloads: rounds to reconverge vs the fault-free \
         schedule, every result verified (see netsim_sim::fault and \
         multimedia::mst::sharded_mst_faulted)\",\n\
         \"active_set_workload\": \"sparse token relay on mostly-idle \
         million-node graphs: f*n seed tokens hop between neighbours while \
         everyone else idles; dense stepping vs the epoch-lazy frontier, \
         checksums asserted equal (see bench::engine_bench::ActiveTokens)\",\n\
         \"wire_workload\": \"channel-sharded sum over loopback UDP: netsim-io \
         WireNet hosts exchanging versioned wire frames (p2p, slot, barrier), \
         checksum and round count asserted identical to the in-process flat \
         run; see bench::engine_bench::run_wire_channels\",\n\
         \"quick\": {},\n\"results\": [\n{}\n],\n\"payloads\": [\n{}\n],\n\
         \"channels\": [\n{}\n],\n\
         \"wire\": [\n{}\n],\n\
         \"mst_sharded\": [\n{}\n],\n\
         \"lane_elections\": [\n{}\n],\n\
         \"global_fn_sharded\": [\n{}\n],\n\
         \"resharding\": [\n{}\n],\n\
         \"faults\": [\n{}\n],\n\
         \"active_set\": [\n{}\n],\n\
         \"graph_construction\": [\n{}\n],\n\
         \"speedups_flat_over_reference\": [\n{}\n]\n}}\n",
        opts.quick,
        row_json.join(",\n"),
        payload_json.join(",\n"),
        channel_json.join(",\n"),
        wire_json.join(",\n"),
        mst_json.join(",\n"),
        lane_json.join(",\n"),
        gfn_json.join(",\n"),
        reshard_json.join(",\n"),
        fault_json.join(",\n"),
        active_json.join(",\n"),
        build_json.join(",\n"),
        speedup_json.join(",\n")
    );
    std::fs::write(&opts.engine_json, doc).expect("write BENCH_engine.json");
    println!(
        "\nwrote {} engine-bench rows to {}",
        rows.len(),
        opts.engine_json
    );
}

fn main() {
    let opts = parse_args();
    let mut all = Vec::new();
    println!("multimedia-net experiment harness (quick = {})", opts.quick);
    if opts.engine || opts.exps.iter().any(|e| e == "engine") {
        engine(&opts);
        if opts.exps.is_empty() {
            // A bare `--engine` run is complete on its own; combine with
            // `--exp` to also run paper experiments.
            return;
        }
    }
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
