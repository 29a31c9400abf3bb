//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds.  `BENCHMARK.json` at the repo root says
//! the same thing to the driver; a unit test keeps the two one to one.

use std::collections::BTreeMap;

/// How long one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 6.0;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "gossip-dense-flat",
        why: "Every node steps and every edge carries a message each round: node stepping, outbox scatter and arena swap do all the work; channels, faults, wire and drivers do none.",
    },
    WorkloadSpec {
        name: "tokens-sparse-flat",
        why: "The engine layer used the opposite way, 0.1 % activity on 2^20 nodes: frontier build and epoch-lazy inboxes; an O(n)-per-round cost added for the dense path shows only here.",
    },
    WorkloadSpec {
        name: "chansum-flat",
        why: "Slot resolution and per-channel accounting with no p2p traffic; the base row the next three workloads share protocol and instance with.",
    },
    WorkloadSpec {
        name: "chansum-faulted-flat",
        why: "The same layers with erasures, a crash-recover event and retry rounds live: a hot-path gain that taxes the fault boundary shows here while chansum-flat improves.",
    },
    WorkloadSpec {
        name: "chansum-lockstep",
        why: "The async_engine + lockstep substrate on the chansum-flat instance; a shared round pipeline must not slow it.",
    },
    WorkloadSpec {
        name: "chansum-wire",
        why: "Wire codec and netsim-io syscalls/barrier over loopback UDP (no real link); predicted unchanged by any in-process engine change.",
    },
    WorkloadSpec {
        name: "paper-pipeline-flat",
        why: "The paper's own algorithms end to end, sharded global sum then sharded MST: partition, lane-packed elections, TDMA and merge drivers dominate, not raw engine throughput.",
    },
    WorkloadSpec {
        name: "reshard-loop-flat",
        why: "Adaptive re-sharding of a Zipf-skewed sum: Wilson walk, balance cut, census/veto and reattach between windows, idle in every other workload.",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated counts and allocation counts repeat exactly for one seed;
    /// host times and memory carry sandbox noise.
    pub exact: bool,
}

/// Reported for every workload, from the untraced pass only.
///
/// The bounds are sized from measurement, not taste: about three times the
/// widest spread (IQR ÷ median over ten seeds) seen on any workload in the
/// sandbox's ordinary phases — host times 2–10 %, `VmHWM` of the 5 MiB
/// processes 4 %, the seeded fault plan 1 % in rounds — capped at the 25 %
/// the driver accepts.  `README.md` has the numbers, and what a bad phase of
/// the host does to them.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_rounds",
        unit: "rounds",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "sim_messages",
        unit: "msgs",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "allocs",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by the traced pass.  A layer a workload does not call reports 0.
pub const PER_LAYER: [PerLayer; 67] = [
    layer("graph.generate_s", "s", Lower),
    layer("graph.generate_allocs", "count", Lower),
    layer("graph.edges", "count", Lower),
    layer("control.build_s", "s", Lower),
    layer("control.build_allocs", "count", Lower),
    layer("engine.run_s", "s", Lower),
    layer("engine.rounds_per_s", "1/s", Higher),
    layer("engine.round_us_p50", "us", Lower),
    layer("engine.round_us_p99", "us", Lower),
    layer("engine.node_steps", "count", Lower),
    layer("engine.steps_per_round", "count", Lower),
    layer("engine.ns_per_node_step", "ns", Lower),
    layer("engine.ns_per_message", "ns", Lower),
    layer("engine.allocs_per_round", "count", Lower),
    layer("async_engine.run_s", "s", Lower),
    layer("async_engine.rounds_per_s", "1/s", Higher),
    layer("async_engine.round_us_p50", "us", Lower),
    layer("async_engine.round_us_p99", "us", Lower),
    layer("async_engine.allocs_per_round", "count", Lower),
    layer("async_engine.slowdown_vs_flat", "ratio", Lower),
    layer("wire.encode_ns_per_frame", "ns", Lower),
    layer("wire.decode_ns_per_frame", "ns", Lower),
    layer("wire.mean_frame_bytes", "bytes", Lower),
    layer("netsim-io.bind_s", "s", Lower),
    layer("netsim-io.run_s", "s", Lower),
    layer("netsim-io.rounds_per_s", "1/s", Higher),
    layer("netsim-io.round_us_p50", "us", Lower),
    layer("netsim-io.round_us_p99", "us", Lower),
    layer("netsim-io.wire_bytes", "bytes", Lower),
    layer("netsim-io.bytes_per_round", "bytes", Lower),
    layer("netsim-io.allocs_per_round", "count", Lower),
    layer("netsim-io.slowdown_vs_flat", "ratio", Lower),
    layer("metrics.p2p_messages", "msgs", Lower),
    layer("channel.writes", "count", Lower),
    layer("channel.slots_success", "count", Lower),
    layer("channel.slots_collision", "count", Lower),
    layer("channel.slots_idle", "count", Lower),
    layer("channel.slot_useful_share", "ratio", Higher),
    layer("channel.lane_writes", "count", Lower),
    layer("channel.lanes_busy", "count", Lower),
    layer("channel.max_load_share", "ratio", Lower),
    layer("fault.erased_slots", "count", Lower),
    layer("fault.dropped_messages", "count", Lower),
    layer("fault.crashed_rounds", "count", Lower),
    layer("fault.recovery_overhead", "ratio", Lower),
    layer("partition.s", "s", Lower),
    layer("partition.rounds", "rounds", Lower),
    layer("partition.messages", "msgs", Lower),
    layer("partition.fragments", "count", Lower),
    layer("global_fn.s", "s", Lower),
    layer("global_fn.local_rounds", "rounds", Lower),
    layer("global_fn.global_rounds", "rounds", Lower),
    layer("mst.s", "s", Lower),
    layer("mst.phases", "count", Lower),
    layer("mst.election_rounds", "rounds", Lower),
    layer("mst.merge_messages", "msgs", Lower),
    layer("channel-access.lane_writes", "count", Lower),
    layer("channel-access.lanes_busy", "count", Lower),
    layer("rebalance.s", "s", Lower),
    layer("rebalance.commits", "count", Higher),
    layer("rebalance.migrations", "count", Lower),
    layer("rebalance.round_win_vs_static", "ratio", Higher),
    layer("reshard.wilson_ns_per_node", "ns", Lower),
    layer("reshard.balance_cut_ns_per_node", "ns", Lower),
    layer("reshard.subtree_members_ns_per_node", "ns", Lower),
    layer("trace.uncovered_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// One traced run's per-layer numbers, keyed by [`PER_LAYER`] name.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every per-layer metric at 0: what a layer the workload never calls
    /// reports.
    pub fn zeroed() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`]: a metric nobody declared.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(is_name(name), "{name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `(name, unit, better, bound)` rows of one `BENCHMARK.json` section.
    fn rows(doc: &Value, section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let text =
            |row: &Value, key: &str| row.get(key).and_then(Value::as_str).unwrap().to_string();
        doc.get(section)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"))
            .iter()
            .map(|row| {
                (
                    text(row, "name"),
                    text(row, "unit"),
                    text(row, "better"),
                    row.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_one_to_one() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let doc = json::parse(&text).unwrap();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Value::as_str).unwrap().to_string(),
                    w.get("why").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(rows(&doc, "end_to_end"), ours);

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(rows(&doc, "per_layer"), ours);

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let paths = doc.get("paths").and_then(Value::as_array).unwrap();
        assert_eq!(paths, [Value::String("benchmark".into())]);
    }
}
