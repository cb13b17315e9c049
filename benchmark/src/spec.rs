//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root
//! states the same lists for the driver; a test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, wasted work).
    Lower,
    /// Larger is better (rates, useful shares).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9][A-Za-z0-9_.-]*`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `(name, why it is here)` of every workload.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "matmul_cold",
        "cold campaign on free-running rank threads at jobs=1: the replay kernel (spawn+join, MPI ops, tool layer) does nearly all the work",
    ),
    (
        "adlb_det_jobs2",
        "16 ranks on the cooperative turn-token scheduler, pruned by a static plan, two replay workers: the other runtime mode and the parallel driver at real replay cost",
    ),
    (
        "matmul_ack_warm",
        "warm rerun of the matmul_cold-sized campaign served from the replay cache: no replay executes, so the walk and one cache read per commit are all there is",
    ),
    (
        "fuzz_corpus",
        "15 generated programs through the 7-mode differential oracle: the only work in isp, vector clocks and payload packing, and in divergence retries",
    ),
    (
        "parmetis_scale",
        "the paper's own measure: one native, DAMPI and ISP run of ParMETIS at np 16/64/256, no replays, so per-message cost is all there is",
    ),
];

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub const END_TO_END: [(Metric, f64); 4] = [
    (lower("setup_s", "s"), 0.25),
    (lower("verdict_wall_s", "s"), 0.25),
    (lower("cpu_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.25),
];

/// Every per-layer metric, in the order it is printed.
pub const PER_LAYER: [Metric; 48] = [
    lower("workloads.build_s", "s"),
    lower("mpi.runtime.spawn_join_us", "us"),
    lower("mpi.runtime.spawn_join_tail_us", "us"),
    lower("mpi.runtime.native_run_us", "us"),
    higher("mpi.runtime.msgs_per_s", "1/s"),
    lower("mpi.matching.deliver_post_ns", "ns"),
    lower("clocks.lamport_merge_ns", "ns"),
    lower("clocks.vector_merge_n256_ns", "ns"),
    lower("core.pb.pack_unpack_ns", "ns"),
    lower("core.pb.pack_unpack_vec256_ns", "ns"),
    lower("core.late.analyze_ns", "ns"),
    higher("core.late.late_ratio", "ratio"),
    lower("core.tool.init_us", "us"),
    lower("core.tool.self_us", "us"),
    lower("core.tool.pb_messages", "count"),
    lower("core.tool.pb_wire_bytes", "B"),
    lower("core.scheduler.replays", "count"),
    lower("core.scheduler.divergences", "count"),
    lower("core.scheduler.retries", "count"),
    lower("core.scheduler.replay_p50_us", "us"),
    lower("core.scheduler.replay_tail_us", "us"),
    higher("core.scheduler.replays_per_s", "1/s"),
    lower("core.scheduler.self_us_per_commit", "us"),
    higher("core.scheduler.parallelism_x", "x"),
    higher("core.scheduler.speculation_useful", "ratio"),
    lower("core.cache.hit_us", "us"),
    higher("core.cache.hits", "count"),
    lower("core.cache.misses", "count"),
    lower("core.cache.bytes", "B"),
    lower("core.journal.commit_us", "us"),
    lower("core.journal.save_us", "us"),
    lower("core.journal.load_us", "us"),
    lower("core.journal.bytes", "B"),
    lower("core.shard.frame_roundtrip_us", "us"),
    lower("analysis.plan_s", "s"),
    higher("analysis.facts", "count"),
    higher("analysis.alternates_pruned", "count"),
    lower("isp.run_us", "us"),
    lower("isp.replays", "count"),
    lower("fuzz.gen_us", "us"),
    lower("fuzz.seed_s_p50", "s"),
    lower("fuzz.seed_s_max", "s"),
    lower("dampi_vt_slowdown_x", "x"),
    lower("isp_vt_slowdown_x", "x"),
    lower("trace.traced_pass_s", "s"),
    lower("trace.untraced_pass_s", "s"),
    lower("trace.overhead_pct", "%"),
    lower("warmup_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for m in metrics {
            assert!(name_ok(m.name), "metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "workload name {name:?}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
        }
        // The driver wants set-up to have the largest bound.
        let setup = END_TO_END[0];
        assert_eq!(setup.0.name, "setup_s");
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= setup.1));
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} in {v:?}"))
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let manifest: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| {
            manifest
                .get(key)
                .and_then(Value::as_array)
                .expect(key)
                .clone()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(str_of(w, "name"), name);
            assert_eq!(str_of(w, "why"), why);
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, (m, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(bound));
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
        }

        let paths = list("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
