//! What the benchmark runs and what it reports: the four workloads and the
//! two metric tables. `BENCHMARK.json` at the repository root repeats these
//! tables for the driver; a test keeps the two in step.

use qd_core::rfs::RfsConfig;
use qd_corpus::CorpusConfig;

/// The database is a fixture, not an input: every run of a workload indexes
/// the same images, and `--seed` generates only the traffic against them.
/// A per-seed database would fold tree-shape variance into every timing and
/// pay the image synthesis on every run.
pub const CORPUS_SEED: u64 = 42;

/// Seed of the id → shard hash of the sharded workload (part of the fixture).
pub const SHARD_SEED: u64 = 42;

/// Index builds per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 2;

/// Sessions the server steps concurrently; twice as many may wait.
pub const ACTIVE_SLOTS: usize = 8;

/// Neighbours asked of every root-scope k-NN probe.
pub const KNN_K: usize = 100;

/// Operations per measurement cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Whole sessions through `try_run_session` (≥ 1000, so p99 has ten
    /// samples beyond it).
    pub sessions: usize,
    /// Sessions stepped round by round through `FeedbackStepper`.
    pub stepped: usize,
    /// Root-scope k-NN probes.
    pub knn: usize,
    /// Multiple-Viewpoints baseline sessions.
    pub mv: usize,
    /// Tenants of each of the two serving plans (a multiple of 44, so the
    /// plans balance over 11 standard queries × 4 scenarios).
    pub tenants: usize,
}

/// One workload: a database, how it is deployed, and the traffic shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// The database.
    pub corpus: CorpusConfig,
    /// Index parameters.
    pub rfs: RfsConfig,
    /// 1 = one monolithic R*-tree; more = a `ShardSet` of that many trees.
    pub shards: usize,
    /// Feedback rounds per session: 3 decomposes the query into localized
    /// subqueries, 1 ends at the root display and runs one global k-NN.
    pub rounds: usize,
    /// Operations per cycle.
    pub mix: Mix,
}

const MIX: Mix = Mix {
    sessions: 1000,
    stepped: 100,
    knn: 200,
    mv: 8,
    tenants: 132,
};

fn paper_corpus() -> CorpusConfig {
    CorpusConfig::paper(CORPUS_SEED)
}

/// The four workloads, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper15k_qd",
            why: "The paper's configuration (15 000 images, one R*-tree, 3-round sessions): \
                  leaf-scoped localized k-NN does most of the work and the index fits L2.",
            corpus: paper_corpus(),
            rfs: RfsConfig::paper(),
            shards: 1,
            rounds: 3,
            mix: MIX,
        },
        Workload {
            name: "sweep30k_qd",
            why: "Same traffic on twice the data (30 000 images, larger than L2): the Figs. 10-11 \
                  scaling point, where memory traffic and R*-insert build cost dominate.",
            corpus: CorpusConfig {
                size: 30_000,
                image_size: 32,
                seed: CORPUS_SEED,
                filler_count: 121,
                with_viewpoints: true,
            },
            rfs: RfsConfig::paper(),
            shards: 1,
            rounds: 3,
            mix: Mix { tenants: 88, ..MIX },
        },
        Workload {
            name: "paper15k_global",
            why: "One-round sessions on the paper database: no decomposition, every query is a \
                  single root-scope k-NN, so decomposition and merge changes must not show here.",
            corpus: paper_corpus(),
            rfs: RfsConfig::paper(),
            shards: 1,
            rounds: 1,
            mix: MIX,
        },
        Workload {
            name: "shard15k_serve_churn",
            why: "The paper database over 4 shards: updates rebuild one shard, root-scope k-NN \
                  scatters and gathers, and the server swaps snapshots while serving.",
            corpus: paper_corpus(),
            rfs: RfsConfig::paper(),
            shards: 4,
            rounds: 3,
            mix: MIX,
        },
    ]
}

/// A 600-image stand-in for `workload` that runs in well under a second —
/// what the smoke test drives so an API drift fails `cargo test`.
#[cfg(test)]
pub fn tiny(workload: &Workload) -> Workload {
    let scale = qd_bench::BenchScale::Tiny;
    Workload {
        corpus: scale.corpus_config(CORPUS_SEED),
        rfs: scale.rfs_config(),
        mix: Mix {
            sessions: 60,
            stepped: 20,
            knn: 20,
            mv: 2,
            tenants: 88,
        },
        ..workload.clone()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("session_p50_us", "us", Lower, 0.25),
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("round_p50_us", "us", Lower, 0.15),
    e2e("precision_mean", "ratio", Higher, 0.05),
    e2e("gtir_mean", "ratio", Higher, 0.05),
    e2e("mv_session_p50_us", "us", Lower, 0.25),
    e2e("global_knn_p50_us", "us", Lower, 0.25),
    e2e("update_p50_ms", "ms", Lower, 0.25),
    e2e("serve_answered_per_s", "1/s", Higher, 0.25),
    e2e("serve_overload_per_s", "1/s", Higher, 0.25),
    e2e("shed_fraction", "ratio", Lower, 0.20),
    e2e("index_bytes_per_image", "B", Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// What the traced run attributes to single layers. No bounds.
pub const PER_LAYER: &[Metric] = &[
    layer("qd-linalg.sqdist37_ns", "ns", Lower),
    layer("qd-linalg.euclid37_ns", "ns", Lower),
    layer("qd-linalg.scan_us", "us", Lower),
    layer("qd-linalg.kernel_us", "us", Lower),
    layer("qd-index.knn_leaf_us", "us", Lower),
    layer("qd-index.knn_leaf_dist", "count", Lower),
    layer("qd-index.knn_leaf_accesses", "count", Lower),
    layer("qd-index.knn_pruned_fraction", "ratio", Higher),
    layer("qd-index.knn_root_us", "us", Lower),
    layer("qd-index.knn_root_dist", "count", Lower),
    layer("qd-index.knn_root_vs_scan", "ratio", Lower),
    layer("qd-index.knn_budget256_us", "us", Lower),
    layer("calib.ns_per_distance", "ns", Lower),
    layer("calib.ns_per_node_access", "ns", Lower),
    layer("calib.residual_pct", "%", Lower),
    layer("qd-index.insert_us", "us", Lower),
    layer("qd-index.bulk_load_s", "s", Lower),
    layer("qd-index.encode_ms", "ms", Lower),
    layer("qd-index.decode_ms", "ms", Lower),
    layer("qd-index.nodes", "count", Lower),
    layer("qd-index.height", "count", Lower),
    layer("qd-cluster.kmeans_leaf_us", "us", Lower),
    layer("qd-core.rfs.select_reps_s", "s", Lower),
    layer("qd-core.rfs.refresh_ms", "ms", Lower),
    layer("qd-core.rfs.reps_total", "count", Lower),
    layer("qd-core.session.p99_us", "us", Lower),
    layer("qd-core.session.round1_us", "us", Lower),
    layer("qd-core.session.round_us", "us", Lower),
    layer("qd-core.session.displays_per_round", "count", Lower),
    layer("qd-core.session.final_us", "us", Lower),
    layer("qd-core.session.subqueries", "count", Lower),
    layer("qd-core.session.assemble_us", "us", Lower),
    layer("qd-core.session.fanout_self_us", "us", Lower),
    layer("qd-core.localknn.query_us", "us", Lower),
    layer("qd-core.localknn.self_us", "us", Lower),
    layer("qd-core.localknn.expanded_fraction", "ratio", Lower),
    layer("qd-core.ranking.merge_us", "us", Lower),
    layer("qd-runtime.par_map4_us_t1", "us", Lower),
    layer("qd-runtime.par_map4_us_tn", "us", Lower),
    layer("qd-runtime.session_p50_us_tn", "us", Lower),
    layer("qd-obs.recorder_overhead_pct", "%", Lower),
    layer("deploy.build_s", "s", Lower),
    layer("deploy.mutate_ms", "ms", Lower),
    layer("deploy.publish_us", "us", Lower),
    layer("deploy.shards", "count", Lower),
    layer("deploy.skew", "ratio", Lower),
    layer("qd-serve.plan_ms", "ms", Lower),
    layer("qd-serve.ticks", "count", Lower),
    layer("qd-serve.tick_mean_us", "us", Lower),
    layer("qd-serve.truncated", "count", Lower),
    layer("qd-serve.degraded", "count", Lower),
    layer("qd-serve.overhead_pct", "%", Lower),
    layer("qd-corpus.synth_ms", "ms", Lower),
    layer("qd-corpus.load_ms", "ms", Lower),
    layer("qd-features.extract_us", "us", Lower),
    layer("qd-imagery.render_us", "us", Lower),
    layer("trace.session_us", "us", Lower),
    layer("trace.attributed_pct", "%", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// The declared metric called `name`, from either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::stats::{tail_percentile, P99};

    fn legal(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal(m.name, "_.-", 64), "bad name {}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(legal(m.unit, "_/%.-", 16), "bad unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
            // Set-up time is the noisiest single measurement: largest bound.
            assert!(bound <= END_TO_END[0].bound.unwrap_or(0.0));
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in workloads() {
            assert!(legal(w.name, "_.-", 64) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(tail_percentile(w.mix.sessions), P99, "{}", w.name);
        }
    }

    fn rows<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no array `{key}`"),
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program emits. They must not drift apart.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).map(str::to_owned);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = rows(&doc, key);
            assert_eq!(declared.len(), table.len(), "{key} length");
            for (row, m) in declared.iter().zip(table) {
                assert_eq!(field(row, "name").as_deref(), Some(m.name));
                assert_eq!(field(row, "unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field(row, "better").as_deref(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    row.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let declared = rows(&doc, "workloads");
        let ours = workloads();
        assert_eq!(declared.len(), ours.len());
        for (row, w) in declared.iter().zip(&ours) {
            assert_eq!(field(row, "name").as_deref(), Some(w.name));
            assert_eq!(field(row, "why").as_deref(), Some(w.why));
        }
        let paths = rows(&doc, "paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/qd-bench/src/bin/perf"));
    }
}
