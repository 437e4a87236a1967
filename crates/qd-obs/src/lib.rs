#![warn(missing_docs)]

//! Deterministic observability: named counters and hierarchical spans for
//! the Query Decomposition engine (DESIGN.md §10).
//!
//! The paper reports retrieval cost in hardware-independent units — node
//! reads and distance computations (§5.2.2, Figures 12–14) — and so does
//! this crate: a [`with_recorder`] scope collects a [`Trace`] (a counter
//! map plus a span tree) whose bytes depend only on the work performed,
//! never on wall-clock time, scheduling order, or `QD_THREADS`.
//!
//! The design mirrors the `qd-fault` thread-local plan pattern:
//!
//! - State is **thread-local**. [`with_recorder`] installs a fresh recorder
//!   on the current thread, runs a closure, and returns its trace;
//!   instrumented code calls [`count`] and [`span`] unconditionally.
//! - **Zero cost when disabled**: with no recorder installed every hook is
//!   a single thread-local check. Instrumentation must never perturb
//!   results — that contract is pinned by the overhead-guard golden test.
//! - **Deterministic across threads**: a parallel executor captures the
//!   caller's [`current`] handle once, wraps each task in [`observe_task`]
//!   (which installs a *fresh* recorder per task, so workers never contend
//!   on shared state), and [`absorb`]s the per-task traces back into the
//!   caller **in input order** after the join. The merged trace is
//!   byte-identical to the one a sequential run records directly.
//!
//! Counter, span, and histogram names are [`Name`] constants in [`ctr`],
//! [`sp`], and [`hist`]. Only this crate can make a `Name`, so every name the
//! engine records is listed in a catalog.
//!
//! Beyond counters and spans the recorder collects [`Hist`]ograms
//! (per-query / per-round / per-subquery cost distributions, fed by
//! [`observe`]) and a [`Trace`] can be folded into a flame-style profile
//! table ([`Trace::profile`]) of inclusive/self counter cost per span name.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A counter, span, or histogram name: a constant of the [`ctr`], [`sp`],
/// or [`hist`] catalog.
///
/// The field is private, so no other crate can make one, and a string
/// literal does not compile where a hook takes a name:
///
/// ```
/// qd_obs::count(qd_obs::ctr::KNN_DISTANCE, 1);
/// ```
///
/// ```compile_fail
/// qd_obs::count("knn.ad_hoc", 1);
/// ```
///
/// ```compile_fail
/// use qd_obs::count;
/// count("knn.ad_hoc", 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(&'static str);

impl Name {
    /// The dotted name, as traces and reports print it.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.0)
    }
}

/// The counter catalog: every named counter the engine increments.
pub mod ctr {
    use super::Name;

    /// RFS nodes whose representatives were displayed during feedback.
    pub const SESSION_NODES_VISITED: &Name = &Name("session.nodes_visited");
    /// Representative displays generated across feedback rounds.
    pub const SESSION_DISPLAYS: &Name = &Name("session.displays_generated");
    /// User relevance marks consumed across feedback rounds.
    pub const SESSION_MARKS: &Name = &Name("session.marks_consumed");
    /// Distance evaluations performed by localized k-NN (the anytime
    /// budget's cost unit; `Degradation.budget_spent` derives from this).
    pub const KNN_DISTANCE: &Name = &Name("knn.distance_computations");
    /// Index frontier expansions (node reads) performed by localized k-NN.
    pub const KNN_FRONTIER: &Name = &Name("knn.frontier_expansions");
    /// Boundary-ratio scope escalations from a home node toward the root.
    pub const KNN_ESCALATIONS: &Name = &Name("knn.scope_escalations");
    /// Frontier nodes (or weighted-scan items) skipped by budget exhaustion.
    pub const KNN_NODES_SKIPPED: &Name = &Name("knn.nodes_skipped");
    /// Localized k-NN runs whose distance budget ran dry.
    pub const KNN_BUDGET_EXHAUSTED: &Name = &Name("knn.budget_exhaustions");
    /// Nodes created while building the RFS structure.
    pub const RFS_NODES_CREATED: &Name = &Name("rfs.nodes_created");
    /// k-means iterations spent selecting representatives.
    pub const RFS_KMEANS_ITERATIONS: &Name = &Name("rfs.kmeans_iterations");
    /// Nodes whose representative set was selected.
    pub const RFS_SELECTIONS: &Name = &Name("rfs.representative_selections");
    /// Candidate scorings performed by the baseline retrievers
    /// (MV/QPM/MPQ/Qcluster all retrieve through the same full scan).
    pub const BASELINE_DISTANCE: &Name = &Name("baseline.distance_computations");
    /// Client submissions retried after a transport fault or rejection.
    pub const CLIENT_RETRIES: &Name = &Name("client.retries");
    /// Exponential-backoff units accumulated across client retries.
    pub const CLIENT_BACKOFF_UNITS: &Name = &Name("client.backoff_units");
    /// Sessions the supervisor admitted (activated or queued).
    pub const SERVE_ADMITTED: &Name = &Name("serve.sessions_admitted");
    /// Sessions shed by admission control (table and queue full, or the
    /// admission failpoint fired).
    pub const SERVE_SHED: &Name = &Name("serve.sessions_shed");
    /// Sessions evicted mid-flight (poisoned by a panic, force-evicted by
    /// the eviction failpoint, or stalled past the tick limit).
    pub const SERVE_EVICTED: &Name = &Name("serve.sessions_evicted");
    /// Scheduler steps executed (one per session turn).
    pub const SERVE_STEPS: &Name = &Name("serve.scheduler_steps");
    /// Sessions whose feedback phase was truncated by a deadline.
    pub const SERVE_TRUNCATIONS: &Name = &Name("serve.deadline_truncations");
    /// Snapshot swaps the supervisor applied mid-run (new shard-set
    /// generations picked up by subsequently promoted sessions).
    pub const SERVE_SWAPS: &Name = &Name("serve.snapshot_swaps");
    /// Scatter legs fanned out across shards by sharded localized k-NN.
    pub const SHARD_LEGS: &Name = &Name("shard.scatter_legs");
    /// Scatter legs dropped (panicked worker or merge-time refusal); their
    /// spent work is still charged to the query's budget accounting.
    pub const SHARD_LEGS_DROPPED: &Name = &Name("shard.legs_dropped");
    /// Shard-set snapshots successfully published.
    pub const SHARD_PUBLISHES: &Name = &Name("shard.snapshots_published");
    /// RFS nodes whose representative set was re-selected by an incremental
    /// refresh (insert/delete touched their pool).
    pub const RFS_REFRESHED: &Name = &Name("rfs.representatives_refreshed");

    /// Every counter with a one-line description, for CLI/report listings.
    pub const COUNTERS: &[(&Name, &str)] = &[
        (
            SESSION_NODES_VISITED,
            "RFS nodes whose representatives were displayed",
        ),
        (SESSION_DISPLAYS, "representative displays generated"),
        (SESSION_MARKS, "user relevance marks consumed"),
        (KNN_DISTANCE, "localized k-NN distance evaluations"),
        (
            KNN_FRONTIER,
            "localized k-NN frontier expansions (node reads)",
        ),
        (KNN_ESCALATIONS, "boundary-ratio scope escalations"),
        (
            KNN_NODES_SKIPPED,
            "frontier nodes skipped on budget exhaustion",
        ),
        (
            KNN_BUDGET_EXHAUSTED,
            "k-NN runs that exhausted their budget",
        ),
        (RFS_NODES_CREATED, "RFS nodes created at build time"),
        (RFS_KMEANS_ITERATIONS, "k-means iterations during build"),
        (RFS_SELECTIONS, "representative sets selected"),
        (BASELINE_DISTANCE, "baseline candidate scorings"),
        (CLIENT_RETRIES, "client submissions retried"),
        (CLIENT_BACKOFF_UNITS, "client backoff units accumulated"),
        (SERVE_ADMITTED, "sessions admitted by the supervisor"),
        (SERVE_SHED, "sessions shed by admission control"),
        (SERVE_EVICTED, "sessions evicted mid-flight"),
        (SERVE_STEPS, "scheduler steps executed"),
        (SERVE_TRUNCATIONS, "sessions truncated by a deadline"),
        (SERVE_SWAPS, "snapshot swaps applied mid-run"),
        (SHARD_LEGS, "scatter legs fanned out across shards"),
        (SHARD_LEGS_DROPPED, "scatter legs dropped from the gather"),
        (SHARD_PUBLISHES, "shard-set snapshots published"),
        (RFS_REFRESHED, "representative sets incrementally refreshed"),
    ];
}

/// The span catalog: every named region of the span tree.
pub mod sp {
    use super::Name;

    /// One feedback round (indexed by 1-based round number).
    pub const ROUND: &Name = &Name("session.round");
    /// The final localized k-NN fan-out and merge.
    pub const SESSION_FINAL: &Name = &Name("session.final");
    /// One localized subquery (indexed by subquery position).
    pub const SUBQUERY: &Name = &Name("session.subquery");
    /// RFS structure construction.
    pub const RFS_BUILD: &Name = &Name("rfs.build");
    /// One RFS level's representative selection (indexed by level).
    pub const RFS_LEVEL: &Name = &Name("rfs.level");
    /// One MV viewpoint channel's retrieval (indexed by channel).
    pub const MV_VIEWPOINT: &Name = &Name("mv.viewpoint");
    /// One benchmark query's full session (indexed by query position).
    pub const BENCH_QUERY: &Name = &Name("bench.query");

    /// One baseline technique's full feedback session.
    pub const BASELINE_RUN: &Name = &Name("baseline.run");
    /// One complete multi-tenant serving run (arrivals through drain).
    pub const SERVE_RUN: &Name = &Name("serve.run");
    /// One scheduler tick that stepped at least one session (indexed by
    /// tick number).
    pub const SERVE_TICK: &Name = &Name("serve.tick");
    /// One shard's RFS construction during a sharded build (indexed by
    /// shard).
    pub const SHARD_BUILD: &Name = &Name("shard.build");
    /// One shard's scatter leg of a sharded localized k-NN (indexed by
    /// shard).
    pub const SHARD_LEG: &Name = &Name("shard.leg");

    /// Every span with a one-line description, for CLI/report listings.
    pub const SPANS: &[(&Name, &str)] = &[
        (ROUND, "one feedback round"),
        (SESSION_FINAL, "final localized k-NN fan-out and merge"),
        (SUBQUERY, "one localized subquery"),
        (RFS_BUILD, "RFS structure construction"),
        (RFS_LEVEL, "one RFS level's representative selection"),
        (MV_VIEWPOINT, "one MV viewpoint channel retrieval"),
        (BENCH_QUERY, "one benchmark query session"),
        (BASELINE_RUN, "one baseline technique feedback session"),
        (SERVE_RUN, "one multi-tenant serving run"),
        (SERVE_TICK, "one scheduler tick with session steps"),
        (SHARD_BUILD, "one shard's RFS construction"),
        (SHARD_LEG, "one shard's scatter leg"),
    ];
}

/// The histogram catalog: every named distribution the engine observes.
///
/// Counters answer "how much total work"; histograms answer "how is that
/// work distributed per query, per round, per subquery" — which is what
/// makes the paper's linear-scaling claims (Figs. 10–13) testable as
/// distribution assertions rather than aggregate totals.
pub mod hist {
    use super::Name;

    /// Distance computations spent by one QD session (one observation per
    /// query).
    pub const QD_QUERY_DISTANCES: &Name = &Name("qd.query.distance_computations");
    /// Index node reads performed by one QD session: feedback displays plus
    /// localized k-NN frontier reads (one observation per query).
    pub const QD_QUERY_NODE_ACCESSES: &Name = &Name("qd.query.node_accesses");
    /// Distance computations spent by one localized subquery (one
    /// observation per subquery; compares decomposition policies).
    pub const QD_SUBQUERY_DISTANCES: &Name = &Name("qd.subquery.distance_computations");
    /// Representative displays generated in one feedback round — the
    /// deterministic per-round display-latency proxy (one observation per
    /// round).
    pub const QD_ROUND_DISPLAYS: &Name = &Name("qd.round.display_cost");
    /// Candidate scorings spent by one baseline session (one observation
    /// per query).
    pub const BASELINE_QUERY_DISTANCES: &Name = &Name("baseline.query.distance_computations");
    /// Record reads performed by one baseline session. Baselines retrieve
    /// by full sequential scans, so every candidate scoring is exactly one
    /// record read — this equals the distance count by construction, kept
    /// as its own distribution so QD-vs-baseline node-access comparisons
    /// stay symmetric.
    pub const BASELINE_QUERY_NODE_ACCESSES: &Name = &Name("baseline.query.node_accesses");
    /// Scheduler ticks from a session's arrival to its terminal state (one
    /// observation per admitted session) — the deterministic latency proxy
    /// of the serving layer: queue wait plus one tick per scheduler turn.
    pub const SERVE_LATENCY_TICKS: &Name = &Name("serve.session.latency_ticks");
    /// Deterministic cost units (representative displays plus distance
    /// computations) one session spent before terminating (one observation
    /// per admitted session).
    pub const SERVE_COST_UNITS: &Name = &Name("serve.session.cost_units");
    /// Sessions stepped in one scheduler tick (one observation per active
    /// tick) — the serving throughput distribution.
    pub const SERVE_TICK_STEPS: &Name = &Name("serve.tick.sessions_stepped");
    /// Distance computations spent by one shard's scatter leg (one
    /// observation per surviving leg) — the shard load-balance
    /// distribution of the largest-remainder budget split.
    pub const SHARD_LEG_DISTANCES: &Name = &Name("shard.leg.distance_computations");

    /// Every histogram with a one-line description, for CLI/report listings.
    pub const HISTS: &[(&Name, &str)] = &[
        (QD_QUERY_DISTANCES, "per-query QD distance computations"),
        (QD_QUERY_NODE_ACCESSES, "per-query QD index node reads"),
        (QD_SUBQUERY_DISTANCES, "per-subquery distance computations"),
        (QD_ROUND_DISPLAYS, "per-round representative displays"),
        (
            BASELINE_QUERY_DISTANCES,
            "per-query baseline candidate scorings",
        ),
        (
            BASELINE_QUERY_NODE_ACCESSES,
            "per-query baseline record reads",
        ),
        (SERVE_LATENCY_TICKS, "per-session serving latency in ticks"),
        (SERVE_COST_UNITS, "per-session deterministic cost units"),
        (SERVE_TICK_STEPS, "sessions stepped per scheduler tick"),
        (SHARD_LEG_DISTANCES, "per-leg shard distance computations"),
    ];
}

/// A deterministic histogram: the recorded observation multiset plus a
/// fixed log2 bucket view.
///
/// Observations are kept verbatim in recording order — that is what makes
/// the *exact* p50/p90/p99/max extraction possible (log2 buckets alone can
/// only bound a quantile) and what keeps merged traces byte-identical: the
/// executor absorbs per-task histograms in input order, so a parallel run
/// appends the same values in the same order as a sequential one. The
/// multiset is bounded by the observation count (one entry per query,
/// round, or subquery — never per counted event), so retention is cheap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    values: Vec<u64>,
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.values.push(value);
    }

    /// Appends another histogram's observations in their recorded order
    /// (the executor merges per-task histograms in input order).
    pub fn merge(&mut self, other: &Hist) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.values.iter().fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.values.iter().copied().min().unwrap_or(0)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// The recorded observations, in recording order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Exact nearest-rank percentile: the smallest recorded value such that
    /// at least `p`% of observations are ≤ it. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// Exact median (nearest-rank).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Exact 90th percentile (nearest-rank).
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// Exact 99th percentile (nearest-rank).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// The fixed log2 bucket view: `(upper_bound, count)` pairs, ascending,
    /// non-empty buckets only. Bucket 0 holds exactly the value 0; bucket
    /// `i ≥ 1` holds `[2^(i-1), 2^i - 1]`, so `upper_bound` is `2^i - 1`
    /// (saturating to `u64::MAX` for the top bucket).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &v in &self.values {
            *counts.entry(bucket_upper(v)).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// One-line summary used by [`Trace::render`]: exact quantiles followed
    /// by the log2 bucket counts.
    fn render_line(&self) -> String {
        let mut s = format!(
            "n={} p50={} p90={} p99={} max={} |",
            self.count(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max()
        );
        for (upper, count) in self.buckets() {
            if upper == 0 {
                let _ = write!(s, " 0:{count}");
            } else {
                let _ = write!(s, " le_{upper}:{count}");
            }
        }
        s
    }
}

/// The inclusive upper bound of the log2 bucket holding `value`.
fn bucket_upper(value: u64) -> u64 {
    if value == 0 {
        return 0;
    }
    let bits = u64::BITS - value.leading_zeros();
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// One node of the span tree: a named (optionally indexed) region with the
/// counters recorded directly inside it and its child spans in execution
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name: a [`sp`] constant, `root` for a recorder's root span.
    pub name: Name,
    /// Optional stable index (round number, subquery position, …).
    pub index: Option<u64>,
    /// Counter deltas recorded while this span was innermost.
    pub counters: BTreeMap<Name, u64>,
    /// Child spans, in the order they closed.
    pub children: Vec<Span>,
}

/// An unnamed, empty span (the root of an empty [`Trace`]).
impl Default for Span {
    fn default() -> Self {
        Span::new(Name(""), None)
    }
}

impl Span {
    fn new(name: Name, index: Option<u64>) -> Self {
        Span {
            name,
            index,
            counters: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// The subtree-inclusive counter sum: this span's own counters plus
    /// every descendant's.
    pub fn inclusive_counters(&self) -> BTreeMap<Name, u64> {
        let mut total = self.counters.clone();
        for child in &self.children {
            for (name, value) in child.inclusive_counters() {
                *total.entry(name).or_default() += value;
            }
        }
        total
    }

    /// Depth-first search for descendants (including `self`) named `name`.
    pub fn find_all<'a>(&'a self, name: &Name, out: &mut Vec<&'a Span>) {
        if self.name == *name {
            out.push(self);
        }
        for child in &self.children {
            child.find_all(name, out);
        }
    }

    fn render_into(&self, s: &mut String, depth: usize) {
        for _ in 0..depth {
            s.push_str("  ");
        }
        s.push_str(self.name.as_str());
        if let Some(i) = self.index {
            let _ = write!(s, "#{i}");
        }
        if !self.counters.is_empty() {
            s.push_str(" [");
            for (i, (name, value)) in self.counters.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{name}={value}");
            }
            s.push(']');
        }
        s.push('\n');
        for child in &self.children {
            child.render_into(s, depth + 1);
        }
    }
}

/// Everything one [`with_recorder`] scope observed: the totals ledger and
/// the span tree. Two traces of the same work are `==` and render to the
/// same bytes regardless of thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Total per-counter sums over the whole scope. Always equal to
    /// `root.inclusive_counters()`.
    pub counters: BTreeMap<Name, u64>,
    /// Named observation distributions recorded via [`observe`].
    pub hists: BTreeMap<Name, Hist>,
    /// The hierarchical span tree (the root span is the scope itself).
    pub root: Span,
}

impl Trace {
    /// Deterministic pretty-printer: the counter ledger, the histogram
    /// summaries (omitted when nothing was observed), then the indented
    /// span tree (what `qd trace` prints).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("counters:\n");
        for (name, value) in &self.counters {
            let _ = writeln!(s, "  {name} = {value}");
        }
        if !self.hists.is_empty() {
            s.push_str("hists:\n");
            for (name, hist) in &self.hists {
                let _ = writeln!(s, "  {name}: {}", hist.render_line());
            }
        }
        s.push_str("spans:\n");
        self.root.render_into(&mut s, 1);
        s
    }

    /// All spans named `name`, depth-first.
    pub fn spans_named(&self, name: &Name) -> Vec<&Span> {
        let mut out = Vec::new();
        self.root.find_all(name, &mut out);
        out
    }

    /// Folds the span tree into a flame-style profile: one row per span
    /// name, aggregating call count, self counter cost (counters recorded
    /// while a span of that name was innermost), and inclusive counter cost
    /// (the span's whole subtree). Rows are sorted by span name.
    ///
    /// Standard flame-table semantics apply: when same-name spans nest,
    /// `calls` counts both while the shared descendants' cost lands in the
    /// name's inclusive column once per enclosing ancestor — `self` columns
    /// always sum to the trace totals, inclusive columns need not.
    pub fn profile(&self) -> Vec<ProfileRow> {
        fn walk(span: &Span, rows: &mut BTreeMap<Name, ProfileRow>) {
            let row = rows.entry(span.name).or_insert_with(|| ProfileRow {
                name: span.name,
                calls: 0,
                self_counters: BTreeMap::new(),
                inclusive_counters: BTreeMap::new(),
            });
            row.calls += 1;
            for (&name, value) in &span.counters {
                *row.self_counters.entry(name).or_default() += value;
            }
            for (name, value) in span.inclusive_counters() {
                *row.inclusive_counters.entry(name).or_default() += value;
            }
            for child in &span.children {
                walk(child, rows);
            }
        }
        let mut rows = BTreeMap::new();
        walk(&self.root, &mut rows);
        rows.into_values().collect()
    }
}

/// One row of the flame-style profile table: every span sharing a name,
/// aggregated (see [`Trace::profile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name (see [`Span::name`]).
    pub name: Name,
    /// How many spans with this name closed in the trace.
    pub calls: u64,
    /// Counters recorded while a span of this name was innermost.
    pub self_counters: BTreeMap<Name, u64>,
    /// Subtree-inclusive counter sums over all spans of this name.
    pub inclusive_counters: BTreeMap<Name, u64>,
}

/// Renders profile rows as an aligned text table, one line per
/// `(span, counter)` pair: `span  calls  counter  self  inclusive`. The
/// span/calls cells appear on the name's first line only. Counter-free
/// spans render a single `-` line so every span name stays visible.
/// Deterministic: CI byte-diffs this table across runs and thread counts.
pub fn render_profile(rows: &[ProfileRow]) -> String {
    let header = ["span", "calls", "counter", "self", "inclusive"];
    let mut cells: Vec<[String; 5]> = Vec::new();
    for row in rows {
        let mut first = true;
        let label = |first: &mut bool| {
            if *first {
                *first = false;
                (row.name.to_string(), row.calls.to_string())
            } else {
                (String::new(), String::new())
            }
        };
        if row.inclusive_counters.is_empty() {
            let (name, calls) = label(&mut first);
            cells.push([
                name,
                calls,
                "-".to_string(),
                "0".to_string(),
                "0".to_string(),
            ]);
        }
        for (counter, inclusive) in &row.inclusive_counters {
            let own = row.self_counters.get(counter).copied().unwrap_or(0);
            let (name, calls) = label(&mut first);
            cells.push([
                name,
                calls,
                counter.to_string(),
                own.to_string(),
                inclusive.to_string(),
            ]);
        }
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, row: &[String]| {
        let text = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "{}", text.trim_end());
    };
    line(&mut out, &header.map(String::from));
    for row in &cells {
        line(&mut out, row);
    }
    out
}

/// The live recorder: a totals ledger plus the stack of open spans
/// (`stack[0]` is the scope's root span and is never popped).
struct RecorderState {
    totals: BTreeMap<Name, u64>,
    hists: BTreeMap<Name, Hist>,
    stack: Vec<Span>,
}

impl RecorderState {
    fn new() -> Self {
        RecorderState {
            totals: BTreeMap::new(),
            hists: BTreeMap::new(),
            stack: vec![Span::new(Name("root"), None)],
        }
    }

    fn into_trace(mut self) -> Trace {
        // Fold any spans left open (an unwound caller) into their parents
        // so the trace stays a well-formed tree.
        while self.stack.len() > 1 {
            let open = match self.stack.pop() {
                Some(span) => span,
                None => break,
            };
            if let Some(parent) = self.stack.last_mut() {
                parent.children.push(open);
            }
        }
        let root = self.stack.pop().unwrap_or_default();
        Trace {
            counters: self.totals,
            hists: self.hists,
            root,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<RecorderState>> = const { RefCell::new(None) };
}

/// Restores the previously-installed recorder (possibly none) when a
/// [`with_recorder`] scope exits, even by panic.
struct Restore(Option<RecorderState>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// True when a recorder is installed on this thread — the single check
/// every disabled-path hook performs.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Installs a fresh recorder on this thread, runs `f`, and returns its
/// result together with the recorded [`Trace`]. Nests: an inner scope
/// shadows the outer recorder and restores it on exit (the inner trace is
/// *not* auto-absorbed — pass it to [`absorb`] if the outer scope should
/// see it). If `f` panics the previous recorder is restored and the
/// partial trace is discarded with the unwind.
pub fn with_recorder<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(RecorderState::new()));
    let restore = Restore(prev);
    let value = f();
    let state = CURRENT.with(|c| c.borrow_mut().take());
    drop(restore);
    let trace = state.map(RecorderState::into_trace).unwrap_or_default();
    (value, trace)
}

/// Adds `delta` to the named counter: once in the scope's totals ledger
/// and once in the innermost open span. No-op without a recorder.
pub fn count(name: &'static Name, delta: u64) {
    if delta == 0 {
        return;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(state) = cur.as_mut() else { return };
        *state.totals.entry(*name).or_default() += delta;
        if let Some(open) = state.stack.last_mut() {
            *open.counters.entry(*name).or_default() += delta;
        }
    });
}

/// Records one observation into the named histogram (a [`hist`] catalog
/// constant at every instrumented site). Unlike [`count`], a zero is
/// meaningful — "this round displayed nothing" is a data point — so zeros
/// are recorded. No-op without a recorder.
pub fn observe(name: &'static Name, value: u64) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(state) = cur.as_mut() else { return };
        state.hists.entry(*name).or_default().record(value);
    });
}

/// Pops the span this guard opened and appends it to its parent — on
/// normal exit *and* on unwind, so counts recorded before a caught panic
/// survive in the trace.
struct SpanGuard;

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let Some(state) = cur.as_mut() else { return };
            if state.stack.len() < 2 {
                return; // never pop the root span
            }
            if let Some(done) = state.stack.pop() {
                if let Some(parent) = state.stack.last_mut() {
                    parent.children.push(done);
                }
            }
        });
    }
}

fn span_inner<R>(name: &'static Name, index: Option<u64>, f: impl FnOnce() -> R) -> R {
    let pushed = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        match cur.as_mut() {
            Some(state) => {
                state.stack.push(Span::new(*name, index));
                true
            }
            None => false,
        }
    });
    if !pushed {
        return f();
    }
    let _guard = SpanGuard;
    f()
}

/// Runs `f` inside a named span. Without a recorder this is a plain call.
pub fn span<R>(name: &'static Name, f: impl FnOnce() -> R) -> R {
    span_inner(name, None, f)
}

/// Runs `f` inside a named span carrying a stable index (round number,
/// subquery position, …). Without a recorder this is a plain call.
pub fn span_indexed<R>(name: &'static Name, index: u64, f: impl FnOnce() -> R) -> R {
    span_inner(name, Some(index), f)
}

/// An opaque marker that a recorder was installed on the capturing thread.
/// Carried (not the state itself — workers never share it) across a
/// parallel fan-out so each task knows whether to observe itself.
#[derive(Debug, Clone, Copy)]
pub struct ObsHandle(());

/// The fan-out handle for the recorder installed on this thread, if any.
/// A parallel executor captures this once before spawning workers.
pub fn current() -> Option<ObsHandle> {
    enabled().then_some(ObsHandle(()))
}

/// Runs one fan-out task under a *fresh* recorder when the capturing
/// thread had one (`handle` is `Some`), returning the task's private
/// trace; otherwise runs `f` bare at zero cost. The executor passes the
/// returned traces to [`absorb`] on the calling thread **in input order**,
/// which makes the merged trace byte-identical to a sequential run.
pub fn observe_task<R>(handle: &Option<ObsHandle>, f: impl FnOnce() -> R) -> (R, Option<Trace>) {
    match handle {
        None => (f(), None),
        Some(_) => {
            let (value, trace) = with_recorder(f);
            (value, Some(trace))
        }
    }
}

/// Merges a task's trace into this thread's recorder: totals add into the
/// ledger, histogram observations append in their recorded order, the
/// task's root-level counters add into the innermost open span, and the
/// task's child spans graft on in order. No-op without a recorder.
pub fn absorb(trace: Trace) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(state) = cur.as_mut() else { return };
        for (name, value) in trace.counters {
            *state.totals.entry(name).or_default() += value;
        }
        for (name, hist) in trace.hists {
            state.hists.entry(name).or_default().merge(&hist);
        }
        if let Some(open) = state.stack.last_mut() {
            for (name, value) in trace.root.counters {
                *open.counters.entry(name).or_default() += value;
            }
            open.children.extend(trace.root.children);
        }
    });
}

/// Runs `f` inside a named span and returns the subtree-inclusive counter
/// sums it recorded. With a recorder installed this is exactly
/// [`span`]`(name, f)` plus a read of the closed span; without one, a
/// temporary recorder measures `f` invisibly. Either way the returned map
/// is identical — this is how serving code derives authoritative
/// accounting (e.g. `Degradation.budget_spent`) from the same counters
/// observability reports, at zero marginal cost per counted event.
pub fn measured<R>(name: &'static Name, f: impl FnOnce() -> R) -> (R, BTreeMap<Name, u64>) {
    if enabled() {
        let value = span_inner(name, None, f);
        let counters = CURRENT.with(|c| {
            let cur = c.borrow();
            cur.as_ref()
                .and_then(|state| state.stack.last())
                .and_then(|open| open.children.last())
                .map(Span::inclusive_counters)
                .unwrap_or_default()
        });
        (value, counters)
    } else {
        let (value, trace) = with_recorder(f);
        (value, trace.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_inert() {
        assert!(!enabled());
        assert!(current().is_none());
        count(&Name("x"), 5); // no recorder: silently dropped
        let v = span(&Name("s"), || 42);
        assert_eq!(v, 42);
        assert!(!enabled());
    }

    #[test]
    fn counters_land_in_totals_and_innermost_span() {
        let ((), trace) = with_recorder(|| {
            count(&Name("a"), 1);
            span(&Name("outer"), || {
                count(&Name("a"), 2);
                span_indexed(&Name("inner"), 7, || count(&Name("b"), 3));
            });
        });
        assert_eq!(trace.counters[&Name("a")], 3);
        assert_eq!(trace.counters[&Name("b")], 3);
        assert_eq!(trace.root.counters[&Name("a")], 1);
        let outer = &trace.root.children[0];
        assert_eq!(outer.name, Name("outer"));
        assert_eq!(outer.counters[&Name("a")], 2);
        let inner = &outer.children[0];
        assert_eq!(inner.index, Some(7));
        assert_eq!(inner.counters[&Name("b")], 3);
        // Totals always equal the root's inclusive sum.
        assert_eq!(trace.counters, trace.root.inclusive_counters());
    }

    #[test]
    fn zero_deltas_leave_no_entries() {
        let ((), trace) = with_recorder(|| count(&Name("a"), 0));
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn span_guard_survives_caught_panics() {
        let ((), trace) = with_recorder(|| {
            let caught = std::panic::catch_unwind(|| {
                span(&Name("doomed"), || {
                    count(&Name("pre"), 1);
                    panic!("boom");
                })
            });
            assert!(caught.is_err());
            count(&Name("post"), 1);
        });
        // The unwound span closed into the tree with its pre-panic counts.
        assert_eq!(trace.root.children[0].name, Name("doomed"));
        assert_eq!(trace.root.children[0].counters[&Name("pre")], 1);
        assert_eq!(trace.counters[&Name("pre")], 1);
        assert_eq!(trace.counters[&Name("post")], 1);
    }

    #[test]
    fn nested_recorders_shadow_and_restore() {
        let ((), outer) = with_recorder(|| {
            count(&Name("o"), 1);
            let ((), inner) = with_recorder(|| count(&Name("i"), 9));
            assert_eq!(inner.counters[&Name("i")], 9);
            assert!(!inner.counters.contains_key(&Name("o")));
            count(&Name("o"), 1);
        });
        assert_eq!(outer.counters[&Name("o")], 2);
        assert!(!outer.counters.contains_key(&Name("i")));
    }

    #[test]
    fn observe_and_absorb_match_direct_recording() {
        // Sequential reference: tasks record straight into the recorder.
        let work = |task: u64| {
            span_indexed(&Name("task"), task, || {
                count(&Name("work"), task + 1);
                observe(&Name("lat"), task * 10);
            })
        };
        let ((), direct) = with_recorder(|| {
            span(&Name("batch"), || (0..4).for_each(work));
        });

        // Fan-out shape: fresh recorder per task, absorbed in input order.
        let ((), merged) = with_recorder(|| {
            span(&Name("batch"), || {
                let handle = current();
                let traces: Vec<Trace> = (0..4)
                    .map(|t| observe_task(&handle, || work(t)).1.expect("observed"))
                    .collect();
                traces.into_iter().for_each(absorb);
            });
        });
        assert_eq!(direct, merged);
        assert_eq!(direct.render(), merged.render());
    }

    #[test]
    fn observe_task_without_handle_is_bare() {
        let (v, trace) = observe_task(&None, || 5);
        assert_eq!(v, 5);
        assert!(trace.is_none());
        assert!(!enabled());
    }

    #[test]
    fn measured_reports_identically_with_and_without_recorder() {
        let work = || {
            count(&Name("a"), 2);
            span(&Name("child"), || count(&Name("b"), 3));
        };
        let bare_counters = measured(&Name("m"), work).1;
        let (counters_inside, trace) = with_recorder(|| measured(&Name("m"), work).1);
        assert_eq!(bare_counters, counters_inside);
        assert_eq!(bare_counters[&Name("a")], 2);
        assert_eq!(bare_counters[&Name("b")], 3);
        // Under a recorder the measured span is part of the outer trace.
        assert_eq!(trace.root.children[0].name, Name("m"));
        assert_eq!(trace.counters[&Name("b")], 3);
    }

    #[test]
    fn render_is_stable_and_readable() {
        let ((), trace) = with_recorder(|| {
            count(&Name("z.total"), 1);
            span_indexed(&Name("phase"), 2, || {
                count(&Name("a.work"), 4);
            });
        });
        let text = trace.render();
        assert_eq!(
            text,
            "counters:\n  a.work = 4\n  z.total = 1\nspans:\n  root [z.total=1]\n    phase#2 [a.work=4]\n"
        );
    }

    #[test]
    fn spans_named_walks_the_tree() {
        let ((), trace) = with_recorder(|| {
            span(&Name("x"), || {
                span(&Name("y"), || span(&Name("x"), || count(&Name("c"), 1)))
            });
        });
        assert_eq!(trace.spans_named(&Name("x")).len(), 2);
        assert_eq!(trace.spans_named(&Name("y")).len(), 1);
        assert!(trace.spans_named(&Name("absent")).is_empty());
    }

    #[test]
    fn hist_records_and_extracts_exact_quantiles() {
        let mut h = Hist::new();
        assert_eq!((h.count(), h.min(), h.max(), h.p50()), (0, 0, 0, 0));
        for v in [5u64, 1, 9, 3, 7, 0, 2, 8, 6, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 45);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 9);
        // Nearest-rank over the exact multiset {0..9}: p50 is the 5th value.
        assert_eq!(h.p50(), 4);
        assert_eq!(h.p90(), 8);
        assert_eq!(h.p99(), 9);
        assert_eq!(h.percentile(100.0), 9);
    }

    #[test]
    fn hist_buckets_are_log2_with_exact_bounds() {
        let mut h = Hist::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(
            h.buckets(),
            vec![
                (0, 1),
                (1, 1),
                (3, 2),
                (7, 2),
                (15, 1),
                (2047, 1),
                (u64::MAX, 1)
            ]
        );
    }

    #[test]
    fn hist_merge_appends_in_input_order() {
        let mut a = Hist::new();
        a.record(1);
        a.record(2);
        let mut b = Hist::new();
        b.record(3);
        a.merge(&b);
        assert_eq!(a.values(), &[1, 2, 3]);
    }

    #[test]
    fn observe_lands_in_the_trace_and_keeps_zeros() {
        observe(&Name("dropped"), 7); // no recorder: silently dropped
        let ((), trace) = with_recorder(|| {
            observe(&Name("lat"), 4);
            observe(&Name("lat"), 0);
            span(&Name("phase"), || observe(&Name("other"), 2));
        });
        assert_eq!(trace.hists[&Name("lat")].values(), &[4, 0]);
        assert_eq!(trace.hists[&Name("other")].values(), &[2]);
        assert!(!trace.hists.contains_key(&Name("dropped")));
    }

    #[test]
    fn render_includes_hists_only_when_observed() {
        let ((), plain) = with_recorder(|| count(&Name("a"), 1));
        assert!(!plain.render().contains("hists:"));
        let ((), observed) = with_recorder(|| {
            observe(&Name("lat"), 3);
            observe(&Name("lat"), 5);
        });
        assert_eq!(
            observed.render(),
            "counters:\nhists:\n  lat: n=2 p50=3 p90=5 p99=5 max=5 | le_3:1 le_7:1\nspans:\n  root\n"
        );
    }

    #[test]
    fn empty_trace_is_wellformed() {
        let ((), trace) = with_recorder(|| {});
        assert!(trace.counters.is_empty());
        assert!(trace.hists.is_empty());
        assert_eq!(trace.root.name, Name("root"));
        assert!(trace.root.children.is_empty());
        assert_eq!(trace.render(), "counters:\nspans:\n  root\n");
        assert!(trace.spans_named(&Name("anything")).is_empty());
        // The profile of an empty trace is the bare root row.
        let profile = trace.profile();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].name, Name("root"));
        assert_eq!(profile[0].calls, 1);
        assert!(profile[0].inclusive_counters.is_empty());
    }

    #[test]
    fn nested_same_name_spans_are_each_found() {
        // find_all / spans_named must report a span that is its own
        // ancestor's namesake twice, and in depth-first order.
        let ((), trace) = with_recorder(|| {
            span_indexed(&Name("x"), 1, || {
                count(&Name("c"), 1);
                span(&Name("y"), || {
                    span_indexed(&Name("x"), 2, || count(&Name("c"), 2))
                });
            });
        });
        let xs = trace.spans_named(&Name("x"));
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].index, Some(1));
        assert_eq!(xs[1].index, Some(2));
        // The outer x's inclusive view counts the inner x's work exactly
        // once, even though both spans share a name.
        assert_eq!(xs[0].inclusive_counters()[&Name("c")], 3);
        assert_eq!(xs[1].inclusive_counters()[&Name("c")], 2);
    }

    #[test]
    fn inclusive_counters_count_each_descendant_once() {
        // Double-count guard: a diamond-shaped name layout (same counter at
        // several depths) sums to the ledger total, no more.
        let ((), trace) = with_recorder(|| {
            count(&Name("c"), 1);
            span(&Name("a"), || {
                count(&Name("c"), 2);
                span(&Name("b"), || count(&Name("c"), 4));
                span(&Name("b"), || count(&Name("c"), 8));
            });
        });
        assert_eq!(trace.root.inclusive_counters()[&Name("c")], 15);
        assert_eq!(trace.counters[&Name("c")], 15);
        let a = &trace.root.children[0];
        assert_eq!(a.inclusive_counters()[&Name("c")], 14);
    }

    #[test]
    fn span_guard_unwinds_inside_a_panicked_task() {
        // A fan-out task that panics mid-span: observe_task's recorder is
        // discarded with the unwind, but a surviving sibling's trace still
        // absorbs cleanly and the caller's stack is intact.
        let handle_holder = with_recorder(|| {
            let handle = current();
            let panicked = std::panic::catch_unwind(|| {
                observe_task(&handle, || {
                    span(&Name("doomed"), || {
                        count(&Name("pre"), 1);
                        observe(&Name("lat"), 9);
                        panic!("boom");
                    })
                })
            });
            assert!(panicked.is_err());
            let ((), survivor) = observe_task(&handle, || {
                span(&Name("ok"), || count(&Name("post"), 1));
            });
            absorb(survivor.expect("observed"));
        });
        let trace = handle_holder.1;
        // The panicked task's private recorder died with it; only the
        // survivor's span reached the merged trace.
        assert!(!trace.counters.contains_key(&Name("pre")));
        assert!(!trace.hists.contains_key(&Name("lat")));
        assert_eq!(trace.counters[&Name("post")], 1);
        assert_eq!(trace.root.children[0].name, Name("ok"));
    }

    #[test]
    fn profile_aggregates_calls_self_and_inclusive_cost() {
        let ((), trace) = with_recorder(|| {
            count(&Name("root.work"), 1);
            for i in 0..3 {
                span_indexed(&Name("phase"), i, || {
                    count(&Name("phase.work"), 2);
                    span(&Name("leaf"), || count(&Name("leaf.work"), 5));
                });
            }
        });
        let profile = trace.profile();
        let names: Vec<&str> = profile.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["leaf", "phase", "root"]);
        let phase = &profile[1];
        assert_eq!(phase.calls, 3);
        assert_eq!(phase.self_counters[&Name("phase.work")], 6);
        assert_eq!(phase.inclusive_counters[&Name("phase.work")], 6);
        assert_eq!(phase.inclusive_counters[&Name("leaf.work")], 15);
        assert!(!phase.self_counters.contains_key(&Name("leaf.work")));
        let root = &profile[2];
        assert_eq!(root.calls, 1);
        assert_eq!(root.inclusive_counters, trace.counters);
        // Self columns across all rows sum to the ledger.
        let mut self_total: BTreeMap<Name, u64> = BTreeMap::new();
        for row in &profile {
            for (name, value) in &row.self_counters {
                *self_total.entry(*name).or_default() += value;
            }
        }
        assert_eq!(self_total, trace.counters);
    }

    #[test]
    fn render_profile_is_aligned_and_stable() {
        let ((), trace) = with_recorder(|| {
            span(&Name("empty"), || ());
            span(&Name("phase"), || count(&Name("work.items"), 4));
        });
        let text = render_profile(&trace.profile());
        assert_eq!(
            text,
            "span   calls  counter     self  inclusive\n\
             empty  1      -           0     0\n\
             phase  1      work.items  4     4\n\
             root   1      work.items  0     4\n"
        );
        assert_eq!(text, render_profile(&trace.profile()));
    }

    #[test]
    fn catalogs_are_wellformed() {
        for catalog in [ctr::COUNTERS, sp::SPANS, hist::HISTS] {
            let mut names: Vec<&str> = catalog.iter().map(|(n, _)| n.as_str()).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), before, "duplicate catalog entry");
            for (name, desc) in catalog {
                assert!(!desc.is_empty());
                assert!(
                    name.as_str()
                        .chars()
                        .all(|ch| ch.is_ascii_lowercase() || ch == '.' || ch == '_'),
                    "bad name {name}"
                );
            }
        }
    }
}
