//! One function per paper artifact (tables, figures, §5.2.2 I/O claim), and
//! one driver for the studies: the DESIGN.md ablations and the Figures 10–11
//! size sweep are lists of arms that [`run_study`] runs over the eleven
//! standard queries. Each emits an aligned table to stdout and a CSV under
//! `bench_results/`; the ones that run QD sessions return the first
//! session's [`QdError`] instead, for `repro` to report.

use crate::fixtures::{bench_corpus, bench_rfs, BenchScale};
use crate::report::{f3, f3_opt, Table};
use qd_core::baselines::BaselineConfig;
use qd_core::eval::{self, Baseline, QualityRow};
use qd_core::metrics::{gtir, precision};
use qd_core::rfs::{RfsConfig, RfsStructure};
use qd_core::session::{try_run_session, MergeStrategy, QdConfig};
use qd_core::user::SimulatedUser;
use qd_core::QdError;
use qd_corpus::{queries, Corpus};
use qd_linalg::metric::euclidean;
use qd_linalg::vector::centroid;
use qd_linalg::Pca;
use std::sync::Arc;

/// Figure 1: PCA projection of the four "white sedan" pose clusters among
/// the rest of the database. Emits per-pose cluster statistics in the 3-D
/// PCA subspace plus a scatter CSV of all projected points.
pub fn fig1(scale: BenchScale, seed: u64) {
    let corpus = bench_corpus(scale, seed);
    let pca = Pca::fit(corpus.features(), 3);
    let projected = pca.project_all(corpus.features());

    let query = queries::white_sedan_query(corpus.taxonomy());
    let mut table = Table::new(
        "Figure 1: white-sedan pose clusters in the 3-D PCA subspace",
        &["pose", "images", "centroid (pc1, pc2, pc3)", "mean radius"],
    );
    let mut centroids: Vec<Vec<f32>> = Vec::new();
    for group in &query.groups {
        let ids = corpus.images_of(group.members[0]);
        let points: Vec<&[f32]> = ids.iter().map(|&id| projected[id].as_slice()).collect();
        let c = centroid(&points);
        let radius =
            points.iter().map(|p| euclidean(p, &c) as f64).sum::<f64>() / points.len() as f64;
        table.row(vec![
            group.name.clone(),
            ids.len().to_string(),
            format!("({:.2}, {:.2}, {:.2})", c[0], c[1], c[2]),
            format!("{radius:.3}"),
        ]);
        centroids.push(c);
    }
    table.emit("fig1_pose_clusters");

    // Pairwise pose separation — the "four distinct clusters" claim.
    let mut sep = Table::new(
        "Figure 1: pairwise pose-centroid distances (PCA space)",
        &["pose a", "pose b", "distance"],
    );
    for i in 0..centroids.len() {
        for j in (i + 1)..centroids.len() {
            sep.row(vec![
                query.groups[i].name.clone(),
                query.groups[j].name.clone(),
                format!("{:.3}", euclidean(&centroids[i], &centroids[j])),
            ]);
        }
    }
    sep.emit("fig1_pose_separation");

    // Scatter data: every sedan point plus a sample of the rest.
    let mut scatter = Table::new(
        "Figure 1: scatter points (sedan poses + background sample)",
        &["image", "label", "pc1", "pc2", "pc3"],
    );
    for (id, p) in projected.iter().enumerate() {
        let group = corpus.group_of(id, &query);
        let label = match group {
            Some(g) => query.groups[g].name.clone(),
            None if id % 23 == 0 => "other".to_string(), // sampled background
            None => continue,
        };
        scatter.row(vec![
            id.to_string(),
            label,
            format!("{:.4}", p[0]),
            format!("{:.4}", p[1]),
            format!("{:.4}", p[2]),
        ]);
    }
    println!(
        "[fig1 scatter: {} points, variance captured {:.1}%]\n",
        scatter.len(),
        pca.explained_variance_ratio() * 100.0
    );
    // The scatter is CSV-only (too long for stdout).
    std::fs::create_dir_all("bench_results").ok();
    std::fs::write("bench_results/fig1_scatter.csv", scatter.to_csv()).ok();
}

/// Table 1: per-query precision and GTIR, MV vs QD, over the eleven standard
/// queries.
pub fn table1(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    let corpus = bench_corpus(scale, seed);
    let rfs = bench_rfs(scale, seed);
    let rows = eval::run_table1(
        &corpus,
        &rfs,
        Baseline::MultipleViewpoints,
        &QdConfig::default(),
        &BaselineConfig::default(),
    )?;
    table1_table(&rows).emit("table1_quality");
    Ok(())
}

/// Table 1's layout: one row per query plus the "Average" row. `repro
/// table1` and the `BENCH_qd.json` report share it.
pub(crate) fn table1_table(rows: &[QualityRow]) -> Table {
    let mut table = Table::new(
        "Table 1: query evaluation, MV vs QD",
        &[
            "query",
            "MV precision",
            "MV GTIR",
            "QD precision",
            "QD GTIR",
        ],
    );
    for r in rows.iter().chain(std::iter::once(&eval::average_row(rows))) {
        table.row(vec![
            r.query.clone(),
            f3(r.baseline_precision),
            f3(r.baseline_gtir),
            f3(r.qd_precision),
            f3(r.qd_gtir),
        ]);
    }
    table
}

/// Table 2: per-round precision/GTIR averaged over the eleven queries.
pub fn table2(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    let corpus = bench_corpus(scale, seed);
    let rfs = bench_rfs(scale, seed);
    // A finite per-round inspection budget models the paper's 21-image
    // display pages (here: seven pages per display): first-round coverage is
    // partial and grows as the decomposition narrows the candidate lists —
    // Table 2's GTIR progression.
    let qd_cfg = QdConfig {
        user_patience: 7 * 21,
        ..QdConfig::default()
    };
    let baseline_cfg = BaselineConfig {
        user_patience: 7 * 21,
        ..BaselineConfig::default()
    };
    let rows = eval::run_table2(
        &corpus,
        &rfs,
        Baseline::MultipleViewpoints,
        &qd_cfg,
        &baseline_cfg,
    )?;
    let mut table = Table::new(
        "Table 2: quality per feedback round (averaged over 11 queries)",
        &[
            "round",
            "MV precision",
            "MV GTIR",
            "QD precision",
            "QD GTIR",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.round.to_string(),
            f3(r.baseline_precision),
            f3(r.baseline_gtir),
            f3_opt(r.qd_precision),
            f3(r.qd_gtir),
        ]);
    }
    table.emit("table2_rounds");
    Ok(())
}

/// Figures 4–9: qualitative top-k category listings, MV vs QD, for the three
/// computer queries ("portable computer" top-8, "personal computer" top-16,
/// "computer" top-24).
pub fn figs4to9(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    let corpus = bench_corpus(scale, seed);
    let rfs = bench_rfs(scale, seed);
    let specs = [
        ("laptop", 8usize, "Figures 4–5: top-8 'portable computer'"),
        (
            "personal computer",
            16,
            "Figures 6–7: top-16 'personal computer'",
        ),
        ("computer", 24, "Figures 8–9: top-24 'computer'"),
    ];
    for (name, k, title) in specs {
        let query = queries::standard_queries(corpus.taxonomy())
            .into_iter()
            .find(|q| q.name == name)
            .expect("standard query");
        let cmp = eval::run_topk_comparison(
            &corpus,
            &rfs,
            &query,
            k,
            Baseline::MultipleViewpoints,
            &QdConfig::default(),
            &BaselineConfig::default(),
        )?;
        let mut table = Table::new(title, &["rank", "MV category", "QD category"]);
        for i in 0..k {
            table.row(vec![
                (i + 1).to_string(),
                cmp.baseline
                    .get(i)
                    .map(|(_, n)| n.clone())
                    .unwrap_or_default(),
                cmp.qd.get(i).map(|(_, n)| n.clone()).unwrap_or_default(),
            ]);
        }
        let slug = format!("figs4to9_{}", name.replace(' ', "_"));
        table.emit(&slug);
        write_figure_html(&corpus, &cmp, &slug, title);

        // Distinct ground-truth subconcepts covered — the figures' point.
        let distinct = |items: &[(usize, String)]| {
            let mut groups: Vec<usize> = items
                .iter()
                .filter_map(|&(id, _)| corpus.group_of(id, &query))
                .collect();
            groups.sort_unstable();
            groups.dedup();
            groups.len()
        };
        println!(
            "[{name}: MV covers {}/{} subconcepts, QD covers {}/{}]\n",
            distinct(&cmp.baseline),
            query.groups.len(),
            distinct(&cmp.qd),
            query.groups.len()
        );
    }
    Ok(())
}

/// Writes the visual version of a Figures 4–9 panel: actual thumbnails of
/// the MV and QD top-k results, embedded as BMP `data:` URIs in a single
/// self-contained HTML file.
fn write_figure_html(
    corpus: &Corpus,
    cmp: &qd_core::eval::TopKComparison,
    slug: &str,
    title: &str,
) {
    use qd_imagery::io::data_uri;
    use std::fmt::Write as _;
    let mut html = String::new();
    let _ = write!(
        html,
        "<!doctype html><meta charset=\"utf-8\"><title>{title}</title>\
         <style>body{{font-family:sans-serif;background:#1c1c1c;color:#eee}}\
         figure{{display:inline-block;margin:4px;text-align:center}}\
         img{{width:96px;height:96px;image-rendering:pixelated;border:1px solid #555}}\
         figcaption{{font-size:11px;max-width:96px;overflow-wrap:break-word}}</style>\
         <h1>{title}</h1>"
    );
    for (label, items) in [
        ("Multiple Viewpoints", &cmp.baseline),
        ("Query Decomposition", &cmp.qd),
    ] {
        let _ = write!(html, "<h2>{label}</h2><div>");
        for (id, category) in items {
            let img = corpus.render_image(*id);
            let _ = write!(
                html,
                "<figure><img src=\"{}\" alt=\"{category}\"><figcaption>{category}</figcaption></figure>",
                data_uri(&img)
            );
        }
        let _ = write!(html, "</div>");
    }
    std::fs::create_dir_all("bench_results").ok();
    let path = format!("bench_results/{slug}.html");
    if std::fs::write(&path, html).is_ok() {
        println!("[wrote {path}]\n");
    }
}

/// Every technique's final results per standard query: the four baselines,
/// then QD. Each technique's queries fan out over the qd-runtime pool and
/// come back in query order.
type TechniqueResults = Vec<(&'static str, Vec<Vec<usize>>)>;

fn technique_results(scale: BenchScale, seed: u64) -> Result<TechniqueResults, QdError> {
    let corpus = bench_corpus(scale, seed);
    let rfs = bench_rfs(scale, seed);
    let qs = queries::standard_queries(corpus.taxonomy());
    let mut out: TechniqueResults = [
        Baseline::MultipleViewpoints,
        Baseline::QueryPointMovement,
        Baseline::MultipointQuery,
        Baseline::Qcluster,
    ]
    .map(|baseline| {
        let results = qd_runtime::par_map(&qs, |query| {
            let k = corpus.ground_truth(query).len();
            let mut user = SimulatedUser::oracle(query, seed);
            let cfg = BaselineConfig::default();
            baseline.run(&corpus, query, &mut user, k, &cfg).results
        });
        (baseline.name(), results)
    })
    .into();
    let qd = qd_runtime::par_map(&qs, |query| {
        let k = corpus.ground_truth(query).len();
        let mut user = SimulatedUser::oracle(query, seed);
        let cfg = QdConfig::default();
        Ok(try_run_session(&corpus, &rfs, query, &mut user, k, &cfg)?
            .into_outcome()
            .results)
    });
    out.push((
        "QD (this paper)",
        qd.into_iter().collect::<Result<_, QdError>>()?,
    ));
    Ok(out)
}

/// Precision@k curves (ours): retrieval quality as the result-list prefix
/// grows, QD vs every baseline, averaged over the 11 standard queries.
/// Single-neighborhood techniques front-load one cluster's images, so their
/// curves start high and sag as the prefix outgrows that cluster; QD's
/// grouped merge keeps the curve flat.
pub fn precision_at_k(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    let corpus = bench_corpus(scale, seed);
    let qs = queries::standard_queries(corpus.taxonomy());
    let mut table = Table::new(
        "Precision@k (k as a fraction of |ground truth|)",
        &["technique", "P@25%", "P@50%", "P@75%", "P@100%"],
    );
    for (name, per_query) in technique_results(scale, seed)? {
        let mut row = vec![name.to_string()];
        for f in [0.25f64, 0.5, 0.75, 1.0] {
            let sum: f64 = qs
                .iter()
                .zip(&per_query)
                .fold(0.0, |sum, (query, results)| {
                    let gt = corpus.ground_truth(query).len();
                    let cut = ((gt as f64 * f) as usize).clamp(1, results.len().max(1));
                    sum + precision(&corpus, query, &results[..cut.min(results.len())])
                });
            row.push(f3(sum / qs.len() as f64));
        }
        table.row(row);
    }
    table.emit("precision_at_k");
    Ok(())
}

/// §5.2.2's disk-I/O claim: node accesses per feedback action stay ~1 and
/// localized k-NN touches only a few neighborhoods.
pub fn io_experiment(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    let corpus = bench_corpus(scale, seed);
    let rfs = bench_rfs(scale, seed);
    let mut table = Table::new(
        "§5.2.2: simulated I/O (node accesses) per query",
        &[
            "query",
            "feedback accesses",
            "kNN accesses",
            "subqueries",
            "tree nodes",
        ],
    );
    let nodes = rfs.tree().node_count();
    for query in queries::standard_queries(corpus.taxonomy()) {
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, seed);
        let out = try_run_session(&corpus, &rfs, &query, &mut user, k, &QdConfig::default())?
            .into_outcome();
        table.row(vec![
            query.name.clone(),
            out.feedback_accesses.to_string(),
            out.knn_accesses.to_string(),
            out.subquery_count.to_string(),
            nodes.to_string(),
        ]);
    }
    table.emit("io_node_accesses");
    Ok(())
}

/// One configuration a study runs: the eleven standard queries on `scale`'s
/// corpus, an RFS built with `rfs`, sessions under `qd`, and an oracle user
/// with a per-round inspection budget and a judgment-noise probability.
#[derive(Debug, Clone)]
struct Arm {
    label: String,
    scale: BenchScale,
    rfs: RfsConfig,
    qd: QdConfig,
    /// `(patience, noise)` of the simulated user.
    user: (usize, f32),
}

impl Arm {
    /// The paper's configuration on `scale`.
    fn paper(scale: BenchScale, label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            scale,
            rfs: scale.rfs_config(),
            qd: QdConfig::default(),
            user: (usize::MAX, 0.0),
        }
    }
}

/// What a study's column reports about an arm. Quality and cost columns are
/// means over the eleven queries; the tree columns describe the arm's RFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    Label,
    Representatives,
    Height,
    Leaves,
    Precision,
    Gtir,
    Round1Gtir,
    KnnAccesses,
    Fill,
    FeedbackPerRound,
    KnnPerSubquery,
    Subqueries,
}

/// A table of arms: its title, CSV slug, `(header, column)` list and arms.
struct Study {
    title: &'static str,
    slug: &'static str,
    columns: Vec<(&'static str, Col)>,
    arms: Vec<Arm>,
}

/// What one session contributes to its arm's row.
struct Session {
    precision: f64,
    gtir: f64,
    round1_gtir: f64,
    fill: f64,
    knn_accesses: f64,
    feedback_accesses: f64,
    rounds: f64,
    subqueries: f64,
}

/// The arm's RFS: an arm whose `RfsConfig` equals its scale's shares the
/// cached [`bench_rfs`] build.
fn arm_rfs(arm: &Arm, seed: u64) -> Arc<RfsStructure> {
    // `RfsConfig` has no `PartialEq`; its `Debug` form names every field.
    if format!("{:?}", arm.rfs) == format!("{:?}", arm.scale.rfs_config()) {
        return bench_rfs(arm.scale, seed);
    }
    let corpus = bench_corpus(arm.scale, seed);
    Arc::new(RfsStructure::build(corpus.features(), &arm.rfs))
}

/// Runs one arm's eleven sessions, in query order on the calling thread, and
/// formats its row. At 2 workers a fan-out over them gained 1.03× on
/// `repro ablate`, whose time is the arms' RFS builds (DESIGN.md §7).
fn arm_row(arm: &Arm, columns: &[(&str, Col)], seed: u64) -> Result<Vec<String>, QdError> {
    let corpus = bench_corpus(arm.scale, seed);
    let rfs = arm_rfs(arm, seed);
    let qs = queries::standard_queries(corpus.taxonomy());
    let sessions = qs.iter().map(|query| {
        let k = corpus.ground_truth(query).len();
        let (patience, noise) = arm.user;
        let mut user = SimulatedUser::oracle(query, seed)
            .with_patience(patience)
            .with_noise(noise);
        let out = try_run_session(&corpus, &rfs, query, &mut user, k, &arm.qd)?.into_outcome();
        Ok(Session {
            precision: precision(&corpus, query, &out.results),
            gtir: gtir(&corpus, query, &out.results),
            round1_gtir: out.round_trace.first().map_or(0.0, |t| t.gtir),
            fill: out.results.len() as f64 / k as f64,
            knn_accesses: out.knn_accesses as f64,
            feedback_accesses: out.feedback_accesses as f64,
            rounds: out.round_trace.len() as f64,
            subqueries: out.subquery_count as f64,
        })
    });
    let sessions = sessions.collect::<Result<Vec<_>, QdError>>()?;
    let sum = |field: fn(&Session) -> f64| sessions.iter().map(field).sum::<f64>();
    let mean = |field| sum(field) / qs.len() as f64;
    let f2 = |x: f64| format!("{x:.2}");
    let tree = rfs.tree();
    let cell = |col: Col| match col {
        Col::Label => arm.label.clone(),
        Col::Representatives => rfs.all_representatives().len().to_string(),
        Col::Height => tree.height().to_string(),
        Col::Leaves => tree
            .node_ids()
            .filter(|&id| tree.is_leaf(id))
            .count()
            .to_string(),
        Col::Precision => f3(mean(|s| s.precision)),
        Col::Gtir => f3(mean(|s| s.gtir)),
        Col::Round1Gtir => f3(mean(|s| s.round1_gtir)),
        Col::KnnAccesses => format!("{:.1}", mean(|s| s.knn_accesses)),
        Col::Fill => f3(mean(|s| s.fill)),
        Col::FeedbackPerRound => f2(sum(|s| s.feedback_accesses) / sum(|s| s.rounds)),
        Col::KnnPerSubquery => f2(sum(|s| s.knn_accesses) / sum(|s| s.subqueries)),
        Col::Subqueries => f2(mean(|s| s.subqueries)),
    };
    Ok(columns.iter().map(|&(_, col)| cell(col)).collect())
}

/// Runs every arm of `study` into its table.
fn run_study(study: &Study, seed: u64) -> Result<Table, QdError> {
    let header: Vec<&str> = study.columns.iter().map(|&(h, _)| h).collect();
    let mut table = Table::new(study.title, &header);
    for arm in &study.arms {
        table.row(arm_row(arm, &study.columns, seed)?);
    }
    Ok(table)
}

/// The DESIGN.md ablations on `scale`, in `repro ablate`'s order. Each arm
/// is the paper's configuration with one edit.
fn ablation_studies(scale: BenchScale) -> Vec<Study> {
    use Col::*;
    let arm = |label: String, edit: &dyn Fn(&mut Arm)| {
        let mut arm = Arm::paper(scale, label);
        edit(&mut arm);
        arm
    };
    let study = |title, slug, columns: &[(&'static str, Col)], arms: Vec<Arm>| Study {
        title,
        slug,
        columns: columns.to_vec(),
        arms,
    };
    let (p, g) = (("precision", Precision), ("GTIR", Gtir));
    let weights = [
        ("uniform (1,1,1)", [1.0, 1.0, 1.0]),
        ("color-heavy (3,1,1)", [3.0, 1.0, 1.0]),
        ("texture-heavy (1,3,1)", [1.0, 3.0, 1.0]),
        ("edge-heavy (1,1,3)", [1.0, 1.0, 3.0]),
        ("color only (1,0,0)", [1.0, 0.0, 0.0]),
    ];
    let merges = [
        ("proportional (paper)", MergeStrategy::Proportional),
        ("uniform", MergeStrategy::Uniform),
        ("single ranked list", MergeStrategy::SingleList),
    ];
    vec![
        study(
            "Ablation: boundary expansion threshold",
            "ablate_threshold",
            &[
                ("threshold", Label),
                p,
                g,
                ("kNN accesses", KnnAccesses),
                ("fill", Fill),
            ],
            [0.0f32, 0.2, 0.4, 0.6, 0.8, 1.0]
                .map(|t| arm(format!("{t:.2}"), &|a| a.qd.boundary_threshold = t))
                .into(),
        ),
        study(
            "Ablation: leaf representative fraction",
            "ablate_representative_fraction",
            &[
                ("fraction", Label),
                ("representatives", Representatives),
                p,
                g,
                ("fill", Fill),
            ],
            [0.01f32, 0.03, 0.05, 0.08, 0.10]
                .map(|f| arm(format!("{f:.2}"), &|a| a.rfs.representative_fraction = f))
                .into(),
        ),
        study(
            "Ablation: RFS node capacity",
            "ablate_fanout",
            &[
                ("capacity", Label),
                ("tree height", Height),
                ("leaves", Leaves),
                p,
                g,
            ],
            [25usize, 50, 100, 200]
                .map(|cap| {
                    arm(cap.to_string(), &|a| {
                        (a.rfs.node_min, a.rfs.node_max) = ((cap * 2 / 5).max(2), cap)
                    })
                })
                .into(),
        ),
        study(
            "Ablation: result merge strategy",
            "ablate_merge",
            &[("strategy", Label), p, g, ("fill", Fill)],
            merges
                .map(|(name, m)| arm(name.into(), &|a| a.qd.merge = m))
                .into(),
        ),
        study(
            "Ablation: RFS tree construction",
            "ablate_build",
            &[("build", Label), p, g],
            [("R* insertion (paper)", false), ("kd bulk load", true)]
                .map(|(name, bulk)| arm(name.into(), &|a| a.rfs.bulk_load = bulk))
                .into(),
        ),
        study(
            "Ablation: representative selection",
            "ablate_representative_selection",
            &[("selection", Label), p, g],
            [("k-means medoids (paper)", true), ("uniform random", false)]
                .map(|(name, km)| arm(name.into(), &|a| a.rfs.kmeans_representatives = km))
                .into(),
        ),
        study(
            "Extension: user-defined feature importance (color/texture/edge)",
            "ablate_feature_weights",
            &[("weights (c,t,e)", Label), p, g],
            weights
                .map(|(name, [c, t, e])| {
                    arm(name.into(), &|a| {
                        a.qd = QdConfig::default().with_group_weights(c, t, e)
                    })
                })
                .into(),
        ),
        study(
            "Robustness: relevance-judgment noise",
            "ablate_user_noise",
            &[
                ("noise", Label),
                ("QD precision", Precision),
                ("QD GTIR", Gtir),
            ],
            [0.0f32, 0.1, 0.2, 0.3, 0.4]
                .map(|noise| arm(format!("{noise:.2}"), &|a| a.user.1 = noise))
                .into(),
        ),
        study(
            "Ablation: per-round inspection budget (21-image pages)",
            "ablate_patience",
            &[
                ("pages/round", Label),
                ("round-1 GTIR", Round1Gtir),
                ("final precision", Precision),
                ("final GTIR", Gtir),
            ],
            [1usize, 3, 7, 15]
                .map(|pages| arm(pages.to_string(), &|a| a.user.0 = pages * 21))
                .into_iter()
                .chain([Arm::paper(scale, "all")])
                .collect(),
        ),
    ]
}

/// Every DESIGN.md ablation: threshold, representative fraction, fan-out,
/// merge, build, representative selection, feature weights, judgment noise
/// and inspection budget.
pub fn ablate(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    for study in ablation_studies(scale) {
        run_study(&study, seed)?.emit(study.slug);
    }
    Ok(())
}

/// Figures 10–11 in the paper's own units (§5.2.2): the paper configuration
/// at each database size, reported as RFS leaves, feedback node accesses per
/// round, k-NN node accesses per subquery and subqueries per session. These
/// are deterministic counts; wall-clock scaling is `perf`'s
/// (`BENCHMARK.json`).
pub fn fig10_11(sizes: &[usize], seed: u64) -> Result<(), QdError> {
    use Col::*;
    let study = Study {
        title: "Figures 10–11: node accesses vs database size",
        slug: "fig10_11_node_accesses",
        columns: vec![
            ("db size", Label),
            ("leaves", Leaves),
            ("feedback accesses/round", FeedbackPerRound),
            ("kNN accesses/subquery", KnnPerSubquery),
            ("subqueries/session", Subqueries),
        ],
        arms: sizes
            .iter()
            .map(|&size| Arm::paper(BenchScale::Sweep(size), size.to_string()))
            .collect(),
    };
    run_study(&study, seed)?.emit(study.slug);
    Ok(())
}

/// Baseline shoot-out: QD against all four baselines on Table 1's metric.
pub fn baseline_shootout(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    let corpus = bench_corpus(scale, seed);
    let qs = queries::standard_queries(corpus.taxonomy());
    let mut table = Table::new(
        "Baseline shoot-out: average precision/GTIR over 11 queries",
        &["technique", "precision", "GTIR"],
    );
    for (name, per_query) in technique_results(scale, seed)? {
        let mean = |metric: fn(&Corpus, &qd_corpus::QuerySpec, &[usize]) -> f64| {
            let sum: f64 = qs
                .iter()
                .zip(&per_query)
                .map(|(q, r)| metric(&corpus, q, r))
                .sum();
            f3(sum / qs.len() as f64)
        };
        table.row(vec![name.to_string(), mean(precision), mean(gtir)]);
    }
    table.emit("baseline_shootout");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_results_are_the_same_at_one_and_eight_workers() {
        let run = |workers| {
            qd_runtime::with_threads(workers, || technique_results(BenchScale::Tiny, 42)).unwrap()
        };
        let one = run(1);
        assert_eq!(one.len(), 5);
        assert_eq!(one, run(8));
    }

    #[test]
    fn only_an_arm_with_the_scale_config_shares_the_cached_build() {
        let scale = BenchScale::Tiny;
        let paper = Arm::paper(scale, "paper");
        let shared = arm_rfs(&paper, 42);
        assert!(Arc::ptr_eq(&shared, &bench_rfs(scale, 42)));
        let alone = RfsStructure::build(bench_corpus(scale, 42).features(), &paper.rfs);
        assert_eq!(alone.to_bytes(), shared.to_bytes());

        let mut sparse = Arm::paper(scale, "sparse");
        sparse.rfs.representative_fraction = 0.03;
        let own = arm_rfs(&sparse, 42);
        assert!(!Arc::ptr_eq(&own, &shared));
        let study = Study {
            title: "two arms",
            slug: "two_arms",
            columns: vec![("label", Col::Label), ("reps", Col::Representatives)],
            arms: vec![paper, sparse],
        };
        let csv = run_study(&study, 42).unwrap().to_csv();
        let reps = |rfs: &RfsStructure| rfs.all_representatives().len();
        assert_eq!(
            csv,
            format!(
                "label,reps\npaper,{}\nsparse,{}\n",
                reps(&shared),
                reps(&own)
            )
        );
    }
}
