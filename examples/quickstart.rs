//! Quickstart: build a corpus, build the RFS structure, run one Query
//! Decomposition session, and print the grouped results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use query_decomposition::prelude::*;

fn main() {
    println!("Building a 740-image synthetic corpus (37-d features)…");
    let corpus = Corpus::build(&CorpusConfig::test_small(42));
    println!(
        "  {} images, {} categories, {} dimensions",
        corpus.len(),
        corpus.taxonomy().len(),
        corpus.dim()
    );

    println!("Building the Relevance Feedback Support structure…");
    let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
    let tree = rfs.tree();
    println!(
        "  {}-level hierarchy, {} nodes, {} representative images ({:.1}% of the database)",
        tree.height(),
        tree.node_count(),
        rfs.all_representatives().len(),
        100.0 * rfs.all_representatives().len() as f64 / corpus.len() as f64
    );

    // The paper's "bird" query: eagles, owls, and sparrows look nothing
    // alike, so their images sit in three distant feature-space clusters.
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "bird")
        .expect("standard query set contains 'bird'");
    let k = corpus.ground_truth(&query).len();
    println!(
        "\nRunning a 3-round QD session for {:?} (k = {k})…",
        query.name
    );

    let mut user = SimulatedUser::oracle(&query, 7);
    let outcome = try_run_session(&corpus, &rfs, &query, &mut user, k, &QdConfig::default())
        .expect("a well-formed session")
        .into_outcome();

    println!(
        "  decomposed into {} localized subqueries; {} feedback node reads, {} kNN node reads",
        outcome.subquery_count, outcome.feedback_accesses, outcome.knn_accesses
    );
    for trace in &outcome.round_trace {
        println!(
            "  round {}: precision {}, GTIR {:.3}",
            trace.round,
            trace
                .precision
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "n/a (no retrieval yet)".into()),
            trace.gtir
        );
    }

    println!("\nResult groups (presentation order, §3.4):");
    for (i, group) in outcome.groups.iter().enumerate() {
        let label = group
            .images
            .first()
            .map(|&(id, _)| corpus.taxonomy().name(corpus.label(id)).to_string())
            .unwrap_or_default();
        println!(
            "  group {} ({} images, ranking score {:.2}) — mostly {:?}",
            i + 1,
            group.images.len(),
            group.ranking_score,
            label
        );
    }

    println!(
        "\nFinal quality: precision {:.3}, recall {:.3}, GTIR {:.3}",
        precision(&corpus, &query, &outcome.results),
        recall(&corpus, &query, &outcome.results),
        gtir(&corpus, &query, &outcome.results),
    );
}
