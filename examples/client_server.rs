//! The paper's client–server deployment (§4): relevance feedback runs
//! entirely on a thin client replica of the RFS structure — hierarchy and
//! representative ids only, no feature vectors — and the server sees nothing
//! until the final localized subqueries arrive.
//!
//! ```text
//! cargo run --release --example client_server
//! ```

use query_decomposition::core::client::{client_feedback, try_server_execute, ClientRfs};
use query_decomposition::prelude::*;

fn main() {
    let corpus = Corpus::build(&CorpusConfig::test_small(42));
    let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());

    // --- provisioning: ship the thin replica to the client -------------
    let client = ClientRfs::replicate(&rfs);
    let feature_table_bytes = corpus.len() * corpus.dim() * std::mem::size_of::<f32>();
    println!(
        "server feature table : {:>8} bytes ({} images × {} dims)",
        feature_table_bytes,
        corpus.len(),
        corpus.dim()
    );
    println!(
        "client RFS replica   : {:>8} bytes ({} nodes, {} representative ids — {:.1}% of the database)",
        client.estimated_bytes(),
        client.node_count(),
        client.representative_count(),
        100.0 * client.representative_count() as f64 / corpus.len() as f64
    );

    // --- the user session runs on the client ---------------------------
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "car")
        .unwrap();
    let k = corpus.ground_truth(&query).len();
    let cfg = QdConfig::default();
    let mut user = SimulatedUser::oracle(&query, 13);
    let remote = client_feedback(&client, corpus.labels(), &mut user, &cfg);
    println!(
        "\nclient → server payload: {} subqueries, {} marked image ids",
        remote.subqueries.len(),
        remote.mark_count()
    );

    // --- the server answers with localized k-NN ------------------------
    let execution = try_server_execute(&corpus, &rfs, &remote, k, &cfg)
        .expect("the replica's subqueries are well-formed");
    println!(
        "server executed {} localized k-NN subqueries ({} node reads) in {:.2?}",
        execution.subquery_count, execution.knn_accesses, execution.duration
    );
    println!(
        "quality: precision {:.3}, GTIR {:.3}",
        precision(&corpus, &query, &execution.results),
        gtir(&corpus, &query, &execution.results)
    );

    // --- sanity: identical to the monolithic deployment ----------------
    let mut mono_user = SimulatedUser::oracle(&query, 13);
    let monolithic = try_run_session(&corpus, &rfs, &query, &mut mono_user, k, &cfg)
        .expect("a well-formed session")
        .into_outcome();
    assert_eq!(execution.results, monolithic.results);
    println!("\nsplit deployment reproduces the monolithic session exactly ✓");
}
