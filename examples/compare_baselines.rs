//! QD against the four single-neighborhood baselines on one scattered query.
//!
//! Multiple Viewpoints, query point movement, the multipoint query, and
//! Qcluster all refine a *single* region of the feature space; QD hunts down
//! every relevant cluster. This example prints the per-technique precision
//! and Ground Truth Inclusion Ratio for the paper's "a person" query, whose
//! three subconcepts (hair model, fitness, kung fu) look nothing alike.
//!
//! ```text
//! cargo run --release --example compare_baselines
//! ```

use query_decomposition::prelude::*;

fn main() {
    let corpus = Corpus::build(&CorpusConfig::test_small(42));
    let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "a person")
        .expect("standard query");
    let k = corpus.ground_truth(&query).len();
    println!(
        "query {:?}: {} ground-truth images across {} subconcepts (k = {k})\n",
        query.name,
        k,
        query.groups.len()
    );
    println!("{:<22} {:>9} {:>6}", "technique", "precision", "GTIR");

    for baseline in [
        Baseline::MultipleViewpoints,
        Baseline::QueryPointMovement,
        Baseline::MultipointQuery,
        Baseline::Qcluster,
    ] {
        let mut user = SimulatedUser::oracle(&query, 3);
        let out = baseline.run(&corpus, &query, &mut user, k, &BaselineConfig::default());
        println!(
            "{:<22} {:>9.3} {:>6.3}",
            baseline.name(),
            precision(&corpus, &query, &out.results),
            gtir(&corpus, &query, &out.results)
        );
    }

    let mut user = SimulatedUser::oracle(&query, 3);
    let out = try_run_session(&corpus, &rfs, &query, &mut user, k, &QdConfig::default())
        .expect("a well-formed session")
        .into_outcome();
    println!(
        "{:<22} {:>9.3} {:>6.3}   ({} localized subqueries)",
        "QD (this paper)",
        precision(&corpus, &query, &out.results),
        gtir(&corpus, &query, &out.results),
        out.subquery_count
    );
}
