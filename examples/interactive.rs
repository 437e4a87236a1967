//! An interactive terminal version of the paper's prototype (Figure 3): the
//! system displays representative-image thumbnails, you mark the relevant
//! ones, and the query decomposes round by round until the final localized
//! k-NN retrieval.
//!
//! ```text
//! cargo run --release --example interactive            # interactive session
//! cargo run --release --example interactive -- --auto  # scripted demo (oracle user)
//! ```
//!
//! Thumbnails render as ANSI truecolor half-blocks; any terminal emulator
//! from the last decade supports them. In `--auto` mode a simulated user
//! answers instead of stdin, which is also what keeps this example testable
//! in CI.

use query_decomposition::core::localknn::LocalQuery;
use query_decomposition::core::ranking::{flatten_groups, merge_local_results};
use query_decomposition::core::rfs::FeedbackHierarchy;
use query_decomposition::imagery::io::ansi_preview;
use query_decomposition::index::NodeId;
use query_decomposition::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};

const PAGE: usize = 7; // thumbnails per page (the GUI shows 21 in a 3×7 grid)

fn main() {
    let auto = std::env::args().any(|a| a == "--auto");
    println!("Building the corpus and RFS structure…");
    let corpus = Corpus::build(&CorpusConfig::test_small(42));
    let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
    let queries = queries::standard_queries(corpus.taxonomy());

    println!("\nPick a query to search for:");
    for (i, q) in queries.iter().enumerate() {
        println!("  {:>2}. {}", i + 1, q.name);
    }
    let choice = if auto {
        3usize // "car"
    } else {
        prompt_number("query number", queries.len()).saturating_sub(1)
    };
    let query = &queries[choice.min(queries.len() - 1)];
    let k = corpus.ground_truth(query).len();
    println!(
        "\nSearching for {:?} (retrieving k = {k} images)…",
        query.name
    );
    let mut oracle = SimulatedUser::oracle(query, 7);

    // --- feedback rounds -------------------------------------------------
    let cfg = QdConfig::default();
    let rounds = 3usize;
    let mut active: Vec<NodeId> = vec![rfs.tree().root()];
    let mut final_marks: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for round in 1..=rounds {
        println!(
            "\n════ Round {round} ── {} active subcluster(s) ════",
            active.len()
        );
        let mut next_active = Vec::new();
        for (si, &node) in active.iter().enumerate() {
            let reps = FeedbackHierarchy::representatives(&rfs, node);
            println!(
                "\n-- subcluster {} ({} representatives) --",
                si + 1,
                reps.len()
            );
            let marked: Vec<usize> = if auto {
                // The oracle pages through every representative; display the
                // first few marked ones so the demo stays readable.
                let m = oracle.mark_relevant(reps, corpus.labels());
                println!(
                    "[auto] scanned {} pages, marked {} relevant:",
                    reps.len().div_ceil(PAGE),
                    m.len()
                );
                let preview: Vec<usize> = m.iter().copied().take(PAGE).collect();
                display_row(&corpus, &preview);
                m
            } else {
                // Page through the representatives ("Random" button of §4).
                let mut marked = Vec::new();
                for (page_no, page) in reps.chunks(PAGE).enumerate() {
                    println!("page {}/{}:", page_no + 1, reps.len().div_ceil(PAGE));
                    display_row(&corpus, page);
                    let picks = prompt_picks(page.len());
                    marked.extend(picks.into_iter().map(|i| page[i - 1]));
                    if page_no + 1 < reps.len().div_ceil(PAGE) && !prompt_yes("next page?") {
                        break;
                    }
                }
                marked
            };
            if marked.is_empty() {
                println!("   nothing relevant here — subquery discarded");
                continue;
            }
            if round == rounds {
                final_marks.entry(node).or_default().extend(marked);
            } else if rfs.tree().is_leaf(node) {
                if !next_active.contains(&node) {
                    next_active.push(node);
                }
            } else {
                for &rep in &marked {
                    if let Some(child) = rfs.child_containing(node, rep) {
                        if !next_active.contains(&child) {
                            next_active.push(child);
                        }
                    }
                }
            }
        }
        if round < rounds {
            if next_active.is_empty() {
                println!("\nNo relevant images found — the query ends here.");
                return;
            }
            println!(
                "\nquery decomposed into {} subquery(ies)",
                next_active.len()
            );
            active = next_active;
        }
    }

    // --- final localized k-NN and grouped display ------------------------
    let mut locals = Vec::new();
    let per_subquery = k / final_marks.len().max(1) + 8;
    for (home, query_points) in final_marks {
        let local = query_decomposition::core::localknn::try_run_local_query(
            rfs.tree(),
            corpus.features(),
            &LocalQuery { home, query_points },
            cfg.boundary_threshold,
            per_subquery,
            8,
            None,
            None,
        );
        locals.push(local.expect("marks come from this corpus and this tree"));
    }
    let groups = merge_local_results(&locals, k.min(24));
    println!(
        "\n════ Final results ({} groups, §3.4 presentation order) ════",
        groups.len()
    );
    for (i, group) in groups.iter().enumerate() {
        println!(
            "\n-- group {} (ranking score {:.2}) --",
            i + 1,
            group.ranking_score
        );
        let ids: Vec<usize> = group.images.iter().take(PAGE).map(|&(id, _)| id).collect();
        display_row(&corpus, &ids);
    }
    let results = flatten_groups(&groups);
    println!(
        "\nprecision {:.3}  GTIR {:.3}",
        precision(&corpus, query, &results),
        gtir(&corpus, query, &results)
    );
}

/// Prints a horizontal strip of thumbnails with 1-based indices.
fn display_row(corpus: &Corpus, ids: &[usize]) {
    const COLS: usize = 16;
    let previews: Vec<Vec<String>> = ids
        .iter()
        .map(|&id| {
            ansi_preview(&corpus.render_image(id), COLS)
                .lines()
                .map(str::to_string)
                .collect()
        })
        .collect();
    if previews.is_empty() {
        return;
    }
    let rows = previews.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rows {
        let mut line = String::new();
        for p in &previews {
            line.push_str(p.get(r).map(String::as_str).unwrap_or(""));
            line.push_str("  ");
        }
        println!("{line}");
    }
    let mut caption = String::new();
    for (i, _) in ids.iter().enumerate() {
        caption.push_str(&format!("{:^w$}", format!("[{}]", i + 1), w = COLS + 2));
    }
    println!("{caption}");
}

fn prompt_number(what: &str, max: usize) -> usize {
    loop {
        print!("{what} (1-{max}): ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if std::io::stdin().lock().read_line(&mut line).is_err() {
            return 1;
        }
        if let Ok(n) = line.trim().parse::<usize>() {
            if (1..=max).contains(&n) {
                return n;
            }
        }
        println!("please enter a number between 1 and {max}");
    }
}

fn prompt_yes(what: &str) -> bool {
    print!("{what} [Y/n]: ");
    std::io::stdout().flush().ok();
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() {
        return false;
    }
    !line.trim().eq_ignore_ascii_case("n")
}

fn prompt_picks(max: usize) -> Vec<usize> {
    print!("relevant thumbnails (e.g. \"1,3\", empty for none): ");
    std::io::stdout().flush().ok();
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() {
        return Vec::new();
    }
    line.split(|c: char| c == ',' || c.is_whitespace())
        .filter_map(|t| t.trim().parse::<usize>().ok())
        .filter(|&n| (1..=max).contains(&n))
        .collect()
}
