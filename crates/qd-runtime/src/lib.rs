#![warn(missing_docs)]
// A serving path returns a typed error or degrades; it never panics on input.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Deterministic parallel execution for the Query Decomposition engine.
//!
//! Four places fan out, each measured at ≥ 1.3× at 2 workers against a
//! plain loop (DESIGN.md §7): the corpus build (per image), the shard
//! builds (per shard), and the per-query loops of Table 1, Table 2 and the
//! baseline shoot-out. Everything else runs on the calling thread. This
//! crate provides the executor they share, built on [`std::thread::scope`],
//! with one hard guarantee:
//!
//! **Determinism contract.** [`par_map`] returns results in input order, and
//! every closure must depend only on its own item (seeding any RNG it uses
//! from the item or its index). Under that discipline the output is
//! bit-identical for every worker count, so `QD_THREADS=1` and
//! `QD_THREADS=8` produce byte-identical CSVs, rankings, and access counts —
//! enforced by `tests/parallel_equivalence.rs`.
//!
//! **Grain rule.** A fan-out spawns its scoped workers per call: four no-op
//! items cost 30–225 µs at `nproc` workers on a 2-vCPU box, depending on
//! what the scheduler is doing, against 0.02 µs as a plain loop
//! (`qd-runtime.par_map4_us_tn` / `_t1`). So it pays only where one item
//! costs hundreds of microseconds or more and the fan-out is most of what
//! its caller waits on. Below that, work runs through the serial entry,
//! [`try_map_indexed`] (representative selection per RFS node, the final
//! round's localized subqueries, a shard scatter's legs), or steps under
//! [`isolated`] (a serve tick's tenants). A fan-out's workers run any
//! fan-out nested inside an item serially, so the worker count the caller
//! asked for bounds the threads of the whole call tree.
//!
//! Worker count resolution order:
//! 1. an in-process [`with_threads`] override (used by tests; `1` inside a
//!    fan-out's workers),
//! 2. the `QD_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Environment variable forcing the worker count (`QD_THREADS=1` forces a
/// fully sequential run for reproducibility baselines).
pub const THREADS_ENV: &str = "QD_THREADS";

/// The worker count [`par_map`] will use right now.
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Runs `f` with the worker count pinned to `n` on this thread: every
/// [`par_map`] `f` calls directly uses up to `n` workers, each of which runs
/// nested fan-outs serially. Restores the previous setting afterwards, panic
/// or not. Tests use this instead of mutating the process-global
/// environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|c| c.set(prev));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// Maps `f` over `items` on up to [`threads`] scoped workers, returning the
/// results **in input order**. Workers self-schedule one item at a time off a
/// shared counter, so heterogeneous per-item costs balance well; the output
/// order never depends on scheduling. A panic in any closure propagates to
/// the caller with its original payload.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] where the closure also receives the item's input index —
/// the hook for per-item RNG seeding (`seed + i`), which is what keeps
/// parallel output identical to sequential output.
///
/// At one worker this is a plain loop on the calling thread. Otherwise it
/// captures the caller's active fault plan and observability recorder, if
/// any: the plan is installed in every worker so `qd_fault` failpoints keep
/// firing deterministically across the thread boundary, and each item runs
/// under a *fresh* `qd_obs` recorder whose trace is absorbed back into the
/// caller in input order after the join — so the merged trace is
/// byte-identical to a sequential run at every worker count. Every worker
/// pins its own worker count to 1: a fan-out nested inside an item runs
/// serially instead of multiplying the caller's count by itself.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let plan = qd_fault::current();
    let obs = qd_obs::current();
    let next = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "this is the executor every other fan-out goes through"
    )]
    let parts: Vec<Vec<(usize, U, Option<qd_obs::Trace>)>> = thread::scope(|s| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let plan = plan.clone();
                s.spawn(move || {
                    with_threads(1, || {
                        qd_fault::with_current(plan, || {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                let (value, trace) = qd_obs::observe_task(&obs, || f(i, &items[i]));
                                local.push((i, value, trace));
                            }
                            local
                        })
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });

    let mut out: Vec<Option<(U, Option<qd_obs::Trace>)>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for part in parts {
        for (i, v, t) in part {
            out[i] = Some((v, t));
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some((v, trace)) => {
                // Input-order merge on the calling thread — the step that
                // makes parallel traces byte-identical to sequential ones.
                if let Some(trace) = trace {
                    qd_obs::absorb(trace);
                }
                v
            }
            None => unreachable!("index {i} scheduled exactly once"),
        })
        .collect()
}

/// A panic caught from a single task by [`isolated`], carrying the task's
/// input index and the panic message (stringified payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input index of the task that panicked.
    pub index: usize,
    /// The panic payload rendered as a string (`&str`/`String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The serial entry: every item on the calling thread in input order, each
/// under [`isolated`], straight into the caller's recorder and fault plan.
/// One bad item degrades one slot (`Err(TaskPanic)`); the caller decides
/// whether that is fatal. Nothing crosses a thread, so nothing needs `Sync`
/// or `Send`. For work below the grain rule (see the crate docs).
pub fn try_map_indexed<T, U>(items: &[T], f: impl Fn(usize, &T) -> U) -> Vec<Result<U, TaskPanic>> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| isolated(i, || f(i, item)))
        .collect()
}

/// Runs task `index` on the calling thread under `catch_unwind`, turning a
/// panic into a [`TaskPanic`]: the per-task isolation of
/// [`try_map_indexed`], for a caller that owns its loop (the serve
/// tick steps its tenants one at a time, each with its own state).
pub fn isolated<U>(index: usize, task: impl FnOnce() -> U) -> Result<U, TaskPanic> {
    catch_unwind(AssertUnwindSafe(task)).map_err(|payload| TaskPanic {
        index,
        message: panic_message(payload.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_holds_under_skewed_workloads() {
        // Early items sleep, late items finish instantly: completion order
        // is far from input order, the output must not be.
        let items: Vec<usize> = (0..32).collect();
        let out = with_threads(8, || {
            par_map(&items, |&x| {
                if x < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                x
            })
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let out: Vec<u32> = par_map(&items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn fewer_items_than_workers() {
        let items = vec![10u64, 20];
        let out = with_threads(8, || par_map(&items, |&x| x + 1));
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn honors_single_thread_override() {
        // With one worker the map runs inline on the calling thread.
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..16).collect();
        let out = with_threads(1, || {
            par_map(&items, |&x| {
                assert_eq!(std::thread::current().id(), caller);
                x
            })
        });
        assert_eq!(out, items);
    }

    #[test]
    fn with_threads_restores_previous_setting() {
        let before = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), before);
    }

    #[test]
    fn workers_run_nested_fan_outs_serially() {
        // Every item of a multi-worker fan-out sees a worker count of 1,
        // whatever the caller's override or `QD_THREADS` says, so the
        // caller's count bounds the whole call tree.
        let items: Vec<usize> = (0..16).collect();
        let caller = std::thread::current().id();
        let seen = with_threads(4, || {
            par_map(&items, |_| (std::thread::current().id(), threads()))
        });
        assert!(seen.iter().all(|&(id, _)| id != caller), "ran on workers");
        assert!(seen.iter().all(|&(_, n)| n == 1), "nested counts {seen:?}");
        // And the nested fan-out itself stays on its worker's thread.
        let nested = with_threads(4, || {
            par_map(&items, |_| {
                let worker = std::thread::current().id();
                par_map(&[0u8, 1, 2], |_| std::thread::current().id() == worker)
            })
        });
        assert!(nested.iter().flatten().all(|&same| same));
    }

    #[test]
    fn serial_entry_needs_no_sync_and_isolates_panics() {
        // `Cell` is `!Sync`: this compiles only while nothing crosses a
        // thread.
        let calls = Cell::new(0usize);
        let items = vec![1u64, 2, 3];
        let caller = std::thread::current().id();
        let out = with_threads(8, || {
            try_map_indexed(&items, |i, &x| {
                calls.set(calls.get() + 1);
                assert_eq!(std::thread::current().id(), caller);
                if i == 1 {
                    panic!("injected {x}");
                }
                x * 10
            })
        });
        assert_eq!(calls.get(), 3);
        assert_eq!(out[0], Ok(10));
        assert_eq!(
            out[1],
            Err(TaskPanic {
                index: 1,
                message: "injected 2".to_string()
            })
        );
        assert_eq!(out[2], Ok(30));
    }

    #[test]
    fn propagates_panics() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&x| {
                    if x == 33 {
                        panic!("boom at {x}");
                    }
                    x
                })
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 33"), "payload was {msg:?}");
    }

    #[test]
    fn indexed_variant_passes_the_input_index() {
        let items = vec!["a", "b", "c"];
        let out = par_map_indexed(&items, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn try_map_isolates_panics_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 4] {
            let out = with_threads(workers, || {
                try_map_indexed(&items, |_, &x| {
                    if x % 13 == 5 {
                        panic!("injected {x}");
                    }
                    x * 2
                })
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 13 == 5 {
                    let e = r.as_ref().expect_err("task should have panicked");
                    assert_eq!(e.index, i);
                    assert_eq!(e.message, format!("injected {i}"));
                } else {
                    assert_eq!(r.as_ref().copied(), Ok(i * 2));
                }
            }
        }
    }

    #[test]
    fn try_map_results_identical_across_worker_counts() {
        let items: Vec<usize> = (0..40).collect();
        let run = |workers| {
            with_threads(workers, || {
                try_map_indexed(&items, |_, &x| if x % 7 == 0 { panic!("p{x}") } else { x })
            })
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn traces_are_identical_across_worker_counts() {
        let items: Vec<u64> = (0..40).collect();
        let run = |workers| {
            with_threads(workers, || {
                qd_obs::with_recorder(|| {
                    qd_obs::span(qd_obs::sp::SESSION_FINAL, || {
                        par_map(&items, |&x| {
                            qd_obs::span_indexed(qd_obs::sp::SUBQUERY, x, || {
                                qd_obs::count(qd_obs::ctr::KNN_DISTANCE, x + 1);
                                x * 2
                            })
                        })
                    })
                })
            })
        };
        let (out1, trace1) = run(1);
        let (out8, trace8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(trace1, trace8);
        assert_eq!(trace1.render(), trace8.render());
        assert_eq!(
            trace1.counters[qd_obs::ctr::KNN_DISTANCE],
            (1..=40).sum::<u64>()
        );
        // Item spans grafted in input order under the batch span.
        let batch = &trace1.root.children[0];
        assert_eq!(batch.children.len(), 40);
        for (i, child) in batch.children.iter().enumerate() {
            assert_eq!(child.index, Some(i as u64));
        }
    }

    #[test]
    fn histograms_merge_in_input_order_across_worker_counts() {
        let items: Vec<u64> = (0..40).collect();
        let run = |workers| {
            with_threads(workers, || {
                qd_obs::with_recorder(|| {
                    par_map(&items, |&x| {
                        qd_obs::observe(qd_obs::hist::QD_SUBQUERY_DISTANCES, x * 3);
                        x
                    })
                })
            })
        };
        let (out1, trace1) = run(1);
        let (out8, trace8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(trace1, trace8);
        // Observations land in input order, not completion order.
        let hist = &trace1.hists[qd_obs::hist::QD_SUBQUERY_DISTANCES];
        let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(hist.values(), expected.as_slice());
    }

    #[test]
    fn panicking_tasks_drop_their_partial_histograms() {
        let items: Vec<u64> = (0..12).collect();
        let run = |workers| {
            with_threads(workers, || {
                qd_obs::with_recorder(|| {
                    try_map_indexed(&items, |_, &x| {
                        qd_obs::observe(qd_obs::hist::QD_SUBQUERY_DISTANCES, x + 1);
                        if x % 5 == 2 {
                            panic!("injected {x}");
                        }
                        qd_obs::observe(qd_obs::hist::QD_QUERY_DISTANCES, 1);
                        x
                    })
                })
            })
        };
        let (out1, trace1) = run(1);
        let (out8, trace8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(trace1, trace8);
        // Panicked tasks still keep the observations they made before
        // dying; only survivors reach the second histogram.
        assert_eq!(
            trace1.hists[qd_obs::hist::QD_SUBQUERY_DISTANCES].count(),
            12
        );
        assert_eq!(trace1.hists[qd_obs::hist::QD_QUERY_DISTANCES].count(), 10);
    }

    #[test]
    fn panicking_tasks_keep_their_partial_traces() {
        let items: Vec<u64> = (0..12).collect();
        let run = |workers| {
            with_threads(workers, || {
                qd_obs::with_recorder(|| {
                    try_map_indexed(&items, |_, &x| {
                        qd_obs::count(qd_obs::ctr::KNN_FRONTIER, 1);
                        if x % 5 == 2 {
                            panic!("injected {x}");
                        }
                        qd_obs::count(qd_obs::ctr::KNN_DISTANCE, 1);
                        x
                    })
                })
            })
        };
        let (out1, trace1) = run(1);
        let (out8, trace8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(trace1, trace8);
        // Every task counted before the panic, only survivors after it.
        assert_eq!(trace1.counters[qd_obs::ctr::KNN_FRONTIER], 12);
        assert_eq!(trace1.counters[qd_obs::ctr::KNN_DISTANCE], 10);
    }

    #[test]
    fn no_recorder_means_no_traces() {
        let items: Vec<u64> = (0..8).collect();
        let out = with_threads(4, || {
            par_map(&items, |&x| {
                assert!(!qd_obs::enabled(), "recorder must not leak into workers");
                x
            })
        });
        assert_eq!(out, items);
    }

    #[test]
    fn fault_plan_reaches_parallel_workers() {
        let plan = qd_fault::FaultPlan::new(21).site("t.runtime", qd_fault::Mode::Always);
        let items: Vec<u64> = (0..32).collect();
        let fired = qd_fault::with_plan(&plan, || {
            with_threads(8, || {
                par_map(&items, |&k| qd_fault::fire_keyed("t.runtime", k).is_some())
            })
        });
        assert!(
            fired.iter().all(|&b| b),
            "every worker must observe the plan"
        );
        let silent = with_threads(8, || {
            par_map(&items, |&k| qd_fault::fire_keyed("t.runtime", k))
        });
        assert!(
            silent.iter().all(Option::is_none),
            "plan does not leak past with_plan"
        );
    }
}
