#![warn(missing_docs)]

//! Seeded, deterministic fault injection for the Query Decomposition engine.
//!
//! Production serving code registers *failpoints* — named sites where an
//! artificial fault may be raised — by calling [`fire`] (sequential code) or
//! [`fire_keyed`] (code running inside `qd_runtime::par_map` workers). When no
//! [`FaultPlan`] is installed both calls are a single thread-local flag check
//! that returns `None`, so the instrumentation is free in normal operation.
//!
//! **Determinism contract.** Whether a site fires — and the 64-bit payload it
//! yields when it does — is a pure function of `(plan seed, site name, token)`.
//! For [`fire`] the token is a per-site invocation counter shared by the whole
//! plan activation; for [`fire_keyed`] the caller supplies the token (e.g. a
//! subquery index or node index). The discipline mirrors qd-runtime's: code
//! that may run on a worker thread must use [`fire_keyed`] with a
//! scheduling-independent key, so a fixed `(seed, workload)` pair produces the
//! exact same faults under `QD_THREADS=1` and `QD_THREADS=8`.
//!
//! A plan is installed with [`with_plan`], which scopes it to the calling
//! thread. `qd_runtime` captures the active plan via [`current`] before
//! spawning scoped workers and re-installs it in each via [`with_current`],
//! so fault injection crosses the fan-out boundary without any global state.
//!
//! [`codec`] is the persistence boundary the six I/O sites live behind: the
//! framed binary codec and the one fault-aware file read / atomic write that
//! all four on-disk formats share.

pub mod codec;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Environment variable the chaos suite reads to pick the plan seed
/// (`QD_FAULT_SEED=3 cargo test --test fault_properties`).
pub const FAULT_SEED_ENV: &str = "QD_FAULT_SEED";

/// Well-known injection site names. Serving crates reference these constants
/// so the chaos suite can enumerate every registered site.
pub mod site {
    /// Corpus cache (QDC2) `load` fails with an injected `io::Error` after
    /// the read.
    pub const CACHE_READ: &str = "corpus.cache.read";
    /// Corpus cache `load` observes a deterministically truncated byte buffer
    /// (torn read), exercising the checked-parse error paths.
    pub const CACHE_SHORT_READ: &str = "corpus.cache.short_read";
    /// Corpus cache `save` fails with an injected `io::Error` before the
    /// temp file is written, leaving no partial file behind.
    pub const CACHE_WRITE: &str = "corpus.cache.write";
    /// Representative selection for one RFS node panics mid-build (keyed by
    /// node index); the build isolates the panic and falls back to a
    /// deterministic truncation-based selection for that node.
    pub const RFS_SELECT_PANIC: &str = "rfs.select.panic";
    /// Displaying one node's representatives during a feedback round fails
    /// (keyed by node index); the round skips that node and degrades.
    pub const SESSION_ROUND_DISPLAY: &str = "session.round.display";
    /// One localized subquery worker panics (keyed by subquery index); the
    /// session drops that subquery from the merge and reports degradation.
    pub const SESSION_SUBQUERY_PANIC: &str = "session.subquery.panic";
    /// `load` of an R\*-tree (QDT2), RFS structure (QDR2) or shard set
    /// (QDS1) fails with an injected `io::Error` after the read.
    pub const INDEX_READ: &str = "index.persist.read";
    /// `load` of a QDT2 / QDR2 / QDS1 file observes a deterministically
    /// truncated byte buffer (torn read); the length-checked reader must
    /// reject it rather than panic or misparse.
    pub const INDEX_SHORT_READ: &str = "index.persist.short_read";
    /// `save` of a QDT2 / QDR2 / QDS1 file fails with an injected
    /// `io::Error` before any bytes reach the filesystem.
    pub const INDEX_WRITE: &str = "index.persist.write";
    /// Client→server transmission of the remote query fails; the client
    /// retries on a deterministic backoff schedule.
    pub const CLIENT_TRANSPORT: &str = "client.transport.send";
    /// One mark in the transmitted remote query is corrupted to an
    /// out-of-range image id; server-side validation rejects it and the
    /// client retries with a fresh encode.
    pub const CLIENT_MARK_CORRUPT: &str = "client.marks.corrupt";
    /// The admission check for one arriving session fails (keyed by session
    /// id); the supervisor sheds that session at the door instead of
    /// activating or queueing it.
    pub const SERVE_ADMISSION: &str = "serve.admission.reject";
    /// One session's scheduler step panics inside its worker (keyed by
    /// session id); the supervisor catches the panic, quarantines the
    /// session, and evicts it without disturbing its neighbors.
    pub const SERVE_STEP_PANIC: &str = "serve.scheduler.step";
    /// The supervisor force-evicts one session at the start of its turn
    /// (keyed by session id) — a simulated operator kill; the session
    /// terminates as `Evicted` and its slot is reclaimed.
    pub const SERVE_EVICT: &str = "serve.session.evict";
    /// One shard's scatter leg panics inside its fan-out worker (keyed by
    /// shard index); the gather drops that leg, charges its work, and the
    /// query degrades instead of failing while ≥ 1 shard survives.
    pub const SHARD_SCATTER: &str = "shard.scatter.panic";
    /// The gather refuses one shard's prefix at merge time (keyed by shard
    /// index) — a simulated late shard: its work is still charged but its
    /// neighbors are merged without it.
    pub const SHARD_MERGE: &str = "shard.merge.drop";
    /// Publishing a new shard-set snapshot (or persisting one) fails with a
    /// typed error; readers keep the previous snapshot.
    pub const SHARD_PUBLISH: &str = "shard.publish.fail";
}

/// Every registered site, with a one-line description. The chaos property
/// suite iterates this catalog to prove each site degrades gracefully.
pub const SITES: &[(&str, &str)] = &[
    (site::CACHE_READ, "cache load returns an injected IO error"),
    (
        site::CACHE_SHORT_READ,
        "cache load sees a torn (truncated) buffer",
    ),
    (
        site::CACHE_WRITE,
        "cache save fails before the atomic rename",
    ),
    (
        site::RFS_SELECT_PANIC,
        "representative selection panics for one node",
    ),
    (
        site::SESSION_ROUND_DISPLAY,
        "one node's round display fails; node skipped",
    ),
    (
        site::SESSION_SUBQUERY_PANIC,
        "one subquery worker panics; dropped from merge",
    ),
    (site::INDEX_READ, "index load returns an injected IO error"),
    (
        site::INDEX_SHORT_READ,
        "index load sees a torn (truncated) buffer",
    ),
    (
        site::INDEX_WRITE,
        "index save fails before any bytes are written",
    ),
    (
        site::CLIENT_TRANSPORT,
        "client transmission fails; deterministic retry",
    ),
    (
        site::CLIENT_MARK_CORRUPT,
        "one transmitted mark corrupted out of range",
    ),
    (
        site::SERVE_ADMISSION,
        "admission check fails; session shed at the door",
    ),
    (
        site::SERVE_STEP_PANIC,
        "one session's scheduler step panics; session evicted",
    ),
    (
        site::SERVE_EVICT,
        "supervisor force-evicts one session mid-flight",
    ),
    (
        site::SHARD_SCATTER,
        "one shard's scatter leg panics; leg dropped from gather",
    ),
    (
        site::SHARD_MERGE,
        "one shard's prefix refused at merge; neighbors merged",
    ),
    (
        site::SHARD_PUBLISH,
        "snapshot publication fails; old snapshot kept",
    ),
];

/// When (and how often) an armed site fires. All variants are deterministic
/// functions of the site's token stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Fire on every invocation.
    Always,
    /// Fire on roughly this fraction of invocations, decided per token by the
    /// seeded hash. `1.0` behaves like [`Mode::Always`], `0.0` never fires.
    Probability(f64),
    /// Fire on every `n`-th invocation (tokens `n-1`, `2n-1`, ...). `Nth(0)`
    /// never fires.
    Nth(u64),
    /// Fire exactly once, on the invocation whose token equals the given
    /// value.
    Once(u64),
}

/// A seeded description of which sites are armed and how. Immutable once
/// installed; build one with [`FaultPlan::new`] + [`FaultPlan::site`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<String, Mode>,
}

impl FaultPlan {
    /// An empty plan (no sites armed) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Arms `name` with `mode`, replacing any previous mode for that site.
    #[must_use]
    pub fn site(mut self, name: &str, mode: Mode) -> Self {
        self.sites.insert(name.to_string(), mode);
        self
    }

    /// Arms every site in the [`SITES`] catalog with the same mode.
    #[must_use]
    pub fn all_sites(mut self, mode: Mode) -> Self {
        for (name, _) in SITES {
            self.sites.insert((*name).to_string(), mode);
        }
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if no site is armed.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    fn decide(&self, name: &str, token: u64) -> Option<u64> {
        let mode = *self.sites.get(name)?;
        let h = splitmix64(self.seed ^ fnv1a(name) ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match mode {
            Mode::Always => Some(h),
            Mode::Probability(p) => {
                // 53 uniform mantissa bits → [0, 1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < p {
                    Some(splitmix64(h))
                } else {
                    None
                }
            }
            Mode::Nth(n) => {
                if n > 0 && (token + 1).is_multiple_of(n) {
                    Some(h)
                } else {
                    None
                }
            }
            Mode::Once(k) => {
                if token == k {
                    Some(h)
                } else {
                    None
                }
            }
        }
    }
}

struct Active {
    plan: FaultPlan,
    // Per-site invocation counters for `fire`. Shared (Arc + Mutex) across
    // the plan's whole activation, including worker threads, so the token
    // stream is one sequence per site regardless of where calls originate.
    // Sites reachable from parallel workers must use `fire_keyed` instead.
    counters: Mutex<BTreeMap<String, u64>>,
}

/// Opaque handle to the thread's active plan state, used by `qd_runtime` to
/// carry fault injection across its scoped-thread boundary (thread-locals do
/// not propagate into spawned workers).
#[derive(Clone)]
pub struct ActivePlan(Arc<Active>);

thread_local! {
    static CURRENT: RefCell<Option<Arc<Active>>> = const { RefCell::new(None) };
}

struct Restore(Option<Arc<Active>>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Runs `f` with `plan` installed on this thread, restoring the previous
/// plan (if any) afterwards — panic or not. Counters start at zero for each
/// activation, so the same `(plan, workload)` pair always injects the same
/// faults.
pub fn with_plan<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
    let active = Arc::new(Active {
        plan: plan.clone(),
        counters: Mutex::new(BTreeMap::new()),
    });
    let _restore = Restore(CURRENT.with(|c| c.borrow_mut().replace(active)));
    f()
}

/// The plan state active on this thread, if any. Pair with [`with_current`]
/// to extend a plan activation onto another thread.
pub fn current() -> Option<ActivePlan> {
    CURRENT.with(|c| c.borrow().clone()).map(ActivePlan)
}

/// Runs `f` with a captured plan state (from [`current`]) installed on this
/// thread, sharing the original activation's counters. Restores the previous
/// state afterwards.
pub fn with_current<R>(handle: Option<ActivePlan>, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        std::mem::replace(&mut *cur, handle.map(|h| h.0))
    }));
    f()
}

/// True if a fault plan is active on this thread.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Registers a sequential failpoint. Returns `Some(payload)` when the active
/// plan says this invocation fails; the payload is a deterministic 64-bit
/// value call sites may use to derive fault details (truncation lengths,
/// corrupted ids). Each call advances the site's invocation counter.
///
/// Only call this from code that executes in a deterministic sequential
/// order; inside `par_map` closures use [`fire_keyed`].
pub fn fire(name: &str) -> Option<u64> {
    let active = CURRENT.with(|c| c.borrow().clone())?;
    let token = {
        let mut counters = match active.counters.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let slot = counters.entry(name.to_string()).or_insert(0);
        let t = *slot;
        *slot += 1;
        t
    };
    active.plan.decide(name, token)
}

/// Registers a keyed failpoint: the caller supplies the token (e.g. an item
/// index) instead of an invocation counter, making the decision independent
/// of thread scheduling. Safe to call from parallel workers.
pub fn fire_keyed(name: &str, key: u64) -> Option<u64> {
    let active = CURRENT.with(|c| c.borrow().clone())?;
    active.plan.decide(name, key)
}

/// Convenience: true when [`fire`] would return `Some`.
pub fn should_fail(name: &str) -> bool {
    fire(name).is_some()
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        assert_eq!(fire(site::CACHE_READ), None);
        assert_eq!(fire_keyed(site::CACHE_READ, 7), None);
    }

    #[test]
    fn always_fires_every_time() {
        let plan = FaultPlan::new(1).site("t.always", Mode::Always);
        with_plan(&plan, || {
            for _ in 0..10 {
                assert!(fire("t.always").is_some());
            }
            assert_eq!(fire("t.never"), None, "unarmed sites stay silent");
        });
        assert!(!enabled(), "plan uninstalled on exit");
    }

    #[test]
    fn nth_and_once_follow_the_token_stream() {
        let plan = FaultPlan::new(2)
            .site("t.nth", Mode::Nth(3))
            .site("t.once", Mode::Once(2));
        with_plan(&plan, || {
            let nth: Vec<bool> = (0..9).map(|_| fire("t.nth").is_some()).collect();
            assert_eq!(
                nth,
                vec![false, false, true, false, false, true, false, false, true]
            );
            let once: Vec<bool> = (0..5).map(|_| fire("t.once").is_some()).collect();
            assert_eq!(once, vec![false, false, true, false, false]);
        });
    }

    #[test]
    fn probability_extremes() {
        let plan = FaultPlan::new(3)
            .site("t.p0", Mode::Probability(0.0))
            .site("t.p1", Mode::Probability(1.0));
        with_plan(&plan, || {
            for k in 0..50 {
                assert_eq!(fire_keyed("t.p0", k), None);
                assert!(fire_keyed("t.p1", k).is_some());
            }
        });
    }

    #[test]
    fn probability_rate_is_roughly_calibrated() {
        let plan = FaultPlan::new(4).site("t.p", Mode::Probability(0.3));
        with_plan(&plan, || {
            let hits = (0..10_000)
                .filter(|&k| fire_keyed("t.p", k).is_some())
                .count();
            assert!(
                (2500..3500).contains(&hits),
                "hit rate {hits}/10000 far from 0.3"
            );
        });
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_differ_across_seeds() {
        let run = |seed: u64| -> Vec<Option<u64>> {
            let plan = FaultPlan::new(seed).site("t.d", Mode::Probability(0.5));
            with_plan(&plan, || (0..64).map(|_| fire("t.d")).collect())
        };
        assert_eq!(run(11), run(11), "same seed, same faults and payloads");
        assert_ne!(run(11), run(12), "different seed, different faults");
    }

    #[test]
    fn keyed_decisions_ignore_call_order() {
        let plan = FaultPlan::new(5).site("t.k", Mode::Probability(0.5));
        let forward: Vec<_> = with_plan(&plan, || (0..32).map(|k| fire_keyed("t.k", k)).collect());
        let mut backward: Vec<_> = with_plan(&plan, || {
            (0..32).rev().map(|k| fire_keyed("t.k", k)).collect()
        });
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn counters_reset_per_activation() {
        let plan = FaultPlan::new(6).site("t.c", Mode::Once(0));
        let first = with_plan(&plan, || (fire("t.c").is_some(), fire("t.c").is_some()));
        let second = with_plan(&plan, || fire("t.c").is_some());
        assert_eq!(first, (true, false));
        assert!(second, "fresh activation restarts the token stream");
    }

    #[test]
    fn nested_plans_restore_the_outer_plan() {
        let outer = FaultPlan::new(7).site("t.outer", Mode::Always);
        let inner = FaultPlan::new(8).site("t.inner", Mode::Always);
        with_plan(&outer, || {
            assert!(should_fail("t.outer"));
            with_plan(&inner, || {
                assert!(should_fail("t.inner"));
                assert!(!should_fail("t.outer"), "inner plan shadows outer");
            });
            assert!(should_fail("t.outer"), "outer plan restored");
        });
    }

    #[test]
    fn current_handle_extends_activation_to_another_thread() {
        let plan = FaultPlan::new(9).site("t.x", Mode::Once(1));
        with_plan(&plan, || {
            assert!(fire("t.x").is_none(), "token 0 does not fire");
            let handle = current();
            #[expect(
                clippy::disallowed_methods,
                reason = "the handoff under test crosses a raw OS thread; qd-runtime \
                          depends on qd-fault, so its executor is out of reach here"
            )]
            let fired = std::thread::scope(|s| {
                s.spawn(|| with_current(handle, || fire("t.x").is_some()))
                    .join()
                    .unwrap_or(false)
            });
            assert!(fired, "worker shares the counter stream (token 1 fires)");
            assert!(fire("t.x").is_none(), "token 2 back on the parent");
        });
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, desc) in SITES {
            assert!(seen.insert(*name), "duplicate site {name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
            assert!(!desc.is_empty());
        }
    }

    #[test]
    fn all_sites_arms_the_whole_catalog() {
        let plan = FaultPlan::new(10).all_sites(Mode::Always);
        with_plan(&plan, || {
            for (name, _) in SITES {
                assert!(fire_keyed(name, 0).is_some());
            }
        });
    }
}
