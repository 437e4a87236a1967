//! The seeded inputs of a run. The database is a fixture; everything the
//! benchmark sends at it — queries, users, k-NN probes, update victims and
//! the two serving plans — is generated here from `--seed`, and the program
//! under test receives only these generated values.

use crate::spec::{Workload, ACTIVE_SLOTS};
use qd_bench::simqueries::random_queries;
use qd_core::session::QdConfig;
use qd_core::SimulatedUser;
use qd_corpus::{queries, Corpus, QuerySpec};
use qd_serve::{LoadConfig, LoadPlan, SessionId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Results asked of a simulated session: the ground-truth size, capped so a
/// session stays a screenful of images at every database size.
const MAX_K: usize = 100;

/// Users simulated per standard query for the two quality metrics.
const QUALITY_USERS: u64 = 8;

/// Cost-unit deadline of impatient serving tenants (the `qd-serve` default).
const DEADLINE: u64 = 900;

/// Behaviour scenarios `qd-serve` deals its tenants.
const SCENARIOS: usize = 4;

/// Distinct images that take turns being removed and re-inserted.
const VICTIMS: usize = 16;

/// SplitMix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a stream of words — the digest of result lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// One simulated feedback session.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// What the user is looking for.
    pub query: QuerySpec,
    /// Results requested.
    pub k: usize,
    /// Seed of the oracle user.
    pub user_seed: u64,
    /// Engine parameters (rounds and the display shuffle seed vary).
    pub cfg: QdConfig,
}

impl SessionInput {
    fn new(corpus: &Corpus, query: QuerySpec, rounds: usize, seed: u64) -> Self {
        SessionInput {
            k: corpus.ground_truth(&query).len().clamp(1, MAX_K),
            query,
            user_seed: mix64(seed ^ 0x75E2),
            cfg: QdConfig {
                rounds,
                seed: mix64(seed ^ 0xC0F6),
                ..QdConfig::default()
            },
        }
    }

    /// A fresh oracle user for this session.
    pub fn user(&self) -> SimulatedUser {
        SimulatedUser::oracle(&self.query, self.user_seed)
    }
}

/// The run-level part of the traffic: what must stay the same from cycle
/// to cycle.
#[derive(Debug, Clone)]
pub struct Traffic {
    seed: u64,
    /// The 11 standard queries of Table 1 under several users — quality.
    pub quality: Vec<SessionInput>,
    /// Images removed and re-inserted, in turn; each cycle's update undoes
    /// or is undone by its neighbour's, so the list outlives the cycles.
    pub victims: Vec<u64>,
}

/// One cycle's traffic. Every cycle draws fresh queries, probes and plans,
/// so a run averages over many inputs instead of re-timing a few.
#[derive(Debug, Clone)]
pub struct Burst {
    /// Simulated sessions: 1–3 random target categories each (§5.2.2). The
    /// stepped and the MV sessions are prefixes of this list.
    pub sessions: Vec<SessionInput>,
    /// Images whose own vectors are the root-scope k-NN queries.
    pub probes: Vec<usize>,
    /// Arrivals at one tenant per tick: sized so nobody is shed. Both plans
    /// are balanced over (standard query, scenario) pairs.
    pub plan_steady: LoadPlan,
    /// Arrivals at twice the rate the active slots drain: a session holds
    /// its slot for `rounds + 1` ticks, so part of this plan must be shed.
    pub plan_overload: LoadPlan,
}

/// A serving plan in which every (standard query, scenario) pair occurs
/// equally often. A tenant's cost depends heavily on that pair — a
/// contradictory user of a three-group query marks ten times the clusters an
/// impatient user of a one-group query does — so an unbalanced draw of a
/// hundred tenants says more about the draw than about the server.
///
/// The tenants are `qd-serve`'s own: a larger plan is generated and the first
/// `users / pairs` tenants of each pair are kept, in arrival order, then
/// renumbered onto the requested arrival schedule.
fn balanced_plan(corpus: &Corpus, config: &LoadConfig) -> LoadPlan {
    let pairs = queries::standard_queries(corpus.taxonomy()).len() * SCENARIOS;
    assert_eq!(
        config.users % pairs,
        0,
        "tenants must be a multiple of {pairs}"
    );
    let per_pair = config.users / pairs;
    let mut kept: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
    let mut specs = Vec::with_capacity(config.users);
    let mut pool = config.users * 8;
    while specs.len() < config.users {
        kept.clear();
        specs.clear();
        let drawn = LoadPlan::generate(
            corpus,
            &LoadConfig {
                users: pool,
                ..config.clone()
            },
        );
        for spec in drawn.specs {
            let seen = kept
                .entry((spec.query.name.clone(), spec.scenario.name()))
                .or_insert(0);
            if *seen < per_pair {
                *seen += 1;
                specs.push(spec);
            }
        }
        pool *= 2;
    }
    for (i, spec) in specs.iter_mut().enumerate() {
        spec.id = SessionId(i as u64);
        spec.arrival_tick = i as u64 / config.arrivals_per_tick;
    }
    LoadPlan { specs }
}

fn shuffled_ids(corpus: &Corpus, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..corpus.len()).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids
}

impl Traffic {
    /// Generates the run-level traffic of `workload` from `seed`.
    pub fn generate(corpus: &Corpus, workload: &Workload, seed: u64) -> Traffic {
        let quality = queries::standard_queries(corpus.taxonomy())
            .into_iter()
            .flat_map(|q| (0..QUALITY_USERS).map(move |u| (q.clone(), u)))
            .enumerate()
            .map(|(i, (q, u))| {
                let salt = mix64(seed ^ 3) ^ ((i as u64) << 8) ^ u;
                SessionInput::new(corpus, q, workload.rounds, salt)
            })
            .collect();
        let victims = shuffled_ids(corpus, mix64(seed ^ 4))
            .into_iter()
            .take(VICTIMS)
            .map(|id| id as u64)
            .collect();
        Traffic {
            seed,
            quality,
            victims,
        }
    }

    /// Generates the traffic of cycle `cycle`.
    pub fn burst(&self, corpus: &Corpus, workload: &Workload, cycle: usize) -> Burst {
        let mix = workload.mix;
        let seed = mix64(self.seed ^ mix64(cycle as u64 + 1));
        let sessions = random_queries(corpus.taxonomy(), mix.sessions, mix64(seed ^ 1))
            .into_iter()
            .enumerate()
            .map(|(i, q)| SessionInput::new(corpus, q, workload.rounds, mix64(seed ^ 2) ^ i as u64))
            .collect();
        let mut probes = shuffled_ids(corpus, mix64(seed ^ 5));
        probes.truncate(mix.knn);
        let plan = |arrivals_per_tick: usize, salt: u64| {
            let config = LoadConfig {
                users: mix.tenants,
                seed: mix64(seed ^ salt),
                arrivals_per_tick: arrivals_per_tick as u64,
                rounds: workload.rounds,
                k: Some(MAX_K),
                deadline: DEADLINE,
            };
            balanced_plan(corpus, &config)
        };
        Burst {
            sessions,
            probes,
            plan_steady: plan(1, 6),
            plan_overload: plan(2 * ACTIVE_SLOTS / (workload.rounds + 1), 7),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{tiny, workloads};

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        let workload = tiny(&workloads()[0]);
        let corpus = Corpus::build(&workload.corpus);
        let make = |seed: u64| Traffic::generate(&corpus, &workload, seed);
        let (a, b, c) = (make(7), make(7), make(8));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(a.victims, c.victims);
        assert_eq!(a.quality.len(), 11 * QUALITY_USERS as usize);

        let burst = |t: &Traffic, cycle: usize| t.burst(&corpus, &workload, cycle);
        let bytes = |t: &Traffic, cycle: usize| format!("{:?}", burst(t, cycle));
        assert_eq!(bytes(&a, 3), bytes(&b, 3));
        // Another seed, and another cycle of the same seed, are other inputs.
        assert_ne!(bytes(&a, 3), bytes(&c, 3));
        assert_ne!(bytes(&a, 3), bytes(&a, 4));
        assert_ne!(burst(&a, 3).probes, burst(&a, 4).probes);
        let one = burst(&a, 0);
        assert_eq!(one.sessions.len(), workload.mix.sessions);
        assert_eq!(one.probes.len(), workload.mix.knn);
        assert_eq!(one.plan_steady.specs.len(), workload.mix.tenants);
        assert_eq!(one.plan_overload.specs.len(), workload.mix.tenants);
        // Balanced: every (query, scenario) pair exactly as often as any other.
        let mut pairs: BTreeMap<(String, &str), usize> = BTreeMap::new();
        for spec in &one.plan_steady.specs {
            *pairs
                .entry((spec.query.name.clone(), spec.scenario.name()))
                .or_default() += 1;
        }
        assert_eq!(pairs.len(), 11 * SCENARIOS);
        assert!(pairs
            .values()
            .all(|&n| n == workload.mix.tenants / pairs.len()));
        let ticks: Vec<u64> = one
            .plan_overload
            .specs
            .iter()
            .map(|s| s.arrival_tick)
            .collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]) && ticks[0] == 0);
    }
}
