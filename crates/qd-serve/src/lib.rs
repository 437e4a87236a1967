#![warn(missing_docs)]
// A serving path returns a typed error or degrades; it never panics on input.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Supervised multi-tenant serving for the Query Decomposition engine.
//!
//! The paper's efficiency argument (§5.2) is that QD makes relevance
//! feedback cheap enough to *serve*: feedback rounds are pure tree descent
//! over the shared RFS structure, so one immutable snapshot can drive many
//! concurrent user sessions. This crate supplies the serving layer that
//! argument implies:
//!
//! * a [`Server`] owning `Arc` snapshots of the corpus and RFS structure,
//!   driving interleaved sessions through a deterministic round-robin
//!   scheduler with a bounded wait queue — one step at a time, on the
//!   calling thread, because a step is far cheaper than a thread fan-out;
//! * **admission control** with seeded load shedding — overload behavior is
//!   a pure function of `(shed seed, session id)`, never of arrival timing;
//! * **deadlines** in deterministic cost units, enforced through the
//!   engine's anytime `distance_budget` path: an over-deadline session is
//!   truncated to a valid best-so-far prefix, not killed;
//! * **panic isolation**: a poisoned session is caught, quarantined, and
//!   reported without disturbing any neighbor's outcome or trace;
//! * a seeded open-loop [load generator](LoadPlan) covering the scenario
//!   matrix (cooperative, drifting-intent, contradictory-marks,
//!   impatient-truncation).
//!
//! Everything is wall-clock-free: time is scheduler ticks, cost is
//! representative displays plus distance computations. Two runs of the same
//! `(plan, config, fault seed)` triple are byte-identical at any thread
//! count.

pub mod load;
pub mod server;

pub use load::{LoadConfig, LoadPlan, Scenario, SessionId, SessionSpec};
pub use server::{
    EvictReason, ServeConfig, ServeReport, Server, SessionOutcome, SessionReport, SessionState,
};
