//! # billcap-rt
//!
//! The workspace runtime: deterministic random number generation, scoped
//! worker-pool execution, and a minimal benchmarking harness — all in
//! plain `std`, so the entire `billcap` workspace builds and tests with
//! **zero external dependencies** (hermetic, offline, reproducible).
//!
//! The crate exists because the reproduction's workloads are
//! scenario-sweep shaped: the bill capper solves two MILPs every hour,
//! and the evaluation re-runs whole months of hourly instances across
//! policies, budgets, and seeds. That demands (a) bit-for-bit
//! reproducible randomness so every figure is replayable from a seed,
//! and (b) cheap data-parallel fan-out for the sweeps and the solver's
//! branch-and-bound search.
//!
//! * [`rng`] — SplitMix64-seeded xoshiro256++ behind a small
//!   `rand`-style trait ([`Rng`], `random::<f64>()`, `seed_from_u64`).
//! * [`pool`] — `std::thread::scope` worker pools: [`par_map_threads`],
//!   [`try_par_map`], [`try_par_map_init_threads`] (per-worker state),
//!   and the raw [`run_workers`].
//! * [`bench`](mod@bench) — a self-contained benchmark harness for
//!   `harness = false` bench targets.

#![forbid(unsafe_code)]

pub mod bench;
pub mod pool;
pub mod rng;

pub use bench::{BenchConfig, BenchResult, Harness};
pub use pool::{
    num_threads, par_map_threads, run_workers, try_par_map, try_par_map_init_threads,
    try_par_map_threads,
};
pub use rng::{FromRng, Rng, SeedStream, SplitMix64, Xoshiro256pp};
