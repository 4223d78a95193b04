//! # liair-core
//!
//! The paper's primary contribution: a communication-avoiding,
//! pair-distributed evaluation of Hartree–Fock exact exchange (HFX) for
//! condensed-phase ab initio MD, with controllable accuracy.
//!
//! The exchange energy over occupied orbitals decomposes into independent
//! orbital-pair terms `(ij|ij) = ∬ ρ_ij(r) ρ_ij(r') v_C`, each costing one
//! forward/inverse FFT pair on a small pair-local grid. The scheme:
//!
//! 1. **Localize** the occupied orbitals (`liair-grid::localize`) so pair
//!    magnitudes decay with center distance;
//! 2. **Screen** ([`screening`]) with a single accuracy knob ε — the
//!    surviving pair list is the task list;
//! 3. **Balance** ([`balance`]) tasks across ranks (greedy LPT by default);
//! 4. **Execute**: node-local threaded FFTs per pair ([`hfx`] — the real
//!    rayon executor), partial energies/potentials combined by *one*
//!    reduction per build instead of per-FFT all-to-alls — this
//!    restructuring is the entire 10–20× win;
//! 5. At scale beyond the pair count, pairs are processed by small **node
//!    groups** ([`simulate`]) — the hierarchical second level of
//!    parallelism that keeps 6,291,456 threads busy.
//!
//! [`distributed`] runs the same algorithm over the message-passing runtime
//! (correctness at laptop scale); [`simulate`] prices the same task lists
//! on the BG/Q model (performance at paper scale), alongside the two
//! baselines the paper compares against.
//!
//! All of the above are thin configurations of one staged driver:
//! [`engine::ExchangeEngine`] owns the canonical build pipeline (pair
//! source → execute backend → ordered accumulate), the fixed pair kernel
//! (packed two-pair chunks, an r2c single for an odd tail), and the
//! per-phase [`engine::BuildProfile`] instrumentation.

#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod balance;
pub mod cachepool;
pub mod distributed;
pub mod domain;
pub mod engine;
pub mod error;
pub mod hfx;
pub mod incremental;
pub mod operator;
pub mod screening;
pub mod simulate;
pub mod workload;

pub use balance::{assign_pairs, Assignment, BalanceStrategy};
pub use cachepool::{CachePoolStats, ExchangeCachePool, SystemKey};
pub use domain::{
    build_pair_list_sharded, exchange_halo, sharded_pair_list_spmd, DomainDecomposition,
    DomainGeometry,
};
pub use engine::{
    BuildProfile, CollectiveMode, CommTuning, EngineBuilder, EngineScratch, ExchangeEngine,
    ExecBackend, FaultPlan, KBuildOutcome, KGeometry, PipelineMode,
};
pub use error::{Error, Result};
pub use hfx::{exchange_energy, exchange_energy_patched, HfxResult};
pub use incremental::{Fingerprint, IncStats, IncrementalExchange};
pub use operator::{
    exchange_operator_grid, rhf_with_grid_exchange, rhf_with_grid_exchange_in_cell,
    rhf_with_grid_exchange_incremental, rhf_with_grid_exchange_scheduled, GridScfResult,
};
pub use screening::{
    build_pair_list, build_pair_list_celllist, source_pairs, CrossBins, EpsSchedule, IncSchedule,
    OrbitalInfo, Pair, PairList,
};
pub use simulate::{simulate_hfx_build, Scheme, SimOutcome};
pub use workload::Workload;
