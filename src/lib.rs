//! # pushpull
//!
//! Facade crate for the executable reproduction of **“The Push/Pull Model
//! of Transactions”** (Koskinen & Parkinson, PLDI 2015). Re-exports the
//! workspace crates under one roof and hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! * [`core`] — the PUSH/PULL machine, criteria, oracles (`pushpull-core`)
//! * [`spec`] — sequential specifications (`pushpull-spec`)
//! * [`ds`] — substrate data structures (`pushpull-ds`)
//! * [`tm`] — the §6/§7 algorithm classes (`pushpull-tm`)
//! * [`analysis`] — the spec certifier (`pushpull-analysis`)
//! * [`harness`] — schedulers, model checker, workloads (`pushpull-harness`)
//! * [`server`] — the transactional service front-end: session
//!   multiplexing, each transaction committed as one held section
//!   (`pushpull-server`)
//!
//! ## Quick start
//!
//! ```
//! use pushpull::core::lang::Code;
//! use pushpull::core::serializability::check_machine;
//! use pushpull::harness::{run, RoundRobin};
//! use pushpull::spec::kvmap::{KvMap, MapMethod};
//! use pushpull::tm::{BoostingSystem, TmSystem};
//!
//! let mut sys = BoostingSystem::new(
//!     KvMap::new(),
//!     vec![
//!         vec![Code::method(MapMethod::Put(1, 10))],
//!         vec![Code::method(MapMethod::Put(2, 20))],
//!     ],
//! );
//! run(&mut sys, &mut RoundRobin, 10_000)?;
//! assert!(check_machine(sys.machine()).is_serializable());
//! # Ok::<(), pushpull::core::error::MachineError>(())
//! ```

#![forbid(unsafe_code)]

pub use pushpull_analysis as analysis;
pub use pushpull_core as core;
pub use pushpull_ds as ds;
pub use pushpull_harness as harness;
pub use pushpull_server as server;
pub use pushpull_spec as spec;
pub use pushpull_tm as tm;
