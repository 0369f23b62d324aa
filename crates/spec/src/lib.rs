//! # pushpull-spec
//!
//! Sequential specifications for the Push/Pull model of transactions
//! (Koskinen & Parkinson, PLDI 2015), instantiating
//! [`pushpull_core::spec::SeqSpec`]:
//!
//! * [`rwmem`] — read/write memory, the substrate of word-based STMs
//!   (TL2, TinySTM) and the simulated HTM, with an *exact* per-value
//!   mover oracle;
//! * [`counter`] — an unbounded commutative counter (abstract-level
//!   conflict, as in boosted `size` fields);
//! * [`kvmap`] — a key-value map (the boosted hashtable of Figure 2 and
//!   the boosted skip-list map of §7), with per-key commutativity and a
//!   presence-aware `Size` rule;
//! * [`set`] — a mathematical set, boosting's canonical example;
//! * [`queue`] — a FIFO queue, deliberately non-commutative, exercising
//!   the pessimistic end of the spectrum;
//! * [`bank`] — bank accounts with the textbook Lipton left/right-mover
//!   asymmetry (withdraw moves across deposit, not vice versa);
//! * [`composite`] — products of specifications (§7's multi-object
//!   transactions), cross-component operations always commuting;
//! * [`inverse`] — the law every spec's inverse oracle obeys, validating
//!   the paper's "UNPUSH … typically implemented via inverse operations";
//! * [`refinement`] — the §6.1 opacity-refinement oracle (may a
//!   transaction pull this uncommitted effect?).
//!
//! Every specification ships an **algebraic** mover oracle (usable on the
//! unbounded state space) and a **bounded** constructor exposing a finite
//! state universe; the test suites prove the algebraic oracles *sound*
//! against exhaustive checking of Definition 4.1 on the bounded variants.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bank;
pub mod composite;
pub mod counter;
pub mod inverse;
pub mod kvmap;
pub mod queue;
pub mod refinement;
pub mod register;
pub mod rwmem;
pub mod set;

pub use bank::Bank;
pub use composite::{Either, Product};
pub use counter::Counter;
pub use kvmap::KvMap;
pub use queue::QueueSpec;
pub use register::CasRegister;
pub use rwmem::RwMem;
pub use set::SetSpec;
