//! # pushpull-ds
//!
//! Substrate data structures for the Push/Pull reproduction — the
//! machinery the paper's evaluated systems assume, one implementation per
//! job:
//!
//! * [`rwlocks`] — the one ownership table: shared/exclusive holders per
//!   key with waits-for deadlock detection, behind boosting's abstract
//!   locks, strict 2PL, the simulated HTM's eager word conflicts and
//!   TL2's commit locks;
//! * [`memory`] — TL2's global version clock and per-location versions;
//! * [`mirror`] — Figure 2's base object: the committed map log replayed
//!   into `std`'s `BTreeMap` (for the paper's `ConcurrentSkipListMap`),
//!   checking every recorded return value;
//! * [`sync`] — a linearization wrapper turning a sequential base object
//!   into a linearizable shared one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod memory;
pub mod mirror;
pub mod rwlocks;
pub mod sync;

pub use memory::{GlobalClock, VersionedMemory};
pub use mirror::{MapMirror, MirrorError};
pub use rwlocks::{Mode, RwLockTable, RwOutcome};
pub use sync::Linearized;
