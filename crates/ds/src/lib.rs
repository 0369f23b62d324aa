//! # pushpull-ds
//!
//! Substrate data structures for the Push/Pull reproduction — everything
//! the paper's evaluated systems assume and we therefore build:
//!
//! * [`skiplist`] — a probabilistic skip-list map, standing in for the
//!   `ConcurrentSkipListMap`/`ConcurrentSkipList` base objects of
//!   Figure 2 and §7;
//! * [`locks`] — abstract locks with waits-for deadlock detection,
//!   boosting's synchronization substrate;
//! * [`memory`] — a TL2-style versioned memory with a global version
//!   clock, and an HTM-style eager conflict tracker (the simulated
//!   hardware of §7);
//! * [`sync`] — a linearization wrapper turning the sequential base
//!   objects into linearizable shared ones.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod locks;
pub mod memory;
pub mod mirror;
pub mod rwlocks;
pub mod skiplist;
pub mod sync;

pub use locks::{AbstractLockManager, LockOutcome};
pub use memory::{GlobalClock, HtmConflicts, VersionedMemory};
pub use mirror::{MirrorError, SkipListMirror};
pub use rwlocks::{Mode, RwLockTable, RwOutcome};
pub use skiplist::SkipListMap;
pub use sync::Linearized;
