//! Loom model of the stamp-ordered append (`global.rs`). Compiled
//! **only** under `--cfg loom`, because `loom` is deliberately not a
//! dependency of the offline container build — the CI loom job adds it
//! on the runner:
//!
//! ```text
//! cargo add loom@0.7 --dev -p pushpull-core
//! RUSTFLAGS="--cfg loom" cargo test -p pushpull-core --test loom_models --release
//! ```
//!
//! Loom explores every allowed interleaving *and memory ordering* of the
//! one atomic the shard log shares across shard locks: the stamp
//! counter.
#![cfg(loom)]

use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Stamp-ordered append: concurrent appenders claim stamps from one
/// atomic counter (as `GlobalState::push_stamp` orders PUSHes on
/// different shards, each under its own shard mutex). The claimed
/// stamps must be dense, unique, and monotone per thread — the
/// properties the stamp-ordered merge of the shards relies on.
#[test]
fn stamp_ordered_append_is_dense_unique_and_monotone() {
    const PER_THREAD: usize = 2;
    loom::model(|| {
        let stamp = Arc::new(AtomicU64::new(0));
        let claims = Arc::new([
            AtomicU32::new(0),
            AtomicU32::new(0),
            AtomicU32::new(0),
            AtomicU32::new(0),
        ]);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let stamp = Arc::clone(&stamp);
            let claims = Arc::clone(&claims);
            handles.push(thread::spawn(move || {
                let mut mine = Vec::new();
                for _ in 0..PER_THREAD {
                    let s = stamp.fetch_add(1, Ordering::SeqCst);
                    claims[s as usize].fetch_add(1, Ordering::SeqCst);
                    mine.push(s);
                }
                assert!(mine.windows(2).all(|w| w[0] < w[1]), "stamps not monotone");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "stamp {i} not claimed once");
        }
    });
}
