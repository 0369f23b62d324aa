//! Linearization wrapper for base objects.
//!
//! Transactional boosting assumes a *linearizable* base object (the
//! paper's `ConcurrentSkipListMap`). Our substitution gives the
//! sequential [`SkipListMap`](crate::skiplist::SkipListMap) a
//! linearizable concurrent interface the cheapest sound way: one lock
//! around each operation. Linearization points coincide with the critical
//! sections, which is all boosting needs — scalability of the base object
//! is orthogonal to the transaction-level behaviour the reproduction
//! studies.

use std::sync::{Arc, Mutex};

/// A shareable, linearizable wrapper around a sequential object.
///
/// # Examples
///
/// ```
/// use pushpull_ds::sync::Linearized;
/// use pushpull_ds::skiplist::SkipListMap;
///
/// let shared = Linearized::new(SkipListMap::new());
/// let clone = shared.clone();
/// shared.with(|m| m.insert(1, "a"));
/// assert_eq!(clone.with(|m| m.get(&1).copied()), Some("a"));
/// ```
#[derive(Debug, Default)]
pub struct Linearized<T> {
    inner: Arc<Mutex<T>>,
}

impl<T> Linearized<T> {
    /// Wraps a sequential object.
    pub fn new(inner: T) -> Self {
        Self {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Runs `f` atomically on the object; the critical section is the
    /// linearization point.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.inner.lock().expect("linearized object poisoned");
        f(&mut guard)
    }
}

impl<T> Clone for Linearized<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skiplist::SkipListMap;

    #[test]
    fn concurrent_inserts_are_all_applied() {
        let shared = Linearized::new(SkipListMap::new());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    s.with(|m| m.insert(t * 1000 + i, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.with(|m| m.len()), 1000);
    }
}
