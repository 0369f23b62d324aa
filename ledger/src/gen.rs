//! Seeded input generation: the benchmark's own generator, so the product
//! sees nothing but the generated sessions and programs.
//!
//! Every epoch's input is a pure function of `(seed, workload, epoch
//! index)`. A run draws a fresh epoch index for every epoch, so what a run
//! reports is a median over many inputs and does not hinge on how one seed
//! happened to deal the keys.

use std::hash::{Hash, Hasher};

use pushpull_server::SessionScript;
use pushpull_spec::kvmap::MapMethod;
use pushpull_spec::rwmem::{Loc, MemMethod};

/// Operations per session and per transaction in every workload.
pub const OPS_PER_TXN: usize = 3;

/// SplitMix64: a full-period generator whose streams are cheap to derive
/// from a key, which is what per-epoch inputs need.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(seed, workload tag, epoch)`.
    pub fn stream(seed: u64, tag: u64, epoch: u64) -> Self {
        let mut r = Rng(seed);
        let a = r.next();
        let mut r = Rng(a ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        let b = r.next();
        Rng(b ^ epoch.wrapping_mul(0x9FB2_1C65_1E98_DF25))
    }

    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over whatever `Hash` feeds it: the input hash a run records, so
/// two runs can show they measured the same inputs.
#[derive(Debug, Clone)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for InputHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One epoch of a server workload.
#[derive(Debug, Clone)]
pub struct KvEpoch {
    /// The sessions, indexed by session id.
    pub scripts: Vec<SessionScript<MapMethod>>,
    /// `ServerConfig::seed` for this epoch (the admission deal).
    pub server_seed: u64,
    /// The committed key → value state the epoch must end in, ascending by
    /// key, when the input fixes it (session-private keys).
    pub expected: Option<Vec<(u64, i64)>>,
}

impl KvEpoch {
    /// Folds this epoch's input into `h`.
    pub fn hash_into(&self, h: &mut InputHash) {
        self.server_seed.hash(h);
        for s in &self.scripts {
            s.ops.hash(h);
        }
    }
}

const TAG_FRESH: u64 = 1;
const TAG_REUSE: u64 = 2;
const TAG_TM: u64 = 3;

/// `sessions` sessions of `Put(s,a); Get(s); Put(s,b)`, each on its own key.
pub fn fresh_epoch(seed: u64, epoch: u64, sessions: usize) -> KvEpoch {
    let mut rng = Rng::stream(seed, TAG_FRESH, epoch);
    let server_seed = rng.next();
    let mut expected = Vec::with_capacity(sessions);
    let scripts = (0..sessions as u64)
        .map(|s| {
            let a = rng.below(1000) as i64;
            let b = rng.below(1000) as i64;
            expected.push((s, b));
            SessionScript::commit(vec![
                MapMethod::Put(s, a),
                MapMethod::Get(s),
                MapMethod::Put(s, b),
            ])
        })
        .collect();
    KvEpoch {
        scripts,
        server_seed,
        expected: Some(expected),
    }
}

/// `sessions` sessions over `keys` shared keys: three in four read a key,
/// write it and read another; the fourth only reads.
pub fn reuse_epoch(seed: u64, epoch: u64, sessions: usize, keys: u64) -> KvEpoch {
    let mut rng = Rng::stream(seed, TAG_REUSE, epoch);
    let server_seed = rng.next();
    let scripts = (0..sessions)
        .map(|_| {
            let (k, k2, k3) = (rng.below(keys), rng.below(keys), rng.below(keys));
            let ops = if rng.below(4) == 0 {
                vec![MapMethod::Get(k), MapMethod::Get(k2), MapMethod::Get(k3)]
            } else {
                let v = rng.below(1000) as i64;
                vec![MapMethod::Get(k), MapMethod::Put(k, v), MapMethod::Get(k2)]
            };
            SessionScript::commit(ops)
        })
        .collect();
    KvEpoch {
        scripts,
        server_seed,
        expected: None,
    }
}

/// One epoch of `tm_rw`: the same read/write pattern rendered for the
/// key-value map (optimistic, boosting) and for word memory (TL2), as
/// `[thread][transaction][operation]`.
#[derive(Debug, Clone)]
pub struct TmEpoch {
    /// Programs over `KvMap`.
    pub kv: Vec<Vec<Vec<MapMethod>>>,
    /// The same programs over `RwMem`.
    pub mem: Vec<Vec<Vec<MemMethod>>>,
}

impl TmEpoch {
    /// Folds this epoch's input into `h` (the two renderings are
    /// isomorphic, so one suffices).
    pub fn hash_into(&self, h: &mut InputHash) {
        self.kv.hash(h);
    }
}

/// `threads × txns` transactions of [`OPS_PER_TXN`] operations over `keys`
/// keys, half of the operations reads.
pub fn tm_epoch(seed: u64, epoch: u64, threads: usize, txns: usize, keys: u64) -> TmEpoch {
    let mut rng = Rng::stream(seed, TAG_TM, epoch);
    let mut kv = Vec::with_capacity(threads);
    let mut mem = Vec::with_capacity(threads);
    for _ in 0..threads {
        let mut kv_thread = Vec::with_capacity(txns);
        let mut mem_thread = Vec::with_capacity(txns);
        for _ in 0..txns {
            let mut kv_txn = Vec::with_capacity(OPS_PER_TXN);
            let mut mem_txn = Vec::with_capacity(OPS_PER_TXN);
            for _ in 0..OPS_PER_TXN {
                let k = rng.below(keys);
                if rng.below(2) == 0 {
                    kv_txn.push(MapMethod::Get(k));
                    mem_txn.push(MemMethod::Read(Loc(k as u32)));
                } else {
                    let v = rng.below(1000) as i64;
                    kv_txn.push(MapMethod::Put(k, v));
                    mem_txn.push(MemMethod::Write(Loc(k as u32), v));
                }
            }
            kv_thread.push(kv_txn);
            mem_thread.push(mem_txn);
        }
        kv.push(kv_thread);
        mem.push(mem_thread);
    }
    TmEpoch { kv, mem }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(seed: u64) -> u64 {
        let mut h = InputHash::default();
        fresh_epoch(seed, 0, 64).hash_into(&mut h);
        reuse_epoch(seed, 1, 64, 16).hash_into(&mut h);
        tm_epoch(seed, 2, 2, 16, 64).hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn same_seed_same_input_hash() {
        assert_eq!(hash_of(7), hash_of(7));
        assert_ne!(hash_of(7), hash_of(8));
    }

    #[test]
    fn epochs_of_one_seed_differ() {
        let a = reuse_epoch(7, 0, 64, 16);
        let b = reuse_epoch(7, 1, 64, 16);
        assert_ne!(a.scripts, b.scripts);
        assert_ne!(a.server_seed, b.server_seed);
    }

    #[test]
    fn reuse_mix_is_three_quarters_read_modify_write() {
        let e = reuse_epoch(3, 0, 4096, 16);
        let writers = e
            .scripts
            .iter()
            .filter(|s| s.ops.iter().any(|m| matches!(m, MapMethod::Put(..))))
            .count();
        assert!((2900..3250).contains(&writers), "{writers}");
        assert!(e.scripts.iter().all(|s| s.ops.len() == OPS_PER_TXN));
    }

    #[test]
    fn tm_renderings_are_isomorphic() {
        let e = tm_epoch(5, 0, 2, 16, 64);
        assert_eq!(e.kv.len(), 2);
        assert_eq!(e.mem[1].len(), 16);
        for (kt, mt) in e.kv.iter().flatten().zip(e.mem.iter().flatten()) {
            for (k, m) in kt.iter().zip(mt) {
                match (k, m) {
                    (MapMethod::Get(a), MemMethod::Read(Loc(b))) => assert_eq!(*a, u64::from(*b)),
                    (MapMethod::Put(a, v), MemMethod::Write(Loc(b), w)) => {
                        assert_eq!((*a, *v), (u64::from(*b), *w));
                    }
                    other => panic!("renderings diverge: {other:?}"),
                }
            }
        }
    }
}
