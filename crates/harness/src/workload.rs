//! Random workload generators for the tests and examples that run one
//! transaction mix through several algorithms (`algorithms_compare`,
//! `experiment_sweeps`, `tests/serializability_algorithms.rs`,
//! `tests/server_equivalence.rs`, `tests/invariants.rs`).
//!
//! Workloads are seeded and deterministic: the same [`WorkloadSpec`]
//! always yields the same programs, so every algorithm compared runs the
//! identical transaction mix.

use pushpull_core::lang::Code;
use pushpull_core::rng::Xorshift64;
use pushpull_spec::bank::BankMethod;
use pushpull_spec::counter::CtrMethod;
use pushpull_spec::kvmap::MapMethod;
use pushpull_spec::rwmem::{Loc, MemMethod};

/// Parameters of a generated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of threads.
    pub threads: usize,
    /// Transactions per thread.
    pub txns_per_thread: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Keys/locations/accounts are drawn from `0..key_range`.
    pub key_range: u64,
    /// Fraction of operations that are reads, in `\[0, 1\]`.
    pub read_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            threads: 4,
            txns_per_thread: 8,
            ops_per_txn: 4,
            key_range: 16,
            read_ratio: 0.5,
            seed: 0xC0FFEE,
        }
    }
}

impl WorkloadSpec {
    fn rng(&self) -> Xorshift64 {
        Xorshift64::new(self.seed)
    }

    fn gen_programs<M: Clone>(
        &self,
        mut op: impl FnMut(&mut Xorshift64) -> M,
    ) -> Vec<Vec<Code<M>>> {
        let mut rng = self.rng();
        (0..self.threads)
            .map(|_| {
                (0..self.txns_per_thread)
                    .map(|_| {
                        Code::seq_all((0..self.ops_per_txn).map(|_| Code::method(op(&mut rng))))
                    })
                    .collect()
            })
            .collect()
    }

    /// Key-value map workload: reads are `Get`, writes are `Put`.
    pub fn kvmap_programs(&self) -> Vec<Vec<Code<MapMethod>>> {
        let range = self.key_range;
        let reads = self.read_ratio;
        self.gen_programs(move |rng| {
            let k = rng.gen_range(0..range);
            if rng.gen_bool(reads) {
                MapMethod::Get(k)
            } else {
                MapMethod::Put(k, rng.gen_range(0..1000) as i64)
            }
        })
    }

    /// Read/write memory workload over `key_range` locations.
    pub fn rwmem_programs(&self) -> Vec<Vec<Code<MemMethod>>> {
        let range = self.key_range;
        let reads = self.read_ratio;
        self.gen_programs(move |rng| {
            let l = Loc(rng.gen_range(0..range) as u32);
            if rng.gen_bool(reads) {
                MemMethod::Read(l)
            } else {
                MemMethod::Write(l, rng.gen_range(0..1000) as i64)
            }
        })
    }

    /// Counter workload: reads are `Get`, writes are `Add(1)`.
    pub fn counter_programs(&self) -> Vec<Vec<Code<CtrMethod>>> {
        let reads = self.read_ratio;
        self.gen_programs(move |rng| {
            if rng.gen_bool(reads) {
                CtrMethod::Get
            } else {
                CtrMethod::Add(1)
            }
        })
    }

    /// Bank workload: reads are `Balance`, writes alternate
    /// `Deposit`/`Withdraw`.
    pub fn bank_programs(&self) -> Vec<Vec<Code<BankMethod>>> {
        let range = self.key_range;
        let reads = self.read_ratio;
        self.gen_programs(move |rng| {
            let a = rng.gen_range(0..range) as u32;
            if rng.gen_bool(reads) {
                BankMethod::Balance(a)
            } else if rng.gen_bool(0.7) {
                BankMethod::Deposit(a, rng.gen_range(1..50) as i64)
            } else {
                BankMethod::Withdraw(a, rng.gen_range(1..50) as i64)
            }
        })
    }

    /// Randomly *structured* programs over the full grammar — sequences,
    /// nondeterministic choices `+`, and bounded-depth loops `(c)*` — so
    /// drivers exercise `step`/`fin` on genuinely nondeterministic code,
    /// not just straight-line sequences. `depth` bounds the grammar
    /// nesting.
    pub fn structured_counter_programs(&self, depth: usize) -> Vec<Vec<Code<CtrMethod>>> {
        let mut rng = self.rng();
        (0..self.threads)
            .map(|_| {
                (0..self.txns_per_thread)
                    .map(|_| gen_structured(&mut rng, depth, self.read_ratio))
                    .collect()
            })
            .collect()
    }

    /// A map workload where each thread works a *disjoint* key slice —
    /// the fully-commutative regime where boosting shines.
    pub fn kvmap_disjoint_programs(&self) -> Vec<Vec<Code<MapMethod>>> {
        let mut rng = self.rng();
        let per = (self.key_range / self.threads as u64).max(1);
        (0..self.threads)
            .map(|t| {
                let lo = t as u64 * per;
                (0..self.txns_per_thread)
                    .map(|_| {
                        Code::seq_all((0..self.ops_per_txn).map(|_| {
                            let k = lo + rng.gen_range(0..per);
                            if rng.gen_bool(self.read_ratio) {
                                Code::method(MapMethod::Get(k))
                            } else {
                                Code::method(MapMethod::Put(k, rng.gen_range(0..1000) as i64))
                            }
                        }))
                    })
                    .collect()
            })
            .collect()
    }
}

fn gen_structured(rng: &mut Xorshift64, depth: usize, read_ratio: f64) -> Code<CtrMethod> {
    let leaf = |rng: &mut Xorshift64| {
        if rng.gen_bool(read_ratio) {
            Code::method(CtrMethod::Get)
        } else {
            Code::method(CtrMethod::Add(rng.gen_range(1..4) as i64))
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..4) {
        0 => leaf(rng),
        1 => Code::seq(
            gen_structured(rng, depth - 1, read_ratio),
            gen_structured(rng, depth - 1, read_ratio),
        ),
        2 => Code::choice(
            gen_structured(rng, depth - 1, read_ratio),
            gen_structured(rng, depth - 1, read_ratio),
        ),
        _ => Code::star(gen_structured(rng, depth - 1, read_ratio)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.kvmap_programs(), spec.kvmap_programs());
        assert_eq!(spec.rwmem_programs(), spec.rwmem_programs());
    }

    #[test]
    fn shape_matches_spec() {
        let spec = WorkloadSpec {
            threads: 3,
            txns_per_thread: 5,
            ops_per_txn: 2,
            ..Default::default()
        };
        let progs = spec.kvmap_programs();
        assert_eq!(progs.len(), 3);
        assert!(progs.iter().all(|p| p.len() == 5));
        // Each transaction body contains exactly 2 methods.
        for p in &progs {
            for c in p {
                assert!(c.reachable_methods().len() <= 2);
                assert!(c.size() >= 2);
            }
        }
    }

    #[test]
    fn read_ratio_zero_generates_no_reads() {
        let spec = WorkloadSpec {
            read_ratio: 0.0,
            ..Default::default()
        };
        for p in spec.kvmap_programs() {
            for c in p {
                assert!(c
                    .reachable_methods()
                    .iter()
                    .all(|m| matches!(m, MapMethod::Put(_, _))));
            }
        }
    }

    #[test]
    fn disjoint_programs_partition_keys() {
        let spec = WorkloadSpec {
            threads: 4,
            key_range: 16,
            ..Default::default()
        };
        let progs = spec.kvmap_disjoint_programs();
        for (t, p) in progs.iter().enumerate() {
            let lo = t as u64 * 4;
            for c in p {
                for m in c.reachable_methods() {
                    let k = m.key().unwrap();
                    assert!(k >= lo && k < lo + 4, "thread {t} leaked key {k}");
                }
            }
        }
    }
}
