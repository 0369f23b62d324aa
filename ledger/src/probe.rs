//! The speed probe: a fixed piece of work that does not touch the product,
//! timed beside every batch of epochs on the threads that run the batch.
//!
//! The sandbox is a few virtual cores of a shared host, and how fast it
//! runs branchy, allocating code — the product's kind — moves by tens of
//! percent in plateaus that last from a fraction of a second to minutes
//! (whether the two virtual cores share a physical one, and what the
//! neighbours do to the caches), while a dependent chain of ALU operations
//! or of loads barely notices. The probe is code of the first kind: it
//! churns small vectors through the allocator. Run on every driver thread
//! at once, it slows down with the product: over runs of one workload the
//! correlation between a run's median epoch time and its median probe time
//! was 0.6 in a calm half hour and 0.9 in a restless one.
//!
//! The end-to-end timings are therefore reported in **nominal** seconds:
//! each measured time is multiplied by [`NOMINAL_US`] ÷ the probe time
//! measured beside it, which is what the time would have been on a sandbox
//! that ran the probe in [`NOMINAL_US`]. The product cannot influence the
//! probe, so a change to the product moves a nominal figure exactly as it
//! moves the wall-clock one.

use std::time::Instant;

use crate::gen::Rng;

/// What the probe takes on each of two threads of the sandbox at its usual
/// speed, µs. A constant of the benchmark: changing it rescales every
/// nominal figure.
pub const NOMINAL_US: f64 = 1800.0;

/// Vectors the probe allocates.
const ROUNDS: usize = 40_000;
/// Vectors it keeps alive at a time.
const LIVE: usize = 64;

/// Runs the probe once on the calling thread. Returns microseconds.
pub fn probe_us() -> f64 {
    let began = Instant::now();
    let mut rng = Rng::stream(0x0070_726f_6265, 0, 0);
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE);
    for _ in 0..ROUNDS {
        let n = 1 + rng.below(40) as usize;
        let mut v = Vec::with_capacity(n);
        v.extend(0..n as u64);
        if live.len() < LIVE {
            live.push(v);
        } else {
            let slot = rng.below(LIVE as u64) as usize;
            live[slot] = v;
        }
    }
    std::hint::black_box(&live);
    began.elapsed().as_secs_f64() * 1e6
}

/// Runs the probe on `threads` fresh threads at once, for a workload whose
/// threads are the product's own. Returns the mean, µs.
pub fn probe_on(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(probe_us)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the probe does not panic"))
            .sum()
    });
    total / threads as f64
}

/// The factor that turns a time measured beside a probe of `probe_us` into
/// nominal time. (A rate is divided by it.)
pub fn to_nominal(probe_us: f64) -> f64 {
    NOMINAL_US / probe_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time_and_scales_to_nominal() {
        let one = probe_us();
        assert!(one > 50.0, "{one} us");
        let two = probe_on(2);
        assert!(two > 50.0, "{two} us");
        assert_eq!(to_nominal(NOMINAL_US), 1.0);
        assert_eq!(to_nominal(2.0 * NOMINAL_US), 0.5);
    }
}
