//! Seeded randomness for reproducible experiments.
//!
//! Every stochastic decision in a simulation (workload arrivals, flow sizes,
//! WCMP path picks…) draws from one [`SimRng`] seeded at construction, so a
//! run is a pure function of (topology, programs, seed). The paper reports
//! confidence intervals over ten runs; our harnesses do the same by varying
//! the seed 0..10.

use rand::{RngExt, SeedableRng};
use rand_chacha::{ChaCha12Rng, Reserved};

/// A seeded ChaCha12 RNG with the handful of draws the simulator needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12Rng,
}

impl SimRng {
    /// Deterministic RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Uniform u64.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random()
    }

    /// Uniform non-negative i64 (what the Eden VM's `rand()` builtin sees).
    pub fn next_i64(&mut self) -> i64 {
        (self.inner.random::<u64>() & (i64::MAX as u64)) as i64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.inner.random_range(0..n)
    }

    /// Uniform in `[0.0, 1.0)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random_range(0.0..1.0)
    }

    /// Exponential inter-arrival with the given mean (Poisson process).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.random_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Fork an independent stream (per-host RNGs that stay deterministic
    /// regardless of event interleaving).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Fork a cheap per-packet stream, consuming exactly one draw.
    ///
    /// Batch processing partitions packets across worker lanes, so the
    /// packets of one batch cannot share a sequential RNG without the lane
    /// interleaving leaking into the random stream. Instead, every packet
    /// gets its own [`PacketRng`] over the draw reserved for it here — in
    /// arrival order — which makes the draws a packet observes a pure
    /// function of its position in the stream, identical whether the batch
    /// runs serial or parallel.
    ///
    /// What arrival order fixes is the draw's *position*; its value is
    /// computed when the packet's stream is first read, through the
    /// generator this borrow keeps still, and never for a packet whose
    /// functions do not call `rand()`. The next draw from `self` is the
    /// same either way.
    #[inline]
    pub fn fork_packet(&mut self) -> PacketRng<'_> {
        let at = self.inner.reserve_u64();
        PacketRng {
            state: 0,
            reserved: Some((&mut self.inner, at)),
        }
    }

    /// Keystream blocks the generator has computed so far: eight draws
    /// read, or reserved and then read, cost one; draws only reserved
    /// cost none.
    pub fn blocks_generated(&self) -> u64 {
        self.inner.blocks_generated()
    }
}

/// A minimal splitmix64 stream for one packet's action-function run,
/// seeded from the draw [`SimRng::fork_packet`] reserved — on the first
/// read, so a packet that never draws never pays for its seed.
///
/// Statistically solid for the handful of draws a function makes (WCMP path
/// picks, probabilistic sampling) and cheap enough to hand to every packet;
/// not a crypto RNG — the simulator-wide [`SimRng`] remains ChaCha-based.
#[derive(Debug)]
pub struct PacketRng<'r> {
    state: u64,
    /// The generator and the place in its stream of the draw that seeds
    /// `state`, until the first read takes them.
    reserved: Option<(&'r mut ChaCha12Rng, Reserved)>,
}

impl PacketRng<'static> {
    /// Deterministic stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        PacketRng {
            state: seed,
            reserved: None,
        }
    }
}

impl PacketRng<'_> {
    /// Seed the stream now and let go of the generator: the form a packet
    /// dealt to another thread carries.
    #[inline]
    pub fn resolve(mut self) -> PacketRng<'static> {
        self.seed();
        PacketRng::new(self.state)
    }

    #[inline]
    fn seed(&mut self) {
        if let Some((generator, at)) = self.reserved.take() {
            self.state = generator.resolve_u64(at);
        }
    }

    /// Uniform u64 (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.seed();
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform non-negative i64 (what the Eden VM's `rand()` builtin sees).
    pub fn next_i64(&mut self) -> i64 {
        (self.next_u64() & (i64::MAX as u64)) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut r = SimRng::new(2);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn packet_forks_replay_per_position() {
        // forking per packet makes the stream a function of packet position
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        let pa: Vec<i64> = (0..8).map(|_| a.fork_packet().next_i64()).collect();
        let pb: Vec<i64> = (0..8).map(|_| b.fork_packet().next_i64()).collect();
        assert_eq!(pa, pb);
        // distinct positions get distinct streams
        assert_ne!(pa[0], pa[1]);
    }

    #[test]
    fn unread_packet_forks_cost_a_position_and_no_keystream() {
        let mut a = SimRng::new(4);
        let mut twin = SimRng::new(4);
        for _ in 0..1000 {
            let _unread = a.fork_packet();
            twin.next_u64();
        }
        assert_eq!(a.blocks_generated(), 0);
        assert_eq!(twin.blocks_generated(), 125);
        assert_eq!(a.next_u64(), twin.next_u64(), "the 1,001st draw");
    }

    #[test]
    fn packet_rng_draws_are_nonnegative_and_vary() {
        let mut r = PacketRng::new(0);
        let draws: Vec<i64> = (0..64).map(|_| r.next_i64()).collect();
        assert!(draws.iter().all(|&v| v >= 0));
        let distinct: std::collections::HashSet<i64> = draws.iter().copied().collect();
        assert_eq!(distinct.len(), draws.len());
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut a = SimRng::new(3);
        let mut b = SimRng::new(3);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.next_u64(), fb.next_u64());
        assert_ne!(fa.next_u64(), a.next_u64());
    }
}
