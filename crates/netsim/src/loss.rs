//! Non-congestive loss models.
//!
//! The Internet-path experiments (Fig. 18c, §8.4) include paths "with
//! significant packet drops or policers" where Cubic suffers but Nimbus does
//! not.  To reproduce those regimes the bottleneck can be decorated with:
//!
//! * [`LossModel::Bernoulli`] — i.i.d. random loss at a fixed probability
//!   (models a lossy last hop).
//! * [`LossModel::GilbertElliott`] — two-state bursty loss.
//! * [`Policer`] — a token-bucket policer that drops packets exceeding a
//!   contracted rate regardless of buffer space (models ISP rate policing).

use nimbus_core_types::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a random-loss process applied in front of the bottleneck queue.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub enum LossModel {
    /// No random loss (the default).
    #[default]
    None,
    /// Drop each packet independently with probability `p`.
    Bernoulli {
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott model: in the Good state packets are dropped
    /// with probability `p_good` (usually 0), in the Bad state with `p_bad`.
    GilbertElliott {
        /// Probability of transitioning Good → Bad per packet.
        p_g2b: f64,
        /// Probability of transitioning Bad → Good per packet.
        p_b2g: f64,
        /// Drop probability in the Good state.
        p_good: f64,
        /// Drop probability in the Bad state.
        p_bad: f64,
    },
}

/// Stateful sampler for a [`LossModel`].
#[derive(Debug)]
pub struct LossProcess {
    model: LossModel,
    rng: StdRng,
    in_bad_state: bool,
    drops: u64,
}

impl LossProcess {
    /// Create a sampler for `model` seeded with `seed`.
    pub fn new(model: LossModel, seed: u64) -> Self {
        LossProcess {
            model,
            rng: StdRng::seed_from_u64(seed ^ 0xd1b54a32d192ed03),
            in_bad_state: false,
            drops: 0,
        }
    }

    /// Returns true if the next packet should be dropped.
    pub fn should_drop(&mut self) -> bool {
        let drop = match self.model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => self.rng.gen::<f64>() < p,
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                p_good,
                p_bad,
            } => {
                // Transition first, then sample in the new state.
                if self.in_bad_state {
                    if self.rng.gen::<f64>() < p_b2g {
                        self.in_bad_state = false;
                    }
                } else if self.rng.gen::<f64>() < p_g2b {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state { p_bad } else { p_good };
                self.rng.gen::<f64>() < p
            }
        };
        if drop {
            self.drops += 1;
        }
        drop
    }

    /// Number of packets this process has dropped.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

/// A token-bucket policer: packets are dropped (not queued) when they exceed
/// the contracted rate plus burst allowance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Policer {
    /// Contracted rate in bits per second.
    pub rate_bps: f64,
    /// Burst allowance in bytes.
    pub burst_bytes: f64,
    tokens: f64,
    last_refill: Time,
    drops: u64,
}

impl Policer {
    /// Create a policer with the given contracted rate and burst size.
    pub fn new(rate_bps: f64, burst_bytes: f64) -> Self {
        assert!(rate_bps > 0.0 && burst_bytes > 0.0);
        Policer {
            rate_bps,
            burst_bytes,
            tokens: burst_bytes,
            last_refill: Time::ZERO,
            drops: 0,
        }
    }

    /// Offer a packet of `size_bytes` at time `now`; returns true if the
    /// packet conforms (should be forwarded), false if it must be dropped.
    pub fn conforms(&mut self, size_bytes: u32, now: Time) -> bool {
        let elapsed = now.saturating_sub(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.rate_bps / 8.0).min(self.burst_bytes);
        if self.tokens >= size_bytes as f64 {
            self.tokens -= size_bytes as f64;
            true
        } else {
            self.drops += 1;
            false
        }
    }

    /// Number of packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_never_drops() {
        let mut p = LossProcess::new(LossModel::None, 1);
        for _ in 0..10_000 {
            assert!(!p.should_drop());
        }
        assert_eq!(p.drops(), 0);
    }

    #[test]
    fn bernoulli_drop_rate_close_to_p() {
        let mut p = LossProcess::new(LossModel::Bernoulli { p: 0.02 }, 42);
        let n = 100_000;
        let mut drops = 0;
        for _ in 0..n {
            if p.should_drop() {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.02).abs() < 0.005, "rate {rate}");
        assert_eq!(p.drops(), drops);
    }

    #[test]
    fn gilbert_elliott_produces_bursty_loss() {
        let model = LossModel::GilbertElliott {
            p_g2b: 0.01,
            p_b2g: 0.2,
            p_good: 0.0,
            p_bad: 0.5,
        };
        let mut p = LossProcess::new(model, 7);
        let mut drops = Vec::new();
        for i in 0..200_000 {
            if p.should_drop() {
                drops.push(i);
            }
        }
        assert!(!drops.is_empty());
        // Burstiness: the fraction of drops immediately following another drop
        // should far exceed the overall drop rate.
        let overall = drops.len() as f64 / 200_000.0;
        let consecutive = drops.windows(2).filter(|w| w[1] == w[0] + 1).count();
        let cond = consecutive as f64 / drops.len() as f64;
        assert!(cond > overall * 3.0, "cond {cond} vs overall {overall}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut p = LossProcess::new(LossModel::Bernoulli { p: 0.1 }, seed);
            (0..1000).map(|_| p.should_drop()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn policer_allows_burst_then_enforces_rate() {
        // 8 Mbit/s = 1 MB/s, burst 10 kB.
        let mut pol = Policer::new(8e6, 10_000.0);
        let now = Time::ZERO;
        // The initial burst passes.
        let mut passed = 0;
        for _ in 0..20 {
            if pol.conforms(1000, now) {
                passed += 1;
            }
        }
        assert_eq!(passed, 10);
        assert_eq!(pol.drops(), 10);
        // After 5 ms, 5 kB of tokens have accumulated.
        let later = Time::from_millis(5);
        let mut passed2 = 0;
        for _ in 0..20 {
            if pol.conforms(1000, later) {
                passed2 += 1;
            }
        }
        assert_eq!(passed2, 5);
    }

    #[test]
    fn policer_long_run_rate_matches_contract() {
        let mut pol = Policer::new(8e6, 15_000.0);
        let mut passed_bytes = 0u64;
        // Offer 2 MB/s for 10 seconds against a 1 MB/s contract.
        for ms in 0..10_000u64 {
            let now = Time::from_millis(ms);
            for _ in 0..2 {
                if pol.conforms(1000, now) {
                    passed_bytes += 1000;
                }
            }
        }
        let rate = passed_bytes as f64 / 10.0; // bytes per second
        assert!((rate - 1e6).abs() < 0.05e6, "rate {rate}");
    }
}
