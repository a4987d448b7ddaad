//! Arrival schedules, compiled up front from the seed.
//!
//! Every `(seed, tenant, job)` owns an independent generator stream, so
//! adding a tenant or a job never perturbs another's arrivals, and the
//! same seed always yields the same schedule. Non-homogeneous rates are
//! sampled by Lewis–Shedler thinning: candidates from a homogeneous
//! Poisson process at the peak rate, each accepted with probability
//! `rate(t) / peak`. The program under test never sees any of this —
//! only the frames the sender derives from it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A job's arrival intensity over the paced phase, in frames per second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rate {
    /// Constant intensity.
    Poisson { hz: f64 },
    /// Square wave from t = 0: `factor × mean_hz` for `on_us`, then for
    /// `off_us` whatever rate keeps the long-run mean at `mean_hz`.
    Bursty {
        mean_hz: f64,
        factor: f64,
        on_us: u64,
        off_us: u64,
    },
    /// `hz`, multiplied by `factor` inside `[from_us, to_us)`.
    Pulse {
        hz: f64,
        factor: f64,
        from_us: u64,
        to_us: u64,
    },
}

impl Rate {
    /// Intensity at `t_us` microseconds into the paced phase.
    pub fn at(&self, t_us: u64) -> f64 {
        match *self {
            Rate::Poisson { hz } => hz,
            Rate::Bursty {
                mean_hz,
                factor,
                on_us,
                off_us,
            } => {
                let period = (on_us + off_us).max(1);
                if t_us % period < on_us {
                    mean_hz * factor
                } else {
                    let rest = period as f64 - factor * on_us as f64;
                    (mean_hz * rest / off_us.max(1) as f64).max(0.0)
                }
            }
            Rate::Pulse {
                hz,
                factor,
                from_us,
                to_us,
            } => {
                if (from_us..to_us).contains(&t_us) {
                    hz * factor
                } else {
                    hz
                }
            }
        }
    }

    /// Upper bound of the intensity: the thinning envelope.
    pub fn peak(&self) -> f64 {
        match *self {
            Rate::Poisson { hz } => hz,
            Rate::Bursty {
                mean_hz, factor, ..
            } => mean_hz * factor.max(1.0),
            Rate::Pulse { hz, factor, .. } => hz * factor.max(1.0),
        }
    }

    /// The steady rate: what the flood phase weights streams by and
    /// what spaces the logical stamps of unpaced frames. A pulse is a
    /// transient on top of it, not part of it.
    pub fn base_hz(&self) -> f64 {
        match *self {
            Rate::Poisson { hz } | Rate::Pulse { hz, .. } => hz,
            Rate::Bursty { mean_hz, .. } => mean_hz,
        }
    }

    /// Expected arrivals over `[0, horizon_us)`.
    pub fn expected(&self, horizon_us: u64) -> f64 {
        let secs = horizon_us as f64 / 1e6;
        match *self {
            Rate::Poisson { hz } => hz * secs,
            // Exact over whole periods; the partial last period is the
            // caller's tolerance to absorb.
            Rate::Bursty { mean_hz, .. } => mean_hz * secs,
            Rate::Pulse {
                hz,
                factor,
                from_us,
                to_us,
            } => {
                let inside = to_us
                    .min(horizon_us)
                    .saturating_sub(from_us.min(horizon_us));
                hz * secs + hz * (factor - 1.0) * inside as f64 / 1e6
            }
        }
    }
}

/// Independent, stable generator stream per `(seed, tenant, job)`.
pub fn job_rng(seed: u64, tenant: u32, job: u32) -> ChaCha8Rng {
    let mix = seed
        ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (job as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    ChaCha8Rng::seed_from_u64(mix)
}

/// Sample one job's arrival instants over `[0, horizon_us)`, in
/// microseconds, strictly increasing (two arrivals drawn into the same
/// microsecond are separated by one, so a stamp identifies a frame).
pub fn arrivals(rate: &Rate, horizon_us: u64, rng: &mut ChaCha8Rng) -> Vec<u32> {
    assert!(horizon_us < u32::MAX as u64, "horizon must fit a u32 of µs");
    let peak = rate.peak();
    let mut out = Vec::with_capacity((rate.expected(horizon_us) * 1.05) as usize + 16);
    if peak <= 0.0 {
        return out;
    }
    let mut t = 0.0f64;
    let mut prev: Option<u64> = None;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / peak * 1e6;
        let accept: f64 = rng.gen_range(0.0..1.0);
        let mut at = t as u64;
        if at >= horizon_us {
            return out;
        }
        if accept * peak > rate.at(at) {
            continue;
        }
        if let Some(p) = prev {
            at = at.max(p + 1);
            if at >= horizon_us {
                return out;
            }
        }
        prev = Some(at);
        out.push(at as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_tenants_do_not_perturb_each_other() {
        let rate = Rate::Bursty {
            mean_hz: 750.0,
            factor: 3.0,
            on_us: 100_000,
            off_us: 200_000,
        };
        let a = arrivals(&rate, 2_000_000, &mut job_rng(7, 1, 0));
        let b = arrivals(&rate, 2_000_000, &mut job_rng(7, 1, 0));
        assert_eq!(a, b, "bit-identical per seed");
        // "Adding a tenant" = drawing another (tenant, job) stream first:
        // tenant 1's stream is keyed, not sequenced, so it cannot move.
        let _other = arrivals(
            &Rate::Poisson { hz: 500.0 },
            2_000_000,
            &mut job_rng(7, 2, 0),
        );
        let c = arrivals(&rate, 2_000_000, &mut job_rng(7, 1, 0));
        assert_eq!(a, c);
        assert_ne!(a, arrivals(&rate, 2_000_000, &mut job_rng(8, 1, 0)));
        assert_ne!(a, arrivals(&rate, 2_000_000, &mut job_rng(7, 1, 1)));
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_inside_the_horizon() {
        let v = arrivals(
            &Rate::Poisson { hz: 200_000.0 },
            500_000,
            &mut job_rng(3, 0, 0),
        );
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert!(v.iter().all(|&t| (t as u64) < 500_000));
    }

    #[test]
    fn counts_sit_within_five_sigma_of_the_analytic_mean() {
        let horizon = 3_000_000u64;
        let rates = [
            Rate::Poisson { hz: 1_500.0 },
            Rate::Bursty {
                mean_hz: 750.0,
                factor: 3.0,
                on_us: 100_000,
                off_us: 200_000,
            },
            Rate::Pulse {
                hz: 750.0,
                factor: 3.4,
                from_us: 1_000_000,
                to_us: 1_500_000,
            },
        ];
        for rate in rates {
            for seed in 0..40u64 {
                let got = arrivals(&rate, horizon, &mut job_rng(seed, 0, 0)).len() as f64;
                let want = rate.expected(horizon);
                let tol = 5.0 * want.sqrt() + 1.0;
                assert!(
                    (got - want).abs() <= tol,
                    "{rate:?} seed {seed}: got {got}, want {want} ± {tol}"
                );
            }
        }
    }

    #[test]
    fn bursty_is_silent_between_bursts_when_the_burst_carries_the_mean() {
        let r = Rate::Bursty {
            mean_hz: 750.0,
            factor: 3.0,
            on_us: 100_000,
            off_us: 200_000,
        };
        assert_eq!(r.at(50_000), 2_250.0);
        assert_eq!(r.at(150_000), 0.0);
        assert_eq!(r.at(350_000), 2_250.0);
    }
}
