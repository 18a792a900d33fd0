//! The six workloads and the seed → inputs generator.
//!
//! A workload is a fixed problem shape plus fixed step counts; the seed
//! only decides the numbers fed to it (lane velocities, initial-condition
//! phases and amplitudes, two-stream parameters). The solver never sees
//! the seed, only the generated arrays.

use std::f64::consts::TAU;

/// Which driver and data path a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Advection1D::step` on a host matrix (Algorithm 2 verbatim).
    Host,
    /// `Advection1D::step_resident` on a resident slab.
    Resident,
    /// `step_resident` behind the verified backend with ABFT on.
    Verified,
    /// `VlasovPoisson1D1V::step_resident` (Strang splitting).
    Vlasov,
}

/// One workload: shape, step counts and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line; copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub nx: usize,
    pub nv: usize,
    pub degree: usize,
    /// Graded (non-uniform) mesh instead of a uniform one.
    pub graded: bool,
    /// Untimed steps at the start of every round; part of set-up.
    pub warmup: usize,
    /// Timed steps per round. Fixed, so accuracy is deterministic.
    pub timed: usize,
    /// Accuracy above this fails every op of the run. An order of
    /// magnitude over the seed's figure: a guard against a broken
    /// scheme, not a regression gate (the metric's bound is that).
    pub tolerance: f64,
}

/// Time step of the advection workloads: |v|·dt ≤ 0.004, about four
/// cells of the 1024-point mesh, so feet land in other cells than their
/// own and every lane has its own fractional offset.
pub const ADVECTION_DT: f64 = 0.004;
/// Grading strength of the non-uniform mesh (`Breaks::graded`).
pub const GRADING: f64 = 0.6;
/// Vlasov domain: one k = 0.5 mode in x, v in ±6, dt = 0.05.
pub const VLASOV_LX: f64 = 2.0 * TAU;
pub const VLASOV_VMAX: f64 = 6.0;
pub const VLASOV_DT: f64 = 0.05;
pub const VLASOV_K: f64 = 0.5;

impl Spec {
    /// Grid sweeps per step: the Strang step advects x, v, x.
    pub fn sweeps(&self) -> usize {
        if self.kind == Kind::Vlasov {
            3
        } else {
            1
        }
    }

    /// Grid points one step updates (`sweeps · nx · nv`).
    pub fn points_per_step(&self) -> f64 {
        (self.sweeps() * self.nx * self.nv) as f64
    }

    /// The `--smoke` shape: same code paths, seconds instead of minutes.
    pub fn smoke(mut self) -> Spec {
        self.nx = self.nx.min(256);
        self.nv = if self.kind == Kind::Vlasov { 256 } else { 128 };
        self.warmup = 2;
        self.timed = 12;
        // Coarser meshes, same guard: the smoke run checks plumbing.
        self.tolerance *= 1e4;
        self
    }
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "adv_host_u3",
        why: "Algorithm 2 verbatim (host step, uniform degree 3, pttrs): the only workload where the transposes and the scalar-lane kernels do work",
        kind: Kind::Host,
        nx: 1024,
        nv: 1024,
        degree: 3,
        graded: false,
        warmup: 6,
        timed: 36,
        tolerance: 1e-7,
    },
    Spec {
        name: "adv_resident_u3",
        why: "The fastest path (resident slab, zero transposes): isolates eval_resident and the pttrs panel sweep; a uniform-stencil evaluator shows here",
        kind: Kind::Resident,
        nx: 1024,
        nv: 1024,
        degree: 3,
        graded: false,
        warmup: 6,
        timed: 48,
        tolerance: 1e-7,
    },
    Spec {
        name: "adv_resident_n5",
        why: "Bypass case: graded mesh, degree 5 (gbtrs and a wider border getrs) defeats any uniform-stencil shortcut; a uniform-only change must not move it",
        kind: Kind::Resident,
        nx: 1024,
        nv: 1024,
        degree: 5,
        graded: true,
        warmup: 6,
        timed: 24,
        tolerance: 1e-11,
    },
    Spec {
        name: "adv_verified_u3",
        why: "Same solve layer behind verification (residual, ABFT screen, per-step feet scan): a solve gain that costs verification shows only here",
        kind: Kind::Verified,
        nx: 1024,
        nv: 1024,
        degree: 3,
        graded: false,
        warmup: 6,
        timed: 36,
        tolerance: 1e-7,
    },
    Spec {
        name: "adv_host_small",
        why: "nx=256, nv=64 sits in L2, so fixed per-step costs (pool dispatches, timers, allocation) have their largest share; executor changes show here",
        kind: Kind::Host,
        nx: 256,
        nv: 64,
        degree: 3,
        graded: false,
        warmup: 400,
        timed: 2000,
        tolerance: 1e-3,
    },
    Spec {
        name: "vlasov_strang",
        why: "Same advection layer with feet rewritten every step, both orientations, panel flips and a field solve: guards against per-construction caching wins",
        kind: Kind::Vlasov,
        nx: 1024,
        nv: 1024,
        degree: 3,
        graded: false,
        warmup: 6,
        timed: 24,
        tolerance: 1e-8,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: tiny, well mixed, and owned by the benchmark so the
/// inputs of a seed never change with the repo's own test RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Fourier modes of the advection initial condition: `k = 1..=4`.
pub const MODES: usize = 4;

/// Everything the seed decides.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Lane velocities, uniform in ±1: one draw per stratum of width
    /// `2/nv`, then shuffled. Random in value and in order, but with the
    /// low discrepancy that keeps lane-averaged figures steady across
    /// seeds even at 64 lanes.
    pub velocities: Vec<f64>,
    /// `(amplitude, phase)` of mode `k = index + 1`. Phases are uniform
    /// in `[0, 2π)`. Amplitudes are `(1 ± 1 %)/k²`: random, but with a
    /// narrow spread, because the interpolation error is linear in the
    /// amplitude of the highest mode and `accuracy_err` has to repeat
    /// across seeds within its bound.
    pub modes: [(f64, f64); MODES],
    /// Two-stream beam velocity (1.4 ± 1 %) and seed amplitude
    /// (0.01 ± 1 %; the L² drift goes with its square).
    pub two_stream_v0: f64,
    pub two_stream_amplitude: f64,
}

impl Inputs {
    /// The inputs of `seed` for an `nv`-lane workload. The draw order is
    /// fixed: modes, two-stream parameters, then velocities — so every
    /// workload of one seed shares the same initial condition.
    pub fn generate(seed: u64, nv: usize) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut modes = [(0.0, 0.0); MODES];
        for (k, mode) in modes.iter_mut().enumerate() {
            let k = (k + 1) as f64;
            *mode = (rng.range(0.99, 1.01) / (k * k), rng.range(0.0, TAU));
        }
        let two_stream_v0 = 1.4 * rng.range(0.99, 1.01);
        let two_stream_amplitude = 0.01 * rng.range(0.99, 1.01);
        let mut velocities: Vec<f64> = (0..nv)
            .map(|j| -1.0 + 2.0 * (j as f64 + rng.unit()) / nv as f64)
            .collect();
        for j in (1..nv).rev() {
            velocities.swap(j, (rng.next_u64() % (j as u64 + 1)) as usize);
        }
        Inputs {
            velocities,
            modes,
            two_stream_v0,
            two_stream_amplitude,
        }
    }

    /// The advection initial condition on the unit period,
    /// `1 + Σ aₖ sin(2πk·(x + 16v) + φₖ)`: every lane carries the
    /// profile at its own offset. The factor 16 turns the random part of
    /// a lane's velocity into a random phase, so lanes of similar
    /// velocity (similar foot offsets) still cover every phase and the
    /// lane-averaged error does not depend on the seed's `φₖ` — on the
    /// graded mesh it otherwise moves ±10 % with them.
    pub fn profile(&self, x: f64, v: f64) -> f64 {
        let mut f = 1.0;
        for (k, (amplitude, phase)) in self.modes.iter().enumerate() {
            f += amplitude * (TAU * (k + 1) as f64 * (x + 16.0 * v) + phase).sin();
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(20240924, 64);
        let b = Inputs::generate(20240924, 64);
        let c = Inputs::generate(20240925, 64);
        assert_eq!(a, b);
        assert_ne!(a.velocities, c.velocities);
        assert_ne!(a.modes, c.modes);
        // Bit-level, not just `==`.
        for (x, y) in a.velocities.iter().zip(&b.velocities) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn workloads_of_one_seed_share_the_initial_condition() {
        let wide = Inputs::generate(7, 2048);
        let narrow = Inputs::generate(7, 64);
        assert_eq!(wide.modes, narrow.modes);
        assert_eq!(wide.two_stream_v0, narrow.two_stream_v0);
    }

    #[test]
    fn velocities_are_one_per_stratum_in_shuffled_order() {
        let nv = 64;
        let inputs = Inputs::generate(3, nv);
        let mut sorted = inputs.velocities.clone();
        assert!(sorted.windows(2).any(|w| w[0] > w[1]), "not shuffled");
        sorted.sort_by(f64::total_cmp);
        for (j, v) in sorted.iter().enumerate() {
            let lo = -1.0 + 2.0 * j as f64 / nv as f64;
            assert!((lo..lo + 2.0 / nv as f64).contains(v), "lane {j}: {v}");
        }
    }

    #[test]
    fn generated_values_stay_in_their_ranges() {
        for seed in 0..20 {
            let inputs = Inputs::generate(seed, 256);
            assert!(inputs.velocities.iter().all(|v| (-1.0..1.0).contains(v)));
            for (k, (a, p)) in inputs.modes.iter().enumerate() {
                let k2 = ((k + 1) * (k + 1)) as f64;
                assert!((0.99..1.01).contains(&(a * k2)), "amplitude {a}");
                assert!((0.0..TAU).contains(p));
            }
            assert!((1.386..1.414).contains(&inputs.two_stream_v0));
            assert!((0.0099..0.0101).contains(&inputs.two_stream_amplitude));
            // Σ 1.01/k² < 1.5, so the profile stays finite and bounded.
            assert!((0..100).all(|i| inputs.profile(i as f64 / 100.0, 0.3).abs() < 2.6));
        }
    }

    #[test]
    fn rng_matches_the_splitmix64_reference() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut rng = Rng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let u = Rng::new(1).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn workload_table_is_consistent() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.timed >= 12 && w.warmup >= 1);
            assert_eq!(w.sweeps(), if w.kind == Kind::Vlasov { 3 } else { 1 });
            let s = w.smoke();
            assert!(s.nv <= 256 && s.timed == 12);
        }
        assert!(find("nope").is_none());
    }
}
