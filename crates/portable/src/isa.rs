//! The instruction sets of the lane-vector bodies, and their dispatch.

use std::sync::OnceLock;

/// One row across the lanes a body advances together: `f64` is one lane,
/// `[V; P]` is `P` values of `V` side by side — `[f64; 8]` a run of eight
/// points or a panel row, `[[f64; 8]; P]` the rows of `P` panels abreast.
/// Every operation applies to each lane independently, as the `f64`
/// instance does, and is rounded once: [`Lanes::mul_add`] is the fused
/// multiply-add, and nothing is reassociated. A lane of a wide value
/// carries the bits of the scalar instance, in every [`PanelIsa`]
/// instance, in [`run_scalar`] and on a host without FMA.
pub trait Lanes: Copy {
    /// Lanes per value.
    const WIDTH: usize;
    /// `v` in every lane.
    fn splat(v: f64) -> Self;
    /// The first [`Self::WIDTH`] values of `from`, one per lane.
    fn load(from: &[f64]) -> Self;
    /// `self + o`, per lane.
    fn add(self, o: Self) -> Self;
    /// `self − o`, per lane.
    fn sub(self, o: Self) -> Self;
    /// `self · o`, per lane.
    fn mul(self, o: Self) -> Self;
    /// `self · a + b`, per lane, rounded once: the fused multiply-add of
    /// every body, [`f64::mul_add`] lane by lane. Compiled where the host's
    /// FMA is enabled (the AVX2 and AVX-512F instances, [`run_scalar`]) it
    /// is one `vfmadd`; anywhere else it is a call to the correctly
    /// rounded `fma` routine, with the same bits.
    fn mul_add(self, a: Self, b: Self) -> Self;
}

impl Lanes for f64 {
    const WIDTH: usize = 1;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn load(from: &[f64]) -> Self {
        from[0]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
}

impl<V: Lanes, const P: usize> Lanes for [V; P] {
    const WIDTH: usize = P * V::WIDTH;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        [V::splat(v); P]
    }
    #[inline(always)]
    fn load(from: &[f64]) -> Self {
        let from = &from[..Self::WIDTH];
        std::array::from_fn(|p| V::load(&from[p * V::WIDTH..]))
    }
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for p in 0..P {
            self[p] = self[p].add(o[p]);
        }
        self
    }
    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        for p in 0..P {
            self[p] = self[p].sub(o[p]);
        }
        self
    }
    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        for p in 0..P {
            self[p] = self[p].mul(o[p]);
        }
        self
    }
    #[inline(always)]
    fn mul_add(mut self, a: Self, b: Self) -> Self {
        for p in 0..P {
            self[p] = self[p].mul_add(a[p], b[p]);
        }
        self
    }
}

/// The instruction sets a lane-vector body is compiled for: the lane walk
/// of `pp-bsplines`, the verified solve's screen and the abreast solve of
/// `pp-splinesolver`, and the panel transposer ([`crate::deinterleave_columns`],
/// which dispatches on its own). One source, one instance each
/// ([`PanelIsa::run`]). Their arithmetic is [`Lanes`], whose
/// [`Lanes::mul_add`] is the one multiply-add and is fused in every
/// instance (rustc never contracts a plain `a·b + c`, so no other
/// operation is), so every instance returns the same bits. Both wide
/// instances have FMA: the AVX2 one requires and enables it beside AVX2,
/// and AVX-512F implies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelIsa {
    /// The target's baseline (SSE2 on x86-64): always available; the walk
    /// and the sweep take their one-lane bodies ([`run_scalar`]) here.
    Baseline,
    /// x86-64 AVX2 with FMA: four doubles per operation.
    Avx2,
    /// x86-64 AVX-512F: a whole run per operation.
    Avx512,
}

impl PanelIsa {
    /// Every instance, narrowest first.
    pub const ALL: [PanelIsa; 3] = [PanelIsa::Baseline, PanelIsa::Avx2, PanelIsa::Avx512];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PanelIsa::Baseline => "baseline",
            PanelIsa::Avx2 => "avx2",
            PanelIsa::Avx512 => "avx512",
        }
    }

    /// Whether this host can run the instance. Under Miri only the
    /// baseline is.
    pub fn is_available(self) -> bool {
        match self {
            PanelIsa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            PanelIsa::Avx2 => {
                !cfg!(miri) && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            PanelIsa::Avx512 => !cfg!(miri) && is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest available instance: detected once, then cached.
    pub fn detected() -> Self {
        static DETECTED: OnceLock<PanelIsa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let widest = Self::ALL.into_iter().rev().find(|isa| isa.is_available());
            widest.unwrap_or(PanelIsa::Baseline)
        })
    }

    /// Run `body` in the instance compiled for this instruction set. Pass
    /// an `#[inline(always)]` closure over `#[inline(always)]` code: what is
    /// inlined into the shell is what gets the wide registers, anything
    /// called out of line keeps the ISA it was compiled for. The walk and
    /// the sweep branch to their one-lane bodies before `run`.
    ///
    /// # Panics
    /// Panics if the host lacks the instruction set.
    #[inline(always)]
    pub fn run<R>(self, body: impl FnOnce() -> R) -> R {
        assert!(self.is_available(), "host lacks {}", self.name());
        match self {
            PanelIsa::Baseline => body(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.is_available()` (asserted above) is
            // `is_x86_feature_detected!("avx2")` and `("fma")` for this
            // variant.
            PanelIsa::Avx2 => unsafe { run_avx2(body) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.is_available()` (asserted above) is
            // `is_x86_feature_detected!("avx512f")` for this variant.
            PanelIsa::Avx512 => unsafe { run_avx512(body) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the baseline instance is available"),
        }
    }
}

/// `body` compiled for AVX2 and FMA.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body` compiled for AVX-512F: eight doubles are one register, FMA
/// comes with F, and neither the walk nor the screen needs an extension
/// beyond it.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Run `body`, a one-lane ([`f64`]) body that no [`PanelIsa::run`] shell
/// holds — the lane walk's scalar edge, a per-lane Krylov solve, a sparse
/// product — compiled for the target's baseline plus FMA where the host
/// has it, so that each [`Lanes::mul_add`] inlined into it is one
/// `vfmadd` and not a call to `fma`. The bits are the same either way.
/// Pass an `#[inline(always)]` closure over `#[inline(always)]` code, as
/// for [`PanelIsa::run`].
#[inline(always)]
pub fn run_scalar<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if !cfg!(miri) && is_x86_feature_detected!("fma") {
        // SAFETY: the host has FMA, detected just above.
        return unsafe { run_fma(body) };
    }
    body()
}

/// `body` compiled for the baseline plus FMA.
///
/// # Safety
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn run_fma<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TestRng, LANE_WIDTH};

    /// Every operation of a run (`[f64; 8]`) and of four runs abreast
    /// (`[[f64; 8]; 4]`) is the `f64` operation lane by lane, bit for bit,
    /// in every instance: the "one rounding, nothing reassociated" contract
    /// of every body written over [`Lanes`], asserted once.
    #[test]
    fn wide_lanes_are_the_scalar_lanes_bitwise() {
        const ABREAST: usize = 4 * LANE_WIDTH;
        let tiny = f64::MIN_POSITIVE;
        let mut values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            tiny / 3.0,
            -tiny / 5.0,
            f64::from_bits(1),
            f64::MAX,
            -f64::MAX,
            1.0,
            -1.0,
        ];
        let mut rng = TestRng::seed_from_u64(0x1A4E5);
        while values.len() < ABREAST {
            values.push(rng.gen_range(-1e3..1e3));
        }
        let shifts = if cfg!(miri) { 3 } else { ABREAST };
        let rotated =
            |by: usize| -> Vec<f64> { (0..ABREAST).map(|k| values[(k + by) % ABREAST]).collect() };
        for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
            isa.run(
                #[inline(always)]
                || {
                    for s in 0..shifts {
                        let (a, b, c) = (&values[..], &rotated(s)[..], &rotated(3 * s + 1)[..]);
                        let what = format!("{} shift {s}", isa.name());
                        agree::<[f64; LANE_WIDTH]>(a, b, c, |v| &v[..], &what);
                        agree::<[[f64; LANE_WIDTH]; 4]>(a, b, c, |v| v.as_flattened(), &what);
                    }
                },
            );
        }
    }

    /// `a·b + c` with `a = b = 1 + 2⁻³⁰` and `c = −(1 + 2⁻²⁹)` is 2⁻⁶⁰
    /// rounded once and 0 rounded twice (the product's 2⁻⁶⁰ is below half
    /// an ulp of 1): every lane of `f64`, a run and four runs abreast is
    /// the fused value, in every instance and in [`run_scalar`].
    #[test]
    fn mul_add_rounds_once() {
        use std::hint::black_box;
        let a = black_box(1.0 + 2f64.powi(-30));
        let c = black_box(-(1.0 + 2f64.powi(-29)));
        let fused = 2f64.powi(-60);
        assert_eq!(a * a + c, 0.0, "two roundings lose the low term");
        let check = |name: &str, (one, run, abreast): Rounded| {
            let lanes = std::iter::once(&one)
                .chain(&run)
                .chain(abreast.as_flattened());
            for (l, v) in lanes.enumerate() {
                assert_eq!(v.to_bits(), fused.to_bits(), "{name}: value {l} = {v:e}");
            }
        };
        check(
            "run_scalar",
            run_scalar(
                #[inline(always)]
                || rounded_once(a, c),
            ),
        );
        for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
            check(
                isa.name(),
                isa.run(
                    #[inline(always)]
                    || rounded_once(a, c),
                ),
            );
        }
    }

    type Rounded = (f64, [f64; LANE_WIDTH], [[f64; LANE_WIDTH]; 4]);

    /// `a·a + c` as `f64`, as a run and as four runs abreast.
    #[inline(always)]
    fn rounded_once(a: f64, c: f64) -> Rounded {
        (
            Lanes::mul_add(a, a, c),
            Lanes::mul_add(Lanes::splat(a), Lanes::splat(a), Lanes::splat(c)),
            Lanes::mul_add(Lanes::splat(a), Lanes::splat(a), Lanes::splat(c)),
        )
    }

    /// Each operation of `V` on the first [`Lanes::WIDTH`] values of `a`,
    /// `b`, `c` against the `f64` operation on each lane.
    #[inline(always)]
    fn agree<V: Lanes>(a: &[f64], b: &[f64], c: &[f64], lanes: fn(&V) -> &[f64], what: &str) {
        let (va, vb, vc) = (V::load(a), V::load(b), V::load(c));
        type Lane<'a> = &'a dyn Fn(usize) -> f64;
        let ops: [(&str, V, Lane); 6] = [
            ("splat", V::splat(a[0]), &|_| f64::splat(a[0])),
            ("load", va, &|l| f64::load(&a[l..])),
            ("add", va.add(vb), &|l| Lanes::add(a[l], b[l])),
            ("sub", va.sub(vb), &|l| Lanes::sub(a[l], b[l])),
            ("mul", va.mul(vb), &|l| Lanes::mul(a[l], b[l])),
            ("mul_add", va.mul_add(vb, vc), &|l| {
                Lanes::mul_add(a[l], b[l], c[l])
            }),
        ];
        for (op, got, want) in ops {
            let got = lanes(&got);
            assert_eq!(got.len(), V::WIDTH, "{op}");
            for (l, got) in got.iter().enumerate() {
                assert_eq!(got.to_bits(), want(l).to_bits(), "{op} lane {l}, {what}");
            }
        }
    }
}
