//! The instruction sets of the lane-vector bodies, and their dispatch.

use std::sync::OnceLock;

/// The instruction sets a lane-vector body is compiled for: the lane walk
/// of `pp-bsplines`, the verified solve's screen and the abreast solve of
/// `pp-splinesolver`, and the panel transposer ([`crate::deinterleave_columns`],
/// which dispatches on its own). One source, one instance each
/// ([`PanelIsa::run`]); rustc never contracts
/// `a·b + c` into a fused multiply-add, so every instance returns the same
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelIsa {
    /// The target's baseline (SSE2 on x86-64): always available.
    Baseline,
    /// x86-64 AVX2: four doubles per operation.
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
            PanelIsa::Avx2 => !cfg!(miri) && is_x86_feature_detected!("avx2"),
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
    /// called out of line keeps the ISA it was compiled for.
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
            // `is_x86_feature_detected!("avx2")` for this variant.
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

/// `body` compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body` compiled for AVX-512F: eight doubles are one register, and
/// neither the walk nor the screen needs an extension beyond F.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}
