//! Address-trace models of the three spline-builder kernel versions.
//!
//! §IV of the paper reads its optimisation story off "Nsight compute":
//! bytes loaded/stored and cache hit rates for the baseline, fused and
//! fused+spmv kernels. Here the same observables come from replaying a
//! synthetic — but access-accurate — trace of each kernel through the
//! [`Cache`] simulator with a device's cache
//! geometry.
//!
//! The execution model is GPU-like lockstep: `resident_lanes` batch lanes
//! advance element-by-element together (the batch dimension is the
//! parallel one), so the combined working set of a sweep is
//! `resident_lanes × n × 8` bytes — 64 MB for the paper's
//! `(n, batch) = (1000, 10⁵)` on an A100-like occupancy, comfortably
//! exceeding the 40 MB L2. That excess is precisely why the baseline's
//! separate kernels each re-stream the right-hand sides and why fusion
//! and sparsity pay off (Table III).

use crate::cachesim::{AccessKind, Cache, CacheStats};
use crate::device::Device;
use crate::roofline::memory_bound_time_s;

/// Structural parameters of one spline build (matching a factored
/// `SchurBlocks` — supplied by the caller so this crate stays
/// dependency-free).
#[derive(Debug, Clone, Copy)]
pub struct BuilderKernel {
    /// Right-hand-side rows (`n`).
    pub n: usize,
    /// Interior size (`n − border`).
    pub q: usize,
    /// Border width.
    pub border: usize,
    /// Interior bandwidth (1 for tridiagonal; `degree` for banded).
    pub q_band: usize,
    /// Non-zeros of the sparse `λ` operand.
    pub lambda_nnz: usize,
    /// Non-zeros of the sparse `β` operand.
    pub beta_nnz: usize,
}

impl BuilderKernel {
    /// The paper's headline configuration: uniform degree-3 splines of
    /// size `n` (tridiagonal interior, 1-wide border, ~2 + ~48 sparse
    /// corner entries).
    pub fn cubic_uniform(n: usize) -> Self {
        Self {
            n,
            q: n - 1,
            border: 1,
            q_band: 1,
            lambda_nnz: 2,
            beta_nnz: 48.min(n / 2),
        }
    }
}

/// Which builder version's trace to generate (mirrors
/// `pp-splinesolver::BuilderVersion`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVersion {
    /// Four separate kernel launches (paper Listing 2).
    Baseline,
    /// One fused kernel, dense corners (Listing 4).
    Fused,
    /// One fused kernel, sparse corners (Listing 6).
    FusedSpmv,
}

/// A phase of the build kernel, for per-phase time modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The banded interior solve (pttrs/pbtrs/gbtrs sweeps).
    Interior,
    /// Dense corner corrections (the baseline's separate gemm launches /
    /// the fused kernel's per-lane gemv).
    DenseCorner,
    /// Sparse (COO) corner corrections.
    SparseCorner,
    /// The tiny dense border solve (getrs on delta-prime).
    BorderSolve,
}

/// Simulated traffic of one spline build over the whole batch.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Which kernel version produced this trace.
    pub version: KernelVersion,
    /// The kernel's structural parameters.
    pub kernel: BuilderKernel,
    /// Full batch size the report extrapolates to.
    pub batch: usize,
    /// Raw counters for the simulated wave(s), summed over phases.
    pub wave_stats: CacheStats,
    /// Per-phase counters (same simulation, split at phase boundaries).
    pub phases: Vec<(Phase, CacheStats)>,
    /// Lanes simulated.
    pub simulated_lanes: usize,
    /// Multiplier applied to extrapolate to the full batch.
    pub scale: f64,
}

impl TrafficReport {
    /// Extrapolated bytes read from memory over the full batch.
    pub fn mem_read_bytes(&self) -> f64 {
        self.wave_stats.mem_read_bytes as f64 * self.scale
    }

    /// Extrapolated bytes written to memory over the full batch.
    pub fn mem_write_bytes(&self) -> f64 {
        self.wave_stats.mem_write_bytes as f64 * self.scale
    }

    /// Total extrapolated memory traffic.
    pub fn total_bytes(&self) -> f64 {
        self.mem_read_bytes() + self.mem_write_bytes()
    }

    /// Cache hit rate observed in the wave (scale-invariant).
    pub fn hit_rate(&self) -> f64 {
        self.wave_stats.hit_rate()
    }

    /// The paper's "ideal" traffic: one 8-byte load + store of every
    /// right-hand-side element.
    pub fn ideal_bytes(kernel: &BuilderKernel, batch: usize) -> f64 {
        2.0 * 8.0 * kernel.n as f64 * batch as f64
    }

    /// Roofline-predicted kernel time on `device` (memory bound), phase
    /// by phase. Dense corner corrections in the **baseline** version run
    /// as standalone library gemm launches and are charged at the
    /// device's (much lower) `gemm_efficiency`; every other phase streams
    /// at `stream_efficiency`.
    pub fn predicted_time_s(&self, device: &Device) -> f64 {
        let mut total = 0.0;
        for (phase, stats) in &self.phases {
            let bytes = (stats.mem_read_bytes + stats.mem_write_bytes) as f64 * self.scale;
            let eff = match (*phase, self.version) {
                // Standalone library gemm launches (Listing 2).
                (Phase::DenseCorner, KernelVersion::Baseline) => device.gemm_efficiency,
                // Per-lane dense gemv inside the fused kernel (Listing 4).
                (Phase::DenseCorner, KernelVersion::Fused) => device.gemv_efficiency,
                _ => device.stream_efficiency,
            };
            let mut t = bytes / (device.peak_bw_gbs * 1e9 * eff);
            if *phase == Phase::Interior {
                // Sequential sweeps also pay instruction throughput that
                // grows with the bandwidth; the phase takes whichever
                // bound is higher.
                let per_elem_ps = device.interior_cost_base_ps
                    + device.interior_cost_band_ps * self.kernel.q_band as f64;
                let compute = self.kernel.q as f64 * self.batch as f64 * per_elem_ps * 1e-12;
                t = t.max(compute);
            }
            total += t;
        }
        // Fall back to the aggregate if phases are missing (defensive).
        if self.phases.is_empty() {
            total = memory_bound_time_s(device, self.total_bytes());
        }
        // Occupancy: below `resident_lanes` the device is underfilled and
        // the wave still costs (almost) its full-occupancy latency — this
        // is what makes the paper's Fig. 2 GLUPS grow with batch before
        // saturating.
        let utilisation = (self.batch as f64 / device.resident_lanes as f64).min(1.0);
        total / utilisation.max(1e-6)
    }
}

/// Address-space layout: right-hand sides at 0, shared (matrix) data far
/// above so the two never share a cache line.
const SHARED_BASE: u64 = 1 << 42;

struct Tracer<'a> {
    cache: &'a mut Cache,
    n: usize,
    /// First lane of the wave currently being traced.
    lane_base: usize,
}

impl Tracer<'_> {
    #[inline]
    fn rhs(&mut self, lane: usize, elem: usize, kind: AccessKind) {
        let addr = (((self.lane_base + lane) * self.n + elem) * 8) as u64;
        self.cache.access(addr, kind);
    }

    #[inline]
    fn shared(&mut self, offset: usize) {
        self.cache
            .access(SHARED_BASE + (offset * 8) as u64, AccessKind::Load);
    }
}

/// Interior solve (pttrs/pbtrs/gbtrs shape): a forward then a backward
/// sweep over elements `0..q`, with `q_band + 1` shared matrix values per
/// element, lanes in lockstep.
fn trace_interior_solve(t: &mut Tracer<'_>, lanes: usize, k: &BuilderKernel) {
    // Forward sweep: eliminating column i updates the `q_band` elements
    // below it (one for tridiagonal, `degree` for the banded classes), so
    // wider bands touch proportionally more of the right-hand side.
    for i in 0..k.q {
        for b in 0..=k.q_band {
            t.shared(i * (k.q_band + 1) + b);
        }
        for l in 0..lanes {
            t.rhs(l, i, AccessKind::Load);
            for d in 1..=k.q_band {
                let j = (i + d).min(k.q - 1);
                t.rhs(l, j, AccessKind::Load);
                t.rhs(l, j, AccessKind::Store);
            }
        }
    }
    // Backward sweep (separate shared region: the U / D·Lᵀ factors):
    // solving row i reads the `q_band` elements above it.
    let fwd = k.q * (k.q_band + 1);
    for i in (0..k.q).rev() {
        for b in 0..=k.q_band {
            t.shared(fwd + i * (k.q_band + 1) + b);
        }
        for l in 0..lanes {
            for d in 1..=k.q_band {
                t.rhs(l, (i + d).min(k.q - 1), AccessKind::Load);
            }
            t.rhs(l, i, AccessKind::Load);
            t.rhs(l, i, AccessKind::Store);
        }
    }
}

/// Dense `b1 ← b1 − λ b0`: streams all of `b0` per border row.
fn trace_dense_lambda(t: &mut Tracer<'_>, lanes: usize, k: &BuilderKernel, shared_off: usize) {
    for r in 0..k.border {
        for i in 0..k.q {
            t.shared(shared_off + r * k.q + i);
            for l in 0..lanes {
                t.rhs(l, i, AccessKind::Load);
            }
        }
        for l in 0..lanes {
            t.rhs(l, k.q + r, AccessKind::Load);
            t.rhs(l, k.q + r, AccessKind::Store);
        }
    }
}

/// Dense `b0 ← b0 − β b1`: streams all of `b0` updating it.
fn trace_dense_beta(t: &mut Tracer<'_>, lanes: usize, k: &BuilderKernel, shared_off: usize) {
    for i in 0..k.q {
        for r in 0..k.border {
            t.shared(shared_off + i * k.border + r);
        }
        for l in 0..lanes {
            for r in 0..k.border {
                t.rhs(l, k.q + r, AccessKind::Load);
            }
            t.rhs(l, i, AccessKind::Load);
            t.rhs(l, i, AccessKind::Store);
        }
    }
}

/// Sparse corner update: touches only the non-zero coordinates.
fn trace_sparse_corner(
    t: &mut Tracer<'_>,
    lanes: usize,
    k: &BuilderKernel,
    nnz: usize,
    read_border: bool,
    shared_off: usize,
) {
    for z in 0..nnz {
        // COO row idx, col idx, value.
        t.shared(shared_off + 3 * z);
        t.shared(shared_off + 3 * z + 1);
        t.shared(shared_off + 3 * z + 2);
        // β's exponential tails sit at both ends of the vector; COO
        // stores them in ascending row order, so the trace visits the
        // low-end run first, then the high-end run.
        let half = nnz / 2;
        #[allow(clippy::manual_clamp)]
        let pos = if z < half {
            z.min(k.q - 1)
        } else {
            (k.q - 1).saturating_sub(nnz - 1 - z)
        };
        for l in 0..lanes {
            if read_border {
                t.rhs(l, k.q, AccessKind::Load);
                t.rhs(l, pos, AccessKind::Load);
                t.rhs(l, pos, AccessKind::Store);
            } else {
                t.rhs(l, pos, AccessKind::Load);
                t.rhs(l, k.q, AccessKind::Load);
                t.rhs(l, k.q, AccessKind::Store);
            }
        }
    }
}

/// Border solve (`getrs` on δ′): tiny dense triangular solves per lane.
fn trace_border_solve(t: &mut Tracer<'_>, lanes: usize, k: &BuilderKernel, shared_off: usize) {
    for e in 0..k.border * k.border {
        t.shared(shared_off + e);
    }
    for l in 0..lanes {
        for r in 0..k.border {
            t.rhs(l, k.q + r, AccessKind::Load);
            t.rhs(l, k.q + r, AccessKind::Store);
        }
    }
}

/// How many resident-lane waves to simulate before extrapolating (enough
/// for the multi-wave eviction behaviour to reach steady state).
const SIM_WAVES: usize = 3;

/// Replay one build of `batch` right-hand sides on `device` and
/// extrapolate the traffic, keeping per-phase counters.
///
/// The execution-granularity distinction that separates the versions:
///
/// * **Baseline** launches four kernels; *each launch streams every wave
///   of the batch* before the next launch runs, so when the corner
///   corrections start, the early waves' right-hand sides have long been
///   evicted and must be re-fetched — the paper's temporal-locality
///   problem — and the dense corrections run as standalone library gemm
///   launches (charged at `gemm_efficiency` in the time model).
/// * **Fused / FusedSpmv** complete all work for a wave of resident lanes
///   before the next wave starts; each lane's data makes one trip through
///   the cache per phase at streaming efficiency.
pub fn simulate_builder_traffic(
    device: &Device,
    version: KernelVersion,
    kernel: &BuilderKernel,
    batch: usize,
) -> TrafficReport {
    let wave = device.resident_lanes.min(batch.max(1));
    let waves = batch.div_ceil(wave).clamp(1, SIM_WAVES);
    let mut cache = Cache::new(
        device.shared_cache_bytes(),
        device.line_bytes,
        device.cache_assoc,
    );
    let shared_matrix = 2 * kernel.q * (kernel.q_band + 1);
    let shared_lambda = shared_matrix;
    let shared_delta = shared_lambda + kernel.border * kernel.q;
    let shared_beta = shared_delta + kernel.border * kernel.border;
    let shared_coo = shared_beta + kernel.q * kernel.border;

    // Per-phase accumulation via snapshot differences.
    let mut acc: Vec<(Phase, CacheStats)> = vec![
        (Phase::Interior, CacheStats::default()),
        (Phase::DenseCorner, CacheStats::default()),
        (Phase::SparseCorner, CacheStats::default()),
        (Phase::BorderSolve, CacheStats::default()),
    ];
    let idx = |p: Phase| match p {
        Phase::Interior => 0,
        Phase::DenseCorner => 1,
        Phase::SparseCorner => 2,
        Phase::BorderSolve => 3,
    };

    {
        let mut record = |cache: &mut Cache, phase: Phase, f: &mut dyn FnMut(&mut Tracer<'_>)| {
            let before = cache.stats();
            let mut t = Tracer {
                cache,
                n: kernel.n,
                lane_base: 0,
            };
            f(&mut t);
            let delta = t.cache.stats().minus(&before);
            acc[idx(phase)].1.add(&delta);
        };

        match version {
            KernelVersion::Baseline => {
                // Kernel-major order: every launch sweeps all waves.
                for w in 0..waves {
                    record(&mut cache, Phase::Interior, &mut |t| {
                        t.lane_base = w * wave;
                        trace_interior_solve(t, wave, kernel);
                    });
                }
                for w in 0..waves {
                    record(&mut cache, Phase::DenseCorner, &mut |t| {
                        t.lane_base = w * wave;
                        trace_dense_lambda(t, wave, kernel, shared_lambda);
                    });
                }
                for w in 0..waves {
                    record(&mut cache, Phase::BorderSolve, &mut |t| {
                        t.lane_base = w * wave;
                        trace_border_solve(t, wave, kernel, shared_delta);
                    });
                }
                for w in 0..waves {
                    record(&mut cache, Phase::DenseCorner, &mut |t| {
                        t.lane_base = w * wave;
                        trace_dense_beta(t, wave, kernel, shared_beta);
                    });
                }
            }
            KernelVersion::Fused => {
                // Wave-major order: a wave finishes the whole algorithm
                // while its lanes are as warm as the cache allows.
                for w in 0..waves {
                    record(&mut cache, Phase::Interior, &mut |t| {
                        t.lane_base = w * wave;
                        trace_interior_solve(t, wave, kernel);
                    });
                    record(&mut cache, Phase::DenseCorner, &mut |t| {
                        t.lane_base = w * wave;
                        trace_dense_lambda(t, wave, kernel, shared_lambda);
                    });
                    record(&mut cache, Phase::BorderSolve, &mut |t| {
                        t.lane_base = w * wave;
                        trace_border_solve(t, wave, kernel, shared_delta);
                    });
                    record(&mut cache, Phase::DenseCorner, &mut |t| {
                        t.lane_base = w * wave;
                        trace_dense_beta(t, wave, kernel, shared_beta);
                    });
                }
            }
            KernelVersion::FusedSpmv => {
                for w in 0..waves {
                    record(&mut cache, Phase::Interior, &mut |t| {
                        t.lane_base = w * wave;
                        trace_interior_solve(t, wave, kernel);
                    });
                    record(&mut cache, Phase::SparseCorner, &mut |t| {
                        t.lane_base = w * wave;
                        trace_sparse_corner(t, wave, kernel, kernel.lambda_nnz, false, shared_coo);
                    });
                    record(&mut cache, Phase::BorderSolve, &mut |t| {
                        t.lane_base = w * wave;
                        trace_border_solve(t, wave, kernel, shared_delta);
                    });
                    record(&mut cache, Phase::SparseCorner, &mut |t| {
                        t.lane_base = w * wave;
                        trace_sparse_corner(
                            t,
                            wave,
                            kernel,
                            kernel.beta_nnz,
                            true,
                            shared_coo + 3 * kernel.lambda_nnz,
                        );
                    });
                }
            }
        }
    }

    // Flush write-backs belong to the data's last writer: the final
    // corner-correction phase of each version.
    let before = cache.stats();
    cache.flush();
    let flush_delta = cache.stats().minus(&before);
    let last = match version {
        KernelVersion::FusedSpmv => Phase::SparseCorner,
        _ => Phase::DenseCorner,
    };
    acc[idx(last)].1.add(&flush_delta);

    let mut wave_stats = CacheStats::default();
    for (_, st) in &acc {
        wave_stats.add(st);
    }
    let simulated = wave * waves;
    let scale = batch as f64 / simulated as f64;
    TrafficReport {
        version,
        kernel: *kernel,
        batch,
        wave_stats,
        phases: acc
            .into_iter()
            .filter(|(_, s)| s.loads + s.stores > 0)
            .collect(),
        simulated_lanes: simulated,
        scale,
    }
}

impl KernelVersion {
    /// The paper's Table III row labels.
    pub fn label(self) -> &'static str {
        match self {
            KernelVersion::Baseline => "Original",
            KernelVersion::Fused => "Kernel fusion",
            KernelVersion::FusedSpmv => "gemv->spmv",
        }
    }

    /// All versions, Table III order.
    pub const ALL: [KernelVersion; 3] = [
        KernelVersion::Baseline,
        KernelVersion::Fused,
        KernelVersion::FusedSpmv,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small A100-like device for fast tests: cache scaled down with
    /// the problem so ratios behave like the real configuration.
    fn toy_device(cache_kib: usize, lanes: usize) -> Device {
        let mut d = Device::a100();
        d.shared_cache_mib = cache_kib as f64 / 1024.0;
        d.resident_lanes = lanes;
        d
    }

    fn kernel() -> BuilderKernel {
        BuilderKernel::cubic_uniform(128)
    }

    #[test]
    fn spmv_version_moves_least_memory() {
        // Working set (lanes × n × 8 = 256 KiB/wave) exceeds the 64 KiB
        // cache and the batch spans several waves: the Table III ordering
        // must appear.
        let d = toy_device(64, 256);
        let k = kernel();
        let batch = 1024;
        let base = simulate_builder_traffic(&d, KernelVersion::Baseline, &k, batch);
        let fused = simulate_builder_traffic(&d, KernelVersion::Fused, &k, batch);
        let spmv = simulate_builder_traffic(&d, KernelVersion::FusedSpmv, &k, batch);
        assert!(
            spmv.total_bytes() < fused.total_bytes(),
            "spmv {} vs fused {}",
            spmv.total_bytes(),
            fused.total_bytes()
        );
        assert!(fused.total_bytes() <= base.total_bytes());
    }

    #[test]
    fn fits_in_cache_approaches_ideal() {
        // Working set 256 KiB << 4 MiB cache: traffic ≈ compulsory misses.
        let d = toy_device(4096, 256);
        let k = kernel();
        let r = simulate_builder_traffic(&d, KernelVersion::FusedSpmv, &k, 256);
        let ideal = TrafficReport::ideal_bytes(&k, 256);
        assert!(
            r.total_bytes() < 1.5 * ideal,
            "traffic {} vs ideal {ideal}",
            r.total_bytes()
        );
        assert!(r.hit_rate() > 0.8, "hit rate {}", r.hit_rate());
    }

    #[test]
    fn oversubscribed_cache_doubles_traffic() {
        // Working set 4x the cache: the backward sweep re-misses, giving
        // roughly 2x ideal loads — the paper's 1.58 GB vs 0.8 GB.
        let d = toy_device(64, 256);
        let k = kernel();
        let r = simulate_builder_traffic(&d, KernelVersion::FusedSpmv, &k, 256);
        let ideal = TrafficReport::ideal_bytes(&k, 256);
        let ratio = r.total_bytes() / ideal;
        assert!(
            (1.5..3.5).contains(&ratio),
            "traffic ratio {ratio} out of the expected band"
        );
    }

    #[test]
    fn extrapolation_is_roughly_linear_in_batch() {
        let d = toy_device(64, 128);
        let k = kernel();
        let r1 = simulate_builder_traffic(&d, KernelVersion::Fused, &k, 128);
        let r2 = simulate_builder_traffic(&d, KernelVersion::Fused, &k, 1280);
        assert_eq!(r1.simulated_lanes, 128);
        // Fused waves are independent, so per-lane traffic is steady; the
        // only nonlinearity is cold-start shared data.
        let ratio = r2.total_bytes() / r1.total_bytes();
        assert!((ratio - 10.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn predicted_time_orders_match_traffic() {
        let d = toy_device(64, 256);
        let k = kernel();
        let base = simulate_builder_traffic(&d, KernelVersion::Baseline, &k, 2560);
        let spmv = simulate_builder_traffic(&d, KernelVersion::FusedSpmv, &k, 2560);
        assert!(spmv.predicted_time_s(&d) < base.predicted_time_s(&d));
    }

    /// Each phase but the interior sweep is its bytes at the device's
    /// bandwidth times the efficiency of how it runs: the baseline's corner
    /// gemm launches, the fused kernel's per-lane corner gemv, streaming
    /// otherwise (a full device, so no occupancy factor).
    #[test]
    fn each_phase_is_charged_at_its_own_efficiency() {
        let d = toy_device(64, 256);
        let k = kernel();
        for version in KernelVersion::ALL {
            let report = simulate_builder_traffic(&d, version, &k, 2560);
            for (phase, stats) in &report.phases {
                if *phase == Phase::Interior {
                    continue;
                }
                let eff = match (*phase, version) {
                    (Phase::DenseCorner, KernelVersion::Baseline) => d.gemm_efficiency,
                    (Phase::DenseCorner, KernelVersion::Fused) => d.gemv_efficiency,
                    _ => d.stream_efficiency,
                };
                let bytes = (stats.mem_read_bytes + stats.mem_write_bytes) as f64 * report.scale;
                let alone = TrafficReport {
                    phases: vec![(*phase, *stats)],
                    ..report.clone()
                };
                let want = bytes / (d.peak_bw_gbs * 1e9 * eff);
                let got = alone.predicted_time_s(&d);
                assert!(
                    (got - want).abs() <= 1e-12 * want,
                    "{version:?} {phase:?}: {got:e} s, want {want:e}"
                );
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(KernelVersion::Baseline.label(), "Original");
        assert_eq!(KernelVersion::ALL.len(), 3);
    }

    #[test]
    fn cubic_uniform_parameters() {
        let k = BuilderKernel::cubic_uniform(1000);
        assert_eq!(k.q, 999);
        assert_eq!(k.border, 1);
        assert_eq!(k.q_band, 1);
        assert_eq!(k.lambda_nnz, 2);
        assert_eq!(k.beta_nnz, 48);
    }
}
