//! Glue between the real factored spline builder and the GPU cache/
//! roofline model: extracts the structural parameters the trace generator
//! needs from an actual `SchurBlocks`, and predicts per-device build
//! times. Everything returned from here is a *model* — harness binaries
//! print it with a `model:` prefix.

use pp_perfmodel::traffic::{simulate_builder_traffic, BuilderKernel, KernelVersion};
use pp_perfmodel::{Device, TrafficReport};
use pp_splinesolver::{BuilderVersion, SchurBlocks};

/// Map the real decomposition onto the trace generator's parameters.
pub fn kernel_from_blocks(blocks: &SchurBlocks) -> BuilderKernel {
    let s = blocks.structure();
    BuilderKernel {
        n: blocks.n(),
        q: blocks.q_size(),
        border: blocks.border(),
        q_band: s.q_kl.max(s.q_ku).max(1),
        lambda_nnz: blocks.lambda_coo().nnz(),
        beta_nnz: blocks.beta_coo().nnz(),
    }
}

/// Map the public builder version onto the simulator's enum.
fn sim_version(v: BuilderVersion) -> KernelVersion {
    match v {
        BuilderVersion::Baseline => KernelVersion::Baseline,
        BuilderVersion::Fused => KernelVersion::Fused,
        BuilderVersion::FusedSpmv => KernelVersion::FusedSpmv,
    }
}

/// Predicted spline-build time on a modelled device, plus the traffic
/// report it derives from.
pub struct GpuPrediction {
    /// Simulated traffic.
    pub traffic: TrafficReport,
    /// Predicted build time in seconds (roofline, memory-bound).
    pub time_s: f64,
}

/// Run the cache model for one (device, version) pair over a full batch.
pub fn predict(
    device: &Device,
    blocks: &SchurBlocks,
    version: BuilderVersion,
    batch: usize,
) -> GpuPrediction {
    let kernel = kernel_from_blocks(blocks);
    let traffic = simulate_builder_traffic(device, sim_version(version), &kernel, batch);
    GpuPrediction {
        time_s: traffic.predicted_time_s(device),
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::SplineConfig;

    #[test]
    fn kernel_parameters_come_from_real_blocks() {
        let space = SplineConfig::new(3, true).space(128);
        let blocks = SchurBlocks::new(&space).unwrap();
        let k = kernel_from_blocks(&blocks);
        assert_eq!(k.n, 128);
        assert_eq!(k.border, 1);
        assert_eq!(k.q_band, 1);
        assert_eq!(k.lambda_nnz, 2);
        assert!(k.beta_nnz > 4);
    }

    #[test]
    fn prediction_orders_versions_like_table3() {
        let space = SplineConfig::new(3, true).space(256);
        let blocks = SchurBlocks::new(&space).unwrap();
        // Shrink the device so the test-sized problem oversubscribes the
        // cache the way the paper-sized problem oversubscribes an A100.
        let mut device = Device::a100();
        device.shared_cache_mib = 0.25;
        device.resident_lanes = 256;
        let batch = 1024;
        let t = BuilderVersion::ALL.map(|v| predict(&device, &blocks, v, batch).time_s);
        assert!(
            t[0] > t[1] && t[1] > t[2],
            "model must rank the versions baseline, fused, spmv from slowest: {t:?}"
        );
    }
}
