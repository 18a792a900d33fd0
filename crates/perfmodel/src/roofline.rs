//! The roofline model (Williams et al.), equation (10) of the paper.

use crate::device::Device;

/// Arithmetic intensity `f/b` in flop/byte.
///
/// # Panics
/// Panics if `bytes` is zero.
pub fn arithmetic_intensity(flops: f64, bytes: f64) -> f64 {
    assert!(bytes > 0.0, "arithmetic intensity needs bytes > 0");
    flops / bytes
}

/// Attainable performance `R = min(F, B·f/b)` in GFlop/s for a kernel
/// with `flops_per_point` and `bytes_per_point` on `device`.
pub fn attainable_gflops(device: &Device, flops_per_point: f64, bytes_per_point: f64) -> f64 {
    let ai = arithmetic_intensity(flops_per_point, bytes_per_point);
    device.peak_gflops.min(device.peak_bw_gbs * ai)
}

/// Predicted kernel time in seconds from total memory traffic, assuming
/// a memory-bound kernel streaming at `stream_efficiency × peak`.
pub fn memory_bound_time_s(device: &Device, total_bytes: f64) -> f64 {
    total_bytes / (device.peak_bw_gbs * 1e9 * device.stream_efficiency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity() {
        assert_eq!(arithmetic_intensity(16.0, 8.0), 2.0);
    }

    #[test]
    fn low_intensity_is_bandwidth_limited() {
        let d = Device::a100();
        // 1 flop per 8 bytes: R = 1555 * 0.125 = 194 GFlop/s << 9700.
        let r = attainable_gflops(&d, 1.0, 8.0);
        assert!((r - 1555.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn high_intensity_is_compute_limited() {
        let d = Device::icelake();
        let r = attainable_gflops(&d, 1000.0, 8.0);
        assert_eq!(r, d.peak_gflops);
    }

    #[test]
    fn time_prediction_scales_linearly() {
        let d = Device::a100();
        let t1 = memory_bound_time_s(&d, 1e9);
        let t2 = memory_bound_time_s(&d, 2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        // 1 GB at 85% of 1555 GB/s ≈ 0.76 ms.
        assert!((t1 - 1e9 / (1555e9 * 0.85)).abs() < 1e-12);
    }
}
