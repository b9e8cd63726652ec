//! A fixed reference kernel that measures how fast the host runs right
//! now, so that the timed metrics can be given at the host's uncontended
//! speed.
//!
//! On a 2-vCPU KVM guest whose vCPUs share physical cores with other
//! tenants, throughput-bound code such as the planner's kernels runs up
//! to 1.75× slower while a sibling hyperthread is busy, in bursts of
//! milliseconds whose share drifts over minutes. The kernel below is
//! throughput-bound the same way and independent of the repository's
//! code, so no change to the program can move it: the mean of its samples
//! over a run follows the run's contention, and its fastest sample is the
//! uncontended time. Over nineteen 25-s windows of one eight-minute
//! stretch, the fastest p34392 plan (W=24, two workers) had an IQR of 19%
//! of its median and its median drifted by 20% between the first and the
//! second half; multiplied by (fastest ÷ mean kernel time of the same
//! window) the figures were 6% and 2.5%.

use std::hint::black_box;
use std::time::Instant;

/// Words in the kernel's buffer (64 KiB: it stays in L2).
const WORDS: u64 = 8192;
/// Passes over the buffer per sample (≈0.15 ms uncontended).
const PASSES: usize = 40;
/// Kernel samples taken per call of [`Probe::sample`].
const SAMPLES: usize = 16;

/// Collects reference-kernel timings over a run.
pub struct Probe {
    buf: Vec<u64>,
    times: Vec<f64>,
}

impl Probe {
    /// A probe with no samples yet.
    pub fn new() -> Self {
        Probe {
            buf: (0..WORDS)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            times: Vec::new(),
        }
    }

    /// Times the kernel a few times (between ops, never inside one).
    pub fn sample(&mut self) {
        for _ in 0..SAMPLES {
            let start = Instant::now();
            black_box(kernel(black_box(&self.buf)));
            self.times.push(start.elapsed().as_secs_f64());
        }
    }

    /// Fastest ÷ mean kernel time over every sample: 1 on an uncontended
    /// host, down to about 0.57 when every sample was contended.
    pub fn speed(&self) -> f64 {
        let fastest = self.times.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = self.times.iter().sum::<f64>() / self.times.len().max(1) as f64;
        if mean > 0.0 && fastest.is_finite() {
            fastest / mean
        } else {
            1.0
        }
    }
}

/// Eight independent multiply-rotate chains: throughput-bound integer
/// work, like the planner's slice-cost and emulation kernels.
fn kernel(buf: &[u64]) -> u64 {
    let mut s = [1u64; 8];
    for _ in 0..PASSES {
        for chunk in buf.chunks_exact(8) {
            for (acc, &x) in s.iter_mut().zip(chunk) {
                *acc = acc.wrapping_mul(x | 1).rotate_left(5) ^ (x >> 3);
            }
        }
    }
    s.iter().fold(0, |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_a_share() {
        let mut p = Probe::new();
        assert_eq!(p.speed(), 1.0);
        p.sample();
        let speed = p.speed();
        assert!(speed > 0.0 && speed <= 1.0, "speed {speed}");
    }
}
