//! A fixed reference workload that measures how fast the host runs right
//! now. The benchmark owns this code, so no change to the workspace can
//! make it faster or slower; its CPU time moves only with the host.
//!
//! On a shared host the same code can need up to twice the CPU time for
//! seconds to minutes at a time while co-tenants contend for the core and
//! its caches. The probe's table is cache-resident like the workloads'
//! working sets, and its CPU time follows those swings: op by op, it
//! correlates 0.88 with the mean-field episode cost.

use crate::measure::cpu_s;

/// Table words: 256 KiB, inside the per-core L2 cache.
const WORDS: usize = 1 << 15;

/// The probe's CPU seconds on the 2-vCPU x86_64 host the benchmark was
/// defined on, when that host was fast. Scaled CPU times are CPU seconds
/// at that speed.
pub const REFERENCE_S: f64 = 0.8e-3;

#[derive(Debug, Default)]
pub struct HostProbe {
    table: Vec<u64>,
    /// CPU seconds of every sample so far.
    pub samples_s: Vec<f64>,
}

impl HostProbe {
    /// Runs the reference workload once (about a millisecond) after an
    /// untimed pass that brings the table back into the cache: four
    /// independent hash chains, each reading and updating the table.
    /// Returns its CPU seconds.
    pub fn sample(&mut self) -> f64 {
        if self.table.is_empty() {
            self.table = (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
        }
        std::hint::black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let start = cpu_s();
        let mask = WORDS as u64 - 1;
        let mut x = [1u64, 2, 3, 4];
        let mut acc = [0u64; 4];
        for _ in 0..120_000 {
            for l in 0..4 {
                x[l] ^= x[l] << 13;
                x[l] ^= x[l] >> 7;
                x[l] ^= x[l] << 17;
                let v = self.table[(x[l] & mask) as usize];
                acc[l] = acc[l].wrapping_add(v ^ x[l]);
                self.table[((x[l] >> 32) & mask) as usize] ^= acc[l];
            }
        }
        std::hint::black_box(acc);
        let s = cpu_s() - start;
        self.samples_s.push(s);
        s
    }
}
