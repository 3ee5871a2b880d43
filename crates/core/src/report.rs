//! Cycle reports: the user/kernel/allocation decomposition plus enclave
//! statistics for one FL training cycle (the row format of Table 6).

use gradsec_tee::cost::TimeBreakdown;

/// Everything measured about one protected training cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    /// Layers sheltered during the cycle.
    pub protected: Vec<usize>,
    /// Simulated time decomposition.
    pub times: TimeBreakdown,
    /// Peak secure-memory bytes (Table 6's "TEE Memory Usage (at exec)").
    pub tee_peak_bytes: usize,
    /// Secure-monitor crossings taken.
    pub crossings: u64,
    /// Mean training loss over the cycle.
    pub mean_loss: f32,
    /// Batches processed.
    pub batches: usize,
    /// Samples processed.
    pub samples: usize,
}

impl CycleReport {
    /// Peak TEE memory in MB.
    pub fn tee_peak_mb(&self) -> f64 {
        self.tee_peak_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Percentage overhead of this cycle against a baseline cycle.
    pub fn overhead_percent(&self, baseline: &CycleReport) -> f64 {
        self.times.overhead_vs(&baseline.times)
    }

    /// Formats the row like the paper's Table 6: `user + kernel + alloc`.
    pub fn time_row(&self) -> String {
        format!(
            "{:.3}s + {:.3}s + {:.3}s",
            self.times.user_s, self.times.kernel_s, self.times.alloc_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(user: f64, kernel: f64, alloc: f64) -> CycleReport {
        CycleReport {
            protected: vec![],
            times: TimeBreakdown {
                user_s: user,
                kernel_s: kernel,
                alloc_s: alloc,
            },
            tee_peak_bytes: 1024 * 1024,
            crossings: 0,
            mean_loss: 0.0,
            batches: 10,
            samples: 320,
        }
    }

    #[test]
    fn overhead_and_formatting() {
        let baseline = report(2.0, 0.0, 0.0);
        let l5ish = report(2.0, 0.2, 4.0);
        assert!((l5ish.overhead_percent(&baseline) - 210.0).abs() < 1.0);
        assert_eq!(l5ish.time_row(), "2.000s + 0.200s + 4.000s");
        assert!((l5ish.tee_peak_mb() - 1.0).abs() < 1e-9);
    }
}
