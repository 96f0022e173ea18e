//! Sample summaries and the metric record every workload fills in.

use std::collections::BTreeMap;

use oblidb_enclave::HostStats;

/// Nearest-rank percentile of `samples` (`p` in 0..=100); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one run measured: statement counts, output checks and metrics.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Statements attempted in the measured phases.
    pub attempted: u64,
    /// Statements that returned an error or a wrong result.
    pub failed: u64,
    /// Metric values by name; units come from the catalog in `main.rs`.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the latency metrics, printed for the reader.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records one statement's outcome.
    pub fn outcome(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Adds the block traffic between two `HostStats` readings to `sum`.
pub fn add_delta(sum: &mut HostStats, before: &HostStats, after: &HostStats) {
    sum.reads += after.reads - before.reads;
    sum.writes += after.writes - before.writes;
    sum.bytes_read += after.bytes_read - before.bytes_read;
    sum.bytes_written += after.bytes_written - before.bytes_written;
    sum.crossings += after.crossings - before.crossings;
}

/// Records the `enclave.*.<suffix>` metrics: `traffic` per statement over
/// `statements` statements.
pub fn set_enclave(report: &mut RunReport, suffix: &str, traffic: &HostStats, statements: f64) {
    let per = |v: u64| ratio(v as f64, statements);
    report.set(format!("enclave.crossings.{suffix}"), per(traffic.crossings));
    report.set(format!("enclave.blocks_read.{suffix}"), per(traffic.reads));
    report.set(format!("enclave.blocks_written.{suffix}"), per(traffic.writes));
    report.set(format!("enclave.bytes_read.{suffix}"), per(traffic.bytes_read));
    report.set(format!("enclave.bytes_written.{suffix}"), per(traffic.bytes_written));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
