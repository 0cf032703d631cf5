//! Order statistics, the tail-percentile rule and the outcome fingerprint.

use cpo_platform::prelude::WindowReport;

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// Median (nearest-rank p50 for odd counts, mean of the middle pair for
/// even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of p50, p90, p99 and p99.9 that still has at least ten
/// samples beyond it, or `None` when even p50 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// FNV-1a over the per-window outcome stream: window index, arrivals,
/// admissions, rejections, migrations, active servers, running VMs and
/// the bit patterns of the provider and migration costs. Equal streams
/// give equal fingerprints; any changed decision changes it.
pub fn fingerprint(windows: &[WindowReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for w in windows {
        mix(w.window);
        mix(w.arrivals as u64);
        mix(w.admitted as u64);
        mix(w.rejected as u64);
        mix(w.migrations as u64);
        mix(w.active_servers as u64);
        mix(w.running_vms as u64);
        mix(w.provider_cost.to_bits());
        mix(w.migration_cost.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // ~145 windows per replay: p90 leaves 14 beyond, p99 only 1.
        assert_eq!(samples_beyond(145, 0.9), 14);
        assert_eq!(samples_beyond(145, 0.99), 1);
        assert_eq!(tail_percentile(145), Some(0.9));
        // Exactly ten beyond is enough; nine is not.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    fn window(i: u64, admitted: usize, cost: f64) -> WindowReport {
        WindowReport {
            window: i,
            arrivals: admitted + 1,
            admitted,
            rejected: 1,
            migrations: 0,
            migration_cost: 0.0,
            provider_cost: cost,
            downtime_cost: 0.0,
            running_tenants: admitted,
            running_vms: admitted,
            active_servers: 1,
            offline_servers: 0,
            stranded_vms: 0,
            fabric_peak_utilization: 0.0,
            denied_flows: 0,
            solve_time: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_decision_sensitive() {
        let a = vec![window(0, 3, 1.5), window(1, 2, 2.5)];
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        // Order matters.
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert_ne!(fingerprint(&a), fingerprint(&swapped));
        // One more admission changes it.
        let mut more = a.clone();
        more[1].admitted += 1;
        assert_ne!(fingerprint(&a), fingerprint(&more));
        // So does the last bit of a cost.
        let mut cost = a.clone();
        cost[0].provider_cost = f64::from_bits(cost[0].provider_cost.to_bits() + 1);
        assert_ne!(fingerprint(&a), fingerprint(&cost));
        // Wall-clock solve time is not an outcome.
        let mut slow = a.clone();
        slow[0].solve_time = std::time::Duration::from_secs(3);
        assert_eq!(fingerprint(&a), fingerprint(&slow));
        assert_ne!(fingerprint(&a), fingerprint(&[]));
    }
}
