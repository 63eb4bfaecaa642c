//! CSV reports for the figures driven by the two paper-scale runs
//! (Figs. 4, 5, 6, 7 and 10).

use cloudmedia_sim::metrics::Metrics;

use crate::harness::{mbps, q3, PaperRuns};

/// Fig. 4 — cloud capacity provisioning vs usage over time, both modes.
/// Columns: hour, C/S reserved, C/S used, P2P reserved, P2P used (Mbps).
pub fn fig4(runs: &PaperRuns) -> String {
    let mut out =
        String::from("hour,cs_reserved_mbps,cs_used_mbps,p2p_reserved_mbps,p2p_used_mbps\n");
    for (a, b) in runs.cs.samples.iter().zip(&runs.p2p.samples) {
        out.push_str(&format!(
            "{:.2},{},{},{},{}\n",
            a.time / 3600.0,
            mbps(a.reserved_bandwidth),
            mbps(a.used_bandwidth),
            mbps(b.reserved_bandwidth),
            mbps(b.used_bandwidth),
        ));
    }
    out
}

/// Summary line for Fig. 4: coverage fractions (the paper's "provisioned
/// exceeds used in the majority of time").
pub fn fig4_summary(runs: &PaperRuns) -> String {
    format!(
        "# C/S: mean reserved {} Mbps, mean used {} Mbps, coverage {:.3}\n\
         # P2P: mean reserved {} Mbps, mean used {} Mbps, coverage {:.3}\n",
        mbps(runs.cs.mean_reserved_bandwidth()),
        mbps(runs.cs.mean_used_bandwidth()),
        runs.cs.provision_coverage(),
        mbps(runs.p2p.mean_reserved_bandwidth()),
        mbps(runs.p2p.mean_used_bandwidth()),
        runs.p2p.provision_coverage(),
    )
}

/// Fig. 5 — average streaming quality over time, both modes.
pub fn fig5(runs: &PaperRuns) -> String {
    let mut out = String::from("hour,cs_quality,p2p_quality\n");
    for (a, b) in runs.cs.samples.iter().zip(&runs.p2p.samples) {
        out.push_str(&format!(
            "{:.2},{},{}\n",
            a.time / 3600.0,
            q3(a.quality),
            q3(b.quality)
        ));
    }
    out
}

/// Summary for Fig. 5 (the paper reports C/S avg 0.97, P2P avg 0.95).
pub fn fig5_summary(runs: &PaperRuns) -> String {
    format!(
        "# mean quality: C/S {:.3}, P2P {:.3}\n",
        runs.cs.mean_quality(),
        runs.p2p.mean_quality()
    )
}

/// Fig. 6 — per-channel streaming quality vs channel size scatter,
/// client–server mode, over one day (the paper uses one day's samples of
/// all 20 channels). `day` selects which simulated day.
pub fn fig6(cs: &Metrics, day: usize) -> String {
    let from = day as f64 * 86_400.0;
    let to = from + 86_400.0;
    let mut out = String::from("channel_users,quality\n");
    for s in cs.samples_in(from, to) {
        for (&n, &q) in s.per_channel_peers.iter().zip(&s.per_channel_quality) {
            if n > 0 {
                out.push_str(&format!("{n},{}\n", q3(q)));
            }
        }
    }
    out
}

/// Fig. 7 — provisioned cloud bandwidth vs channel size, both modes, one
/// day of hourly controller decisions.
pub fn fig7(runs: &PaperRuns, day: usize) -> String {
    let from = day as f64 * 86_400.0;
    let to = from + 86_400.0;
    let mut out = String::from("mode,channel_users,provisioned_mbps\n");
    for (mode, m) in [("C/S", &runs.cs), ("P2P", &runs.p2p)] {
        for rec in m.intervals.iter().filter(|r| r.time >= from && r.time < to) {
            for (&n, &bw) in rec.per_channel_peers.iter().zip(&rec.per_channel_demand) {
                if n > 0 {
                    out.push_str(&format!("{mode},{n},{}\n", mbps(bw)));
                }
            }
        }
    }
    out
}

/// Fig. 10 — overall hourly VM rental cost over one day, both modes.
pub fn fig10(runs: &PaperRuns, day: usize) -> String {
    let from = day as f64 * 86_400.0;
    let to = from + 86_400.0;
    let mut out = String::from("hour,cs_cost_per_hour,p2p_cost_per_hour\n");
    let cs: Vec<_> = runs
        .cs
        .intervals
        .iter()
        .filter(|r| r.time >= from && r.time < to)
        .collect();
    let p2p: Vec<_> = runs
        .p2p
        .intervals
        .iter()
        .filter(|r| r.time >= from && r.time < to)
        .collect();
    for (a, b) in cs.iter().zip(&p2p) {
        out.push_str(&format!(
            "{:.0},{:.2},{:.2}\n",
            a.time / 3600.0,
            a.vm_hourly_cost,
            b.vm_hourly_cost
        ));
    }
    out
}

/// Summary for Fig. 10 (the paper: C/S avg ≈ $48/h, P2P avg ≈ $4.27/h)
/// plus the Sec. VI-C storage-cost observation (≈ $0.018/day).
pub fn fig10_summary(runs: &PaperRuns) -> String {
    let days = runs
        .cs
        .samples
        .last()
        .map(|s| s.time / 86_400.0)
        .unwrap_or(1.0)
        .max(1e-9);
    format!(
        "# mean VM cost: C/S ${:.2}/h, P2P ${:.2}/h (ratio {:.1}x)\n\
         # storage cost: C/S ${:.4}/day (negligible vs VM rental)\n",
        runs.cs.mean_vm_hourly_cost(),
        runs.p2p.mean_vm_hourly_cost(),
        runs.cs.mean_vm_hourly_cost() / runs.p2p.mean_vm_hourly_cost().max(1e-9),
        runs.cs.total_storage_cost / days,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paper_runs;

    #[test]
    fn reports_have_expected_shape() {
        let runs = paper_runs(2.0);
        let f4 = fig4(&runs);
        assert!(f4.starts_with("hour,"));
        assert!(f4.lines().count() > 10);
        let f5 = fig5(&runs);
        assert!(f5.lines().count() == f4.lines().count());
        let f6 = fig6(&runs.cs, 0);
        assert!(f6.lines().count() > 10);
        let f7 = fig7(&runs, 0);
        assert!(f7.contains("C/S") && f7.contains("P2P"));
        let f10 = fig10(&runs, 0);
        assert!(f10.lines().count() >= 3);
        assert!(fig4_summary(&runs).contains("coverage"));
        assert!(fig5_summary(&runs).contains("mean quality"));
        assert!(fig10_summary(&runs).contains("ratio"));
    }
}
