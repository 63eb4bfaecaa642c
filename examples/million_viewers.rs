//! Million-viewer scale-out: drive the channel-parallel round engine
//! over a mega catalog and watch the diurnal ramp cross a
//! million concurrent viewers.
//!
//! The paper's deployment is 20 channels at ~2500 peak viewers; this
//! example builds the same system scaled 400×: 2000 Zipf channels
//! calibrated to 1 000 000 steady-state viewers, the Table II cloud
//! fleet and budgets grown in proportion, arrivals streamed lazily
//! (memory stays `O(channels + connected viewers)`), and every channel
//! simulated as an independent shard fanned across the worker pool.
//!
//! Run with: `cargo run --release --example million_viewers`
//! (set `RAYON_NUM_THREADS` to vary the pool; results are bit-identical
//! at any thread count, including fully serial execution).

use std::time::Instant;

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;

fn main() {
    let channels = 2000;
    let population = 1_000_000.0;
    let hours = 2.0;

    let mut config = SimConfig::scale_out(SimMode::ClientServer, channels, population)
        .expect("scale-out defaults are valid");
    config.trace.horizon_seconds = hours * 3600.0;

    println!(
        "simulating {channels} channels, {population:.0} target viewers, {hours} h \
         ({} worker threads)…",
        rayon::current_num_threads()
    );
    let start = Instant::now();
    let metrics = Simulator::new(config)
        .expect("configuration validates")
        .run()
        .expect("scale run succeeds");
    let wall = start.elapsed().as_secs_f64();

    println!(
        "peak concurrent viewers: {} (diurnal ramp over {hours} h)",
        metrics.peak_peers()
    );
    println!("mean streaming quality: {:.4}", metrics.mean_quality());
    println!(
        "cloud bandwidth: reserved {:.1} Gbps mean, used {:.1} Gbps mean",
        metrics.mean_reserved_bandwidth() * 8.0 / 1e9,
        metrics.mean_used_bandwidth() * 8.0 / 1e9,
    );
    println!(
        "VM rental: ${:.0} total over the horizon (${:.0}/h mean)",
        metrics.total_vm_cost,
        metrics.mean_vm_hourly_cost()
    );
    println!(
        "wall time: {wall:.1}s — {:.2} simulated hours per wall second",
        hours / wall
    );
}
