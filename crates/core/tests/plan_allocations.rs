//! Heap allocations of one provisioning interval.
//!
//! A counting global allocator wraps [`System`] with a per-thread
//! counter, and the test plans the paper catalog (20 channels × 20
//! chunks) hourly for six hours in client–server and in P2P mode,
//! counting the allocations each `plan_interval` call makes. The first
//! two hours warm the controller's kept buffers (the first plan sizes
//! them, the second takes the first placement refresh test). Every plan
//! from hour 2 on must make at most a third of what the map-based
//! controller made: 3,501–3,503 allocations per P2P plan and
//! 2,045–2,273 per client–server plan on this catalog, read with this
//! test's counter over hours 2–5 (2,273 is the client–server hour that
//! refreshes the placement). The bounds below are the smaller counts.
//! The flat-buffer controller makes 12–20 per plan, chiefly the plan it
//! returns: its chunk demands, VM allocations and, when the placement is
//! refreshed, the new placement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cloudmedia_cloud::broker::SlaTerms;
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_core::analysis::PsiEstimator;
use cloudmedia_core::controller::{Controller, ControllerConfig, StreamingMode};
use cloudmedia_core::predictor::{ChannelObservation, PredictorKind};
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::distributions::BoundedPareto;
use cloudmedia_workload::diurnal::DiurnalPattern;

/// Allocations per plan of the map-based controller, P2P.
const BEFORE_P2P: u64 = 3_501;
/// Allocations per plan of the map-based controller, client–server.
const BEFORE_CS: u64 = 2_045;
const HOURS: usize = 6;
const WARM_UP_HOURS: usize = 2;

thread_local! {
    /// Allocation calls made on this thread. A `const`-initialized
    /// `Cell` has no destructor and needs no lazy initialization, so
    /// reading it inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only during thread teardown; those calls are not
    // counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// [`System`], counting every call that may hand out new memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements `GlobalAlloc` soundly; the counter touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract;
        // `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a tracker reports at every channel of the paper catalog at
/// `hour`: the diurnal arrival rate and the catalog's viewing model.
fn observations(
    catalog: &Catalog,
    diurnal: &DiurnalPattern,
    hour: usize,
) -> Vec<(usize, ChannelObservation)> {
    let multiplier = diurnal.multiplier(hour as f64 * 3600.0);
    catalog
        .channels()
        .iter()
        .map(|spec| {
            (
                spec.id,
                ChannelObservation {
                    arrival_rate: spec.base_arrival_rate * multiplier,
                    alpha: spec.viewing.start_at_beginning,
                    routing: spec.viewing.routing_rows().unwrap(),
                },
            )
        })
        .collect()
}

/// Allocations of each hourly `plan_interval` call under `mode`.
fn allocations_per_plan(mode: StreamingMode) -> Vec<u64> {
    let catalog = Catalog::paper_default();
    let diurnal = DiurnalPattern::paper_default();
    let sla = SlaTerms {
        virtual_clusters: paper_virtual_clusters(),
        nfs_clusters: paper_nfs_clusters(),
    };
    let stats: Vec<_> = (0..HOURS)
        .map(|hour| observations(&catalog, &diurnal, hour))
        .collect();
    let mut controller = Controller::new(
        ControllerConfig::paper_default(mode),
        PredictorKind::LastInterval,
    )
    .unwrap();
    let mut counts = Vec::with_capacity(HOURS);
    for hour_stats in &stats {
        let before = allocations();
        let plan = controller.plan_interval(hour_stats, &sla);
        counts.push(allocations() - before);
        plan.unwrap();
    }
    counts
}

fn assert_at_most_a_third(mode: StreamingMode, before: u64) {
    let counts = allocations_per_plan(mode);
    for (hour, &count) in counts.iter().enumerate().skip(WARM_UP_HOURS) {
        assert!(
            3 * count <= before,
            "{mode:?} hour {hour}: {count} allocations, more than a third of {before} \
             (every hour: {counts:?})"
        );
    }
}

#[test]
fn p2p_plans_make_a_third_of_the_allocations() {
    let mean_upload = BoundedPareto::new(180e3 / 8.0, 10e6 / 8.0, 3.0)
        .unwrap()
        .mean()
        * 0.85;
    assert_at_most_a_third(
        StreamingMode::P2p {
            mean_upload,
            psi: PsiEstimator::Independent,
        },
        BEFORE_P2P,
    );
}

#[test]
fn client_server_plans_make_a_third_of_the_allocations() {
    assert_at_most_a_third(StreamingMode::ClientServer, BEFORE_CS);
}
