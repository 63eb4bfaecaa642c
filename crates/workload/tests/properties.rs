//! Property-based tests over workload generation.

use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::distributions::{BoundedPareto, Zipf};
use cloudmedia_workload::diurnal::{DiurnalPattern, FlashCrowd};
use cloudmedia_workload::trace::{ArrivalStream, TraceConfig};
use cloudmedia_workload::viewing::ViewingModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn viewing_strategy() -> impl Strategy<Value = ViewingModel> {
    (2usize..30, 0.0..1.0f64, 0.0..0.5f64, 0.02..0.5f64)
        .prop_filter("jump+leave <= 1", |(_, _, j, l)| j + l <= 1.0)
        .prop_map(|(chunks, alpha, jump, leave)| ViewingModel {
            chunks,
            start_at_beginning: alpha,
            jump_prob: jump,
            leave_prob: leave,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn routing_rows_always_substochastic(model in viewing_strategy()) {
        let rows = model.routing_rows().unwrap();
        for row in &rows {
            let s: f64 = row.iter().sum();
            prop_assert!(s <= 1.0 + 1e-12);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn arrival_split_sums_to_total(model in viewing_strategy(), rate in 0.0..50.0f64) {
        let split = model.arrival_split(rate).unwrap();
        let total: f64 = split.iter().sum();
        prop_assert!((total - rate).abs() < 1e-9);
        prop_assert!(split.iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn expected_session_length_is_at_least_one_chunk(model in viewing_strategy()) {
        let e = model.expected_chunks_per_session().unwrap();
        prop_assert!(e >= 1.0 - 1e-9, "expected chunks {e}");
        // Bounded by the geometric tail of the leave probability.
        prop_assert!(e <= 1.0 / model.leave_prob + 1e-9 + model.chunks as f64);
    }

    #[test]
    fn pareto_samples_respect_bounds(
        min in 1.0..1e5f64,
        span in 1.1..100.0f64,
        shape in 0.5..5.0f64,
        seed in any::<u64>(),
    ) {
        let max = min * span;
        let d = BoundedPareto::new(min, max, shape).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            prop_assert!((min..=max).contains(&x));
        }
        prop_assert!((min..=max).contains(&d.mean()));
    }

    #[test]
    fn zipf_is_normalized_and_monotone(n in 1usize..100, s in 0.0..3.0f64) {
        let z = Zipf::new(n, s).unwrap();
        let total: f64 = (0..n).map(|i| z.prob(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for i in 1..n {
            prop_assert!(z.prob(i) <= z.prob(i - 1) + 1e-15);
        }
    }

    #[test]
    fn diurnal_multiplier_positive_and_bounded(
        baseline in 0.1..5.0f64,
        peak in 0.0..24.0f64,
        width in 0.2..6.0f64,
        amp in 0.0..10.0f64,
        t in 0.0..7.0f64,
    ) {
        let p = DiurnalPattern::new(
            baseline,
            vec![FlashCrowd { peak_hour: peak % 24.0, width_hours: width, amplitude: amp }],
        ).unwrap();
        let m = p.multiplier(t * 86_400.0);
        prop_assert!(m >= baseline - 1e-12);
        prop_assert!(m <= p.max_multiplier() + 1e-12);
    }

    #[test]
    fn traces_are_deterministic_and_sorted(seed in any::<u64>(), hours in 1.0..12.0f64) {
        let catalog = Catalog::zipf(2, 1.0, ViewingModel::paper_default(), 100.0, 300.0).unwrap();
        let cfg = TraceConfig {
            horizon_seconds: hours * 3600.0,
            seed,
            ..TraceConfig::paper_default()
        };
        let a: Vec<_> = ArrivalStream::new(&catalog, &cfg).unwrap().collect();
        let b: Vec<_> = ArrivalStream::new(&catalog, &cfg).unwrap().collect();
        prop_assert_eq!(&a, &b);
        for w in a.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }
}
