//! Property-based tests of the fluid allocation kernels: max–min
//! fairness invariants for `allocate_pool`, rarest-first ordering for
//! `peer_allocation`, and bit-exact agreement between those dense
//! references and the in-place mask-sparse kernels the production
//! engine runs.

use cloudmedia_sim::allocation::{
    allocate_pool, allocate_pool_sparse, peer_allocation, peer_allocation_sparse, ChannelRound,
};
use proptest::prelude::*;

/// Demand vectors with realistic sparsity: up to 64 slots, most zero.
fn demand_strategy() -> impl Strategy<Value = Vec<f64>> {
    collection::vec((0.0..1.0f64, 0.0..2.0e6f64), 1..64).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(coin, d)| if coin < 0.6 { 0.0 } else { d })
            .collect()
    })
}

fn mask_of(demands: &[f64]) -> u64 {
    let mut mask = 0u64;
    for (i, &d) in demands.iter().enumerate() {
        if d > 0.0 {
            mask |= 1 << i;
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn allocate_pool_respects_demands_and_pool(
        demands in demand_strategy(),
        pool in 0.0..5.0e7f64,
    ) {
        let alloc = allocate_pool(&demands, pool);
        let total: f64 = demands.iter().sum();
        let granted: f64 = alloc.iter().sum();
        for (a, d) in alloc.iter().zip(&demands) {
            prop_assert!(*a >= 0.0);
            prop_assert!(a <= d, "allocation {a} exceeds demand {d}");
        }
        // Pool conservation: everything available is handed out, up to
        // total demand.
        prop_assert!(granted <= pool * (1.0 + 1e-12) + 1e-9);
        let expected = total.min(pool);
        prop_assert!(
            (granted - expected).abs() <= 1e-6 * expected.max(1.0),
            "granted {granted} != min(total, pool) = {expected}"
        );
    }

    #[test]
    fn allocate_pool_has_max_min_water_level(
        demands in demand_strategy(),
        pool in 1.0..5.0e7f64,
    ) {
        let alloc = allocate_pool(&demands, pool);
        // Max–min fairness: every unsaturated entry sits at the common
        // water level (no entry can gain without a larger one losing).
        let level = alloc.iter().cloned().fold(0.0, f64::max);
        for (a, d) in alloc.iter().zip(&demands) {
            if *d > 0.0 && *a < d * (1.0 - 1e-9) {
                prop_assert!(
                    (*a - level).abs() <= 1e-6 * level.max(1.0),
                    "unsaturated entry {a} below the water level {level}"
                );
            }
        }
    }

    // The in-place mask-sparse kernel writes the dense reference's
    // bits.
    #[test]
    fn in_place_and_sparse_pool_kernels_match_wrapper_exactly(
        demands in demand_strategy(),
        pool in 0.0..5.0e7f64,
    ) {
        let reference = allocate_pool(&demands, pool);
        // Sparse contract: output pre-zeroed, only masked slots written.
        let mut sparse_out = vec![0.0; demands.len()];
        let mut order = Vec::new();
        allocate_pool_sparse(&demands, pool, &mut sparse_out, &mut order, mask_of(&demands));
        prop_assert_eq!(&sparse_out, &reference);
    }

    #[test]
    fn peer_allocation_is_rarest_first(
        spec in collection::vec(
            (0.0..1.0f64, 0.0..2.0e6f64, 0usize..40, 0.0..3.0e6f64),
            1..64,
        ),
        pool in 0.0..2.0e7f64,
    ) {
        let requested: Vec<f64> =
            spec.iter().map(|&(c, d, _, _)| if c < 0.5 { 0.0 } else { d }).collect();
        let owners: Vec<usize> = spec.iter().map(|&(_, _, o, _)| o).collect();
        let owner_upload: Vec<f64> = spec.iter().map(|&(_, _, _, u)| u).collect();
        let round = ChannelRound {
            requested_rate: requested.clone(),
            owners: owners.clone(),
            owner_upload: owner_upload.clone(),
            upload_pool: pool,
        };
        let served = peer_allocation(&round);

        // Independent greedy replay in rarest-first order.
        let mut order: Vec<usize> =
            (0..requested.len()).filter(|&i| requested[i] > 0.0).collect();
        order.sort_by_key(|&i| (owners[i], i));
        let mut remaining = pool;
        let mut expected = vec![0.0; requested.len()];
        for &i in &order {
            if remaining <= 0.0 {
                break;
            }
            let give = requested[i].min(owner_upload[i]).min(remaining);
            expected[i] = give;
            remaining -= give;
        }
        prop_assert_eq!(&served, &expected);

        // Invariants independently of the replay.
        let mut total = 0.0;
        for i in 0..requested.len() {
            prop_assert!(served[i] <= requested[i]);
            prop_assert!(served[i] <= owner_upload[i]);
            total += served[i];
        }
        prop_assert!(total <= pool * (1.0 + 1e-12) + 1e-9);
        // Rarest-first: a chunk receives service only if every strictly
        // rarer requested chunk was served to one of its caps.
        for (pos, &i) in order.iter().enumerate() {
            if served[i] > 0.0 {
                for &j in order.iter().take(pos) {
                    let cap = requested[j].min(owner_upload[j]);
                    prop_assert!(
                        served[j] >= cap - 1e-9,
                        "chunk {i} served while rarer chunk {j} was starved"
                    );
                }
            }
        }
    }

    // The in-place mask-sparse kernel writes the dense reference's
    // bits.
    #[test]
    fn in_place_and_sparse_peer_kernels_match_wrapper_exactly(
        spec in collection::vec(
            (0.0..1.0f64, 0.0..2.0e6f64, 0usize..40, 0.0..3.0e6f64),
            1..64,
        ),
        pool in 0.0..2.0e7f64,
    ) {
        let requested: Vec<f64> =
            spec.iter().map(|&(c, d, _, _)| if c < 0.5 { 0.0 } else { d }).collect();
        let owners: Vec<usize> = spec.iter().map(|&(_, _, o, _)| o).collect();
        let owner_upload: Vec<f64> = spec.iter().map(|&(_, _, _, u)| u).collect();
        let round = ChannelRound {
            requested_rate: requested.clone(),
            owners: owners.clone(),
            owner_upload: owner_upload.clone(),
            upload_pool: pool,
        };
        let reference = peer_allocation(&round);
        let mut sparse_served = vec![0.0; requested.len()];
        let mut order = Vec::new();
        peer_allocation_sparse(
            &requested,
            &owners,
            &owner_upload,
            pool,
            &mut sparse_served,
            &mut order,
            mask_of(&requested),
        );
        prop_assert_eq!(&sparse_served, &reference);
    }
}
