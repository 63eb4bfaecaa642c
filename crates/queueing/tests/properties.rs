//! Property-based tests over the queueing substrate.

use cloudmedia_queueing::absorbing::AbsorbingChain;
use cloudmedia_queueing::erlang::{erlang_b, erlang_c, expected_in_system};
use cloudmedia_queueing::jackson::{solve_traffic, JacksonNetwork, RoutingMatrix};
use cloudmedia_queueing::linalg::Matrix;
use cloudmedia_queueing::mmm::{min_servers_for_sojourn, MmmQueue};
use proptest::prelude::*;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A random substochastic `n × n` routing from `seed`: about a third of
/// the entries zero, one row and one column forced to zero, row sums
/// spread over `[0, 1]` — a few rows recirculate everything (sum 1), so
/// some systems are singular.
fn sparse_routing(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = TestRng::new(seed);
    let zero_row = rng.below(n as u64) as usize;
    let zero_col = rng.below(n as u64) as usize;
    (0..n)
        .map(|i| {
            let raw: Vec<f64> = (0..n)
                .map(|j| {
                    let u = rng.unit_f64();
                    if i == zero_row || j == zero_col || u < 0.33 {
                        0.0
                    } else {
                        u
                    }
                })
                .collect();
            let total: f64 = raw.iter().sum();
            let target = match rng.below(10) {
                0 => 1.0,
                1 => 0.0,
                _ => rng.unit_f64() * 0.98,
            };
            if total == 0.0 {
                raw
            } else {
                raw.iter().map(|v| v / total * target).collect()
            }
        })
        .collect()
}

/// A random dense `n × n` matrix from `seed`, entries in `[-1, 1)` with
/// about a fifth of them zero; pivoting is needed more often than not.
fn dense_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = TestRng::new(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let u = rng.unit_f64();
                    if u < 0.2 {
                        0.0
                    } else {
                        2.0 * rng.unit_f64() - 1.0
                    }
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Strategy: a substochastic routing matrix of dimension `n` whose rows sum
/// to at most `max_row_sum` (< 1 keeps chains absorbing and networks open).
fn routing_strategy(n: usize, max_row_sum: f64) -> impl Strategy<Value = RoutingMatrix> {
    proptest::collection::vec(proptest::collection::vec(0.0..1.0f64, n), n).prop_map(move |raw| {
        let rows: Vec<Vec<f64>> = raw
            .into_iter()
            .map(|row| {
                let s: f64 = row.iter().sum();
                if s == 0.0 {
                    row
                } else {
                    // Normalize and scale to a random-ish row sum below the cap.
                    row.iter().map(|v| v / s * max_row_sum * 0.9).collect()
                }
            })
            .collect();
        RoutingMatrix::from_rows(&rows).expect("constructed rows are substochastic")
    })
}

proptest! {
    #[test]
    fn erlang_b_is_a_probability(m in 0usize..200, a in 0.0..500.0f64) {
        let b = erlang_b(m, a).unwrap();
        prop_assert!((0.0..=1.0).contains(&b));
    }

    #[test]
    fn erlang_c_is_a_probability_and_dominates_b(m in 1usize..100, frac in 0.01..0.99f64) {
        let a = m as f64 * frac;
        let b = erlang_b(m, a).unwrap();
        let c = erlang_c(m, a).unwrap();
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(c + 1e-12 >= b);
    }

    #[test]
    fn expected_in_system_at_least_offered_load(m in 1usize..100, frac in 0.01..0.99f64) {
        let a = m as f64 * frac;
        let l = expected_in_system(m, a).unwrap();
        prop_assert!(l >= a - 1e-9);
    }

    #[test]
    fn min_servers_result_is_stable_and_sufficient(
        lambda in 0.01..200.0f64,
        mu in 0.05..10.0f64,
        slack in 1.05..20.0f64,
    ) {
        let target = slack / mu; // always above the mean service time
        let m = min_servers_for_sojourn(lambda, mu, target).unwrap();
        let q = MmmQueue::new(lambda, mu, m).unwrap();
        prop_assert!(q.mean_sojourn_time() <= target + 1e-9);
        // Minimality: one fewer server either unstable or misses the target.
        if m > 0 {
            // Unstable (Err) is fine: one fewer server cannot serve.
            if let Ok(q2) = MmmQueue::new(lambda, mu, m - 1) {
                prop_assert!(q2.mean_sojourn_time() > target);
            }
        }
    }

    #[test]
    fn traffic_equations_conserve_flow(routing in routing_strategy(6, 0.95),
                                       gammas in proptest::collection::vec(0.0..10.0f64, 6)) {
        let net = JacksonNetwork::new(routing, gammas).unwrap();
        prop_assert!(net.flow_imbalance().unwrap() < 1e-8);
    }

    #[test]
    fn arrival_rates_dominate_external_rates(routing in routing_strategy(5, 0.9),
                                             gammas in proptest::collection::vec(0.0..5.0f64, 5)) {
        let net = JacksonNetwork::new(routing, gammas.clone()).unwrap();
        let lambdas = net.arrival_rates().unwrap();
        for (l, g) in lambdas.iter().zip(&gammas) {
            // Internal routing only adds traffic on top of external arrivals.
            prop_assert!(*l >= *g - 1e-9);
        }
    }

    #[test]
    fn hitting_probabilities_are_probabilities(routing in routing_strategy(5, 0.9)) {
        let chain = AbsorbingChain::new(routing).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let h = chain.hitting_probability(i, j);
                prop_assert!((0.0..=1.0).contains(&h), "h({i},{j}) = {h}");
            }
        }
    }

    #[test]
    fn visits_both_bounded_by_min_individual(routing in routing_strategy(5, 0.9)) {
        let chain = AbsorbingChain::new(routing).unwrap();
        let start = vec![0.2; 5];
        for j in 0..5 {
            for k in (j + 1)..5 {
                let both = chain.visits_both(&start, j, k).unwrap();
                let hj: f64 = (0..5).map(|i| 0.2 * chain.hitting_probability(i, j)).sum();
                let hk: f64 = (0..5).map(|i| 0.2 * chain.hitting_probability(i, k)).sum();
                prop_assert!(both <= hj.min(hk) + 1e-9,
                    "P(both {j},{k}) = {both} exceeds min({hj}, {hk})");
            }
        }
    }

    #[test]
    fn hit_before_partitions_with_complement(routing in routing_strategy(4, 0.85)) {
        let chain = AbsorbingChain::new(routing).unwrap();
        let a = chain.hit_before(0, 1).unwrap();
        let b = chain.hit_before(1, 0).unwrap();
        for i in 0..4 {
            // Either hit 0 first, hit 1 first, or absorb before both:
            // the two probabilities cannot sum above 1.
            prop_assert!(a[i] + b[i] <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn solve_columns_equal_solve_into_bitwise(
        n in 1usize..14,
        k in 2usize..7,
        seed in any::<u64>(),
    ) {
        let a = dense_matrix(n, seed);
        if let Ok(lu) = a.lu() {
            let mut rng = TestRng::new(seed ^ 0x5EED);
            let rhs: Vec<f64> = (0..n * k)
                .map(|_| if rng.below(4) == 0 { 0.0 } else { 10.0 * rng.unit_f64() - 5.0 })
                .collect();
            let mut swept = rhs.clone();
            lu.solve_columns_into(&mut swept, &mut Vec::new());
            let mut scratch = Vec::new();
            for (c, (column, got)) in rhs.chunks_exact(n).zip(swept.chunks_exact(n)).enumerate() {
                let mut want = column.to_vec();
                lu.solve_into(&mut want, &mut scratch);
                prop_assert_eq!(bits(&want), bits(got), "column {}", c);
            }
        }
    }

    #[test]
    fn lu_traffic_equations_equal_direct_elimination_bitwise(
        n in 1usize..16,
        seed in any::<u64>(),
        inverse in any::<bool>(),
    ) {
        let rows = sparse_routing(n, seed);
        let routing = RoutingMatrix::from_rows(&rows).unwrap();
        let mut rng = TestRng::new(seed ^ 0x6A33);
        let gamma: Vec<f64> = (0..n)
            .map(|_| if rng.below(3) == 0 { 0.0 } else { 5.0 * rng.unit_f64() })
            .collect();
        let direct = JacksonNetwork::new(routing.clone(), gamma.clone())
            .unwrap()
            .arrival_rates();
        let lu = solve_traffic(&routing, &gamma, inverse);
        match (direct, lu) {
            (Ok(want), Ok(got)) => {
                prop_assert_eq!(bits(&want), bits(got.arrival_rates()));
                prop_assert_eq!(got.inverse_columns().len(), if inverse { n * n } else { 0 });
                // The inverse columns are bitwise the direct solves of the
                // identity columns.
                let m = routing.traffic_matrix();
                for (j, column) in got.inverse_columns().chunks_exact(n).enumerate() {
                    let mut e = vec![0.0; n];
                    e[j] = 1.0;
                    prop_assert_eq!(bits(&m.solve(&e).unwrap()), bits(column), "column {}", j);
                }
            }
            (Err(want), Err(got)) => prop_assert_eq!(want, got),
            (want, got) => panic!("direct {want:?} but LU {got:?}"),
        }
    }

    #[test]
    fn inverse_equals_direct_column_solves_bitwise(n in 1usize..12, seed in any::<u64>()) {
        let a = dense_matrix(n, seed);
        match a.inverse() {
            Ok(inv) => {
                for j in 0..n {
                    let mut e = vec![0.0; n];
                    e[j] = 1.0;
                    let col = a.solve(&e).unwrap();
                    let got: Vec<f64> = (0..n).map(|i| inv[(i, j)]).collect();
                    prop_assert_eq!(bits(&col), bits(&got), "column {}", j);
                }
            }
            Err(e) => prop_assert_eq!(Err(e), a.solve(&vec![1.0; n]).map(drop)),
        }
    }

    #[test]
    fn hit_before_pairs_equal_direct_solves_bitwise(n in 2usize..10, seed in any::<u64>()) {
        let rows: Vec<Vec<f64>> = sparse_routing(n, seed)
            .into_iter()
            .map(|row| row.into_iter().map(|p| p * 0.95).collect())
            .collect();
        let routing = RoutingMatrix::from_rows(&rows).unwrap();
        let chain = AbsorbingChain::new(routing).unwrap();
        let start = vec![1.0 / n as f64; n];
        for j in 0..n {
            for k in (j + 1)..n {
                // The direct elimination the hit-before systems replace.
                let mut a = Matrix::identity(n);
                for (i, row) in rows.iter().enumerate() {
                    if i != j && i != k {
                        for (l, &p) in row.iter().enumerate() {
                            a[(i, l)] -= p;
                        }
                    }
                }
                let direct = |first: usize| -> Vec<f64> {
                    let mut b = vec![0.0; n];
                    b[first] = 1.0;
                    a.solve(&b).unwrap().into_iter().map(|v| v.clamp(0.0, 1.0)).collect()
                };
                let (j_first, k_first) = (direct(j), direct(k));
                prop_assert_eq!(bits(&chain.hit_before(j, k).unwrap()), bits(&j_first));
                prop_assert_eq!(bits(&chain.hit_before(k, j).unwrap()), bits(&k_first));
                let (j_to_k, k_to_j) = (chain.hitting_probability(j, k), chain.hitting_probability(k, j));
                let mut both = 0.0;
                for (i, &s) in start.iter().enumerate() {
                    both += s * (j_first[i] * j_to_k + k_first[i] * k_to_j);
                }
                prop_assert_eq!(
                    chain.visits_both(&start, j, k).unwrap().to_bits(),
                    both.clamp(0.0, 1.0).to_bits()
                );
            }
        }
    }
}
