//! Property tests of the registry's log2 histogram: bucket boundaries
//! partition `u64` exactly.

use cloudmedia_telemetry::{bucket_bounds, bucket_index, HIST_BUCKETS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in exactly the bucket whose bounds contain it.
    #[test]
    fn bucket_index_matches_bounds(v in 0u64..u64::MAX) {
        let b = bucket_index(v);
        prop_assert!(b < HIST_BUCKETS);
        let (lo, hi) = bucket_bounds(b);
        prop_assert!(lo <= v && v <= hi, "v={v} outside bucket {b} = [{lo}, {hi}]");
    }

    /// Bucket `b ≥ 1` is exactly `[2^(b-1), 2^b)`: both edges map to it,
    /// and the values just outside map to its neighbours.
    #[test]
    fn bucket_edges_are_exact(b in 1usize..64) {
        let lo = 1u64 << (b - 1);
        let hi = (1u64 << b) - 1;
        prop_assert_eq!(bucket_index(lo), b);
        prop_assert_eq!(bucket_index(hi), b);
        prop_assert_eq!(bucket_index(lo - 1), b - 1);
        prop_assert_eq!(bucket_index(hi + 1), b + 1);
    }
}
