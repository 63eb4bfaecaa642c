//! Per-round fluid bandwidth allocation.
//!
//! Downloads progress in fixed rounds. Cloud bandwidth is a shared pool
//! split max–min fairly across chunk demands; in P2P mode each channel
//! first serves itself from its peers' upload capacity using the paper's
//! rarest-first discipline (requests for the rarest chunk are served
//! first), and only the deficit falls through to the cloud.
//!
//! Both kernels come in two forms: the dense reference (`allocate_pool`,
//! `peer_allocation`), which returns a fresh vector over every chunk
//! slot and is what the reference engine and the property tests call,
//! and the mask-sparse in-place kernel (`_sparse`), the production
//! engine's hot path, which writes only the requested chunks into
//! caller-owned buffers (zero heap allocation per call). The two forms
//! compute bit-identical values.
//!
//! Whole units split by `apportion`, by largest remainder: a federated
//! region's VM targets across the sites serving it, and the event-driven
//! engine's online servers across channels.

/// Max–min fair allocation of `pool` across entries with the given
/// `demands`: everyone gets at most their demand, no entry can gain
/// without a larger entry losing. The dense reference of
/// [`allocate_pool_sparse`].
///
/// Progressive filling runs over only the *positive* demands (zero
/// entries receive zero without participating in the sort) and exits as
/// soon as the pool drains; when total demand fits in the pool the sort
/// is skipped entirely. Demands must be non-negative and finite.
pub fn allocate_pool(demands: &[f64], pool: f64) -> Vec<f64> {
    let n = demands.len();
    let mut out = vec![0.0; n];
    if n == 0 || pool <= 0.0 {
        return out;
    }
    let total: f64 = demands.iter().sum();
    if total <= pool {
        out.copy_from_slice(demands);
        return out;
    }
    // Progressive filling over positive demands, ascending. Ties break by
    // index, which reproduces a stable sort over the full demand vector:
    // the zero entries it would place first all receive zero and only
    // decrement the active count, so starting from `active =
    // positive_count` is arithmetically identical.
    let mut order: Vec<usize> = (0..n).filter(|&i| demands[i] > 0.0).collect();
    order.sort_unstable_by(|&a, &b| demands[a].total_cmp(&demands[b]).then(a.cmp(&b)));
    let mut remaining = pool;
    let mut active = order.len();
    for &i in &order {
        if remaining <= 0.0 {
            // Pool drained: every later (larger) demand gets zero, which
            // `out` already holds.
            break;
        }
        let share = remaining / active as f64;
        let give = demands[i].min(share);
        out[i] = give;
        remaining -= give;
        active -= 1;
    }
    out
}

/// Mask-sparse max–min fair allocation: like [`allocate_pool`], but
/// writes into `out`, with `order` as caller-owned sort scratch reused
/// across calls, and touches only the chunk slots whose bit is set in
/// `mask` (ascending).
///
/// Contract: slots outside `mask` are neither read nor written — the
/// caller guarantees `out` is already zero wherever it will later be read
/// densely. Because a zero demand contributes exactly nothing to the
/// progressive fill (it sorts first, receives zero, and leaves both the
/// remaining pool and the share arithmetic untouched), the values written
/// for in-mask slots are bit-identical to a dense [`allocate_pool`]
/// call over the full slice.
///
/// The `total <= pool` branch copies `out[k] = demands[k]` *verbatim* —
/// not a proportional share that merely rounds to it — so an
/// under-subscribed channel's served ratio is exactly `1.0` and the
/// advance pass scales each download's requested rate by exactly one.
pub fn allocate_pool_sparse(
    demands: &[f64],
    pool: f64,
    out: &mut [f64],
    order: &mut Vec<usize>,
    mask: u64,
) {
    if mask == 0 || pool <= 0.0 {
        return;
    }
    let mut total = 0.0;
    let mut m = mask;
    while m != 0 {
        let k = m.trailing_zeros() as usize;
        m &= m - 1;
        total += demands[k];
    }
    if total <= pool {
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            out[k] = demands[k];
        }
        return;
    }
    order.clear();
    let mut m = mask;
    while m != 0 {
        let k = m.trailing_zeros() as usize;
        m &= m - 1;
        if demands[k] > 0.0 {
            order.push(k);
        }
    }
    order.sort_unstable_by(|&a, &b| demands[a].total_cmp(&demands[b]).then(a.cmp(&b)));
    let mut remaining = pool;
    let mut active = order.len();
    for &i in order.iter() {
        if remaining <= 0.0 {
            break;
        }
        let share = remaining / active as f64;
        let give = demands[i].min(share);
        out[i] = give;
        remaining -= give;
        active -= 1;
    }
}

/// One channel's state for a P2P allocation round.
#[derive(Debug, Clone, Default)]
pub struct ChannelRound {
    /// Requested download rate per chunk (sum over requesters, each capped
    /// at the per-connection limit), bytes/s.
    pub requested_rate: Vec<f64>,
    /// Number of peers owning each chunk (excluding current downloaders).
    pub owners: Vec<usize>,
    /// Total upload capacity of the owners of each chunk, bytes/s.
    pub owner_upload: Vec<f64>,
    /// Total upload capacity of all peers in the channel, bytes/s (the
    /// global constraint that a peer's bandwidth is not double-counted
    /// across the chunks it owns).
    pub upload_pool: f64,
}

/// Rarest-first peer bandwidth allocation for one channel: chunks are
/// served in increasing order of owner count (ties by chunk index);
/// each chunk receives at most its requested rate, at most its owners'
/// upload capacity, and at most what remains of the channel-wide upload
/// pool. Unrequested chunks are skipped before the sort, and the fill
/// loop exits once the pool drains. The dense reference of
/// [`peer_allocation_sparse`].
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn peer_allocation(round: &ChannelRound) -> Vec<f64> {
    let j = round.requested_rate.len();
    assert_eq!(
        round.owners.len(),
        j,
        "owners length must match chunk count"
    );
    assert_eq!(
        round.owner_upload.len(),
        j,
        "owner_upload length must match chunk count"
    );
    let mut served = vec![0.0; j];
    let mut order: Vec<usize> = (0..j).filter(|&i| round.requested_rate[i] > 0.0).collect();
    order.sort_unstable_by_key(|&i| (round.owners[i], i));
    let mut pool = round.upload_pool;
    for &i in &order {
        if pool <= 0.0 {
            break;
        }
        let give = round.requested_rate[i].min(round.owner_upload[i]).min(pool);
        served[i] = give;
        pool -= give;
    }
    served
}

/// Mask-sparse rarest-first allocation: like [`peer_allocation`], but
/// writes into `served`, with `order` as caller-owned sort scratch, and
/// touches only the chunk slots whose bit is set in `mask`.
///
/// Same contract as [`allocate_pool_sparse`]: out-of-mask slots are
/// neither read nor written, and in-mask results are bit-identical to
/// the dense kernel because unrequested chunks never enter the fill.
#[allow(clippy::too_many_arguments)]
pub fn peer_allocation_sparse(
    requested_rate: &[f64],
    owners: &[usize],
    owner_upload: &[f64],
    upload_pool: f64,
    served: &mut [f64],
    order: &mut Vec<usize>,
    mask: u64,
) {
    order.clear();
    let mut m = mask;
    while m != 0 {
        let k = m.trailing_zeros() as usize;
        m &= m - 1;
        if requested_rate[k] > 0.0 {
            order.push(k);
        }
    }
    order.sort_unstable_by_key(|&i| (owners[i], i));
    let mut pool = upload_pool;
    for &i in order.iter() {
        if pool <= 0.0 {
            break;
        }
        let give = requested_rate[i].min(owner_upload[i]).min(pool);
        served[i] = give;
        pool -= give;
    }
}

/// Splits `total` integer units across `shares` (which need not be
/// normalized) by largest remainder; the result sums to `total`.
pub(crate) fn apportion(total: usize, shares: &[f64]) -> Vec<usize> {
    let sum: f64 = shares.iter().sum();
    if sum <= 0.0 || shares.is_empty() {
        let mut out = vec![0; shares.len()];
        if let Some(first) = out.first_mut() {
            *first = total;
        }
        return out;
    }
    let exact: Vec<f64> = shares
        .iter()
        .map(|s| total as f64 * (s / sum).max(0.0))
        .collect();
    let mut out: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut assigned: usize = out.iter().sum();
    // Hand out the remainder to the largest fractional parts (stable on
    // ties by index).
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa)
            .expect("finite fractions")
            .then(a.cmp(&b))
    });
    let mut k = 0;
    while assigned < total {
        out[order[k % order.len()]] += 1;
        assigned += 1;
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn pool_covers_total_demand_exactly() {
        let d = vec![1.0, 2.0, 3.0];
        let a = allocate_pool(&d, 10.0);
        assert_eq!(a, d);
    }

    #[test]
    fn scarce_pool_is_max_min_fair() {
        let d = vec![10.0, 1.0, 10.0];
        let a = allocate_pool(&d, 9.0);
        // Small demand fully served; the two big ones split the rest.
        assert_close(a[1], 1.0, 1e-12);
        assert_close(a[0], 4.0, 1e-12);
        assert_close(a[2], 4.0, 1e-12);
        assert_close(a.iter().sum::<f64>(), 9.0, 1e-12);
    }

    #[test]
    fn allocation_never_exceeds_demand_or_pool() {
        let d = vec![5.0, 0.0, 2.5, 8.0];
        let a = allocate_pool(&d, 6.0);
        for (ai, di) in a.iter().zip(&d) {
            assert!(ai <= di);
        }
        assert!(a.iter().sum::<f64>() <= 6.0 + 1e-12);
        assert_eq!(a[1], 0.0);
    }

    #[test]
    fn empty_or_zero_pool() {
        assert!(allocate_pool(&[], 5.0).is_empty());
        assert_eq!(allocate_pool(&[1.0, 2.0], 0.0), vec![0.0, 0.0]);
    }

    #[test]
    fn equal_demands_split_equally() {
        let d = vec![4.0; 4];
        let a = allocate_pool(&d, 8.0);
        for x in a {
            assert_close(x, 2.0, 1e-12);
        }
    }

    #[test]
    fn rarest_chunk_served_first() {
        let round = ChannelRound {
            requested_rate: vec![5.0, 5.0],
            owners: vec![10, 1], // chunk 1 is rarest
            owner_upload: vec![100.0, 100.0],
            upload_pool: 6.0,
        };
        let s = peer_allocation(&round);
        assert_close(s[1], 5.0, 1e-12);
        assert_close(s[0], 1.0, 1e-12);
    }

    #[test]
    fn owner_upload_caps_per_chunk_service() {
        let round = ChannelRound {
            requested_rate: vec![10.0],
            owners: vec![2],
            owner_upload: vec![3.0],
            upload_pool: 100.0,
        };
        let s = peer_allocation(&round);
        assert_close(s[0], 3.0, 1e-12);
    }

    #[test]
    fn global_pool_caps_total_service() {
        let round = ChannelRound {
            requested_rate: vec![10.0, 10.0, 10.0],
            owners: vec![1, 2, 3],
            owner_upload: vec![10.0, 10.0, 10.0],
            upload_pool: 12.0,
        };
        let s = peer_allocation(&round);
        assert_close(s.iter().sum::<f64>(), 12.0, 1e-12);
        // Rarity order: chunk 0 fully served, chunk 1 partial, chunk 2
        // starved.
        assert_close(s[0], 10.0, 1e-12);
        assert_close(s[1], 2.0, 1e-12);
        assert_close(s[2], 0.0, 1e-12);
    }

    #[test]
    fn unrequested_chunks_get_nothing() {
        let round = ChannelRound {
            requested_rate: vec![0.0, 4.0],
            owners: vec![0, 5],
            owner_upload: vec![0.0, 50.0],
            upload_pool: 50.0,
        };
        let s = peer_allocation(&round);
        assert_eq!(s[0], 0.0);
        assert_close(s[1], 4.0, 1e-12);
    }

    #[test]
    fn owner_ties_break_by_chunk_index() {
        let round = ChannelRound {
            requested_rate: vec![5.0, 5.0, 5.0],
            owners: vec![2, 2, 2],
            owner_upload: vec![10.0, 10.0, 10.0],
            upload_pool: 7.0,
        };
        let s = peer_allocation(&round);
        assert_close(s[0], 5.0, 1e-12);
        assert_close(s[1], 2.0, 1e-12);
        assert_close(s[2], 0.0, 1e-12);
    }
}
