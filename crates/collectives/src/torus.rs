//! 2D-Torus AllReduce ("2DTAR", Mikami et al. 2018; Cho et al. 2019) — the
//! paper's strongest dense baseline.
//!
//! The cluster is viewed as an `m × n` grid (m nodes, n GPUs per node;
//! rank = node * n + gpu). The AllReduce decomposes into three phases that
//! keep the bulk of the traffic on the fast intra-node links:
//!
//! 1. intra-node ring ReduceScatter (n GPUs, NVLink),
//! 2. inter-node ring AllReduce of each GPU's shard (m nodes, Ethernet) —
//!    n of these run concurrently, one per GPU index,
//! 3. intra-node ring AllGather (n GPUs, NVLink).
//!
//! Only phase 2 crosses the slow links, and it moves `d/n` elements per
//! GPU instead of `d`. The inter-node rings may visit the nodes in a
//! topology-probed order (see [`crate::reorder`]); the identity order is
//! bitwise the natural schedule.

use cloudtrain_tensor::partition::shard_for;

use crate::group::Link;
use crate::reorder::assert_valid_order;
use crate::ring::{ring_all_gather_scratch, ring_all_reduce_scratch, ring_reduce_scatter_scratch};
use crate::scratch::CommScratch;

/// Grid coordinates of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPos {
    /// Node index `i` in `[0, m)`.
    pub node: usize,
    /// GPU index `j` within the node, in `[0, n)`.
    pub gpu: usize,
}

/// Splits `rank` into grid coordinates for an `m × n` grid.
///
/// # Panics
/// Panics if `rank >= m * n`.
pub fn grid_pos(rank: usize, m: usize, n: usize) -> GridPos {
    assert!(rank < m * n, "rank {rank} outside {m}x{n} grid");
    GridPos {
        node: rank / n,
        gpu: rank % n,
    }
}

/// Ranks of all GPUs in node `i` (the intra-node ring).
pub fn intra_node_members(i: usize, n: usize) -> Vec<usize> {
    (0..n).map(|j| i * n + j).collect()
}

/// Ranks of GPU `j` across all nodes (the inter-node ring / communication
/// stream `j`).
pub fn inter_node_members(j: usize, m: usize, n: usize) -> Vec<usize> {
    (0..m).map(|i| i * n + j).collect()
}

/// Ranks of GPU `j` across the nodes visited in `node_order` — the
/// natural [`inter_node_members`] when `None`.
///
/// # Panics
/// Panics unless `node_order` is a permutation of `0..m`.
pub(crate) fn inter_members(
    j: usize,
    m: usize,
    n: usize,
    node_order: Option<&[usize]>,
) -> Vec<usize> {
    match node_order {
        Some(order) => {
            assert_valid_order(order, m);
            order.iter().map(|&i| i * n + j).collect()
        }
        None => inter_node_members(j, m, n),
    }
}

/// 2D-Torus AllReduce over the full `m × n` group: on return every rank's
/// `x` holds the element-wise sum over all `m * n` ranks.
///
/// # Panics
/// Panics if the group size is not `m * n`.
pub fn torus_all_reduce<L: Link + ?Sized>(link: &L, x: &mut [f32], m: usize, n: usize) {
    torus_all_reduce_scratch(link, x, m, n, None, &mut CommScratch::new());
}

/// [`torus_all_reduce`] with the inter-node rings visiting nodes in
/// `node_order` (natural order when `None`) and every hop buffer drawn
/// from `scratch`. Only the phase-2 ring order changes, so the identity
/// order is bitwise the natural schedule; over a fault-charging link the
/// sum stays exact (dense traffic is never degraded, only retried).
///
/// # Panics
/// Panics if the group size is not `m * n` or `node_order` is not a
/// permutation of `0..m`.
pub fn torus_all_reduce_scratch<L: Link + ?Sized>(
    link: &L,
    x: &mut [f32],
    m: usize,
    n: usize,
    node_order: Option<&[usize]>,
    scratch: &mut CommScratch,
) {
    assert_eq!(link.size(), m * n, "torus_all_reduce: group is not m*n");
    link.begin_instance();
    let pos = grid_pos(link.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_members(pos.gpu, m, n, node_order);

    // Phase 1: intra-node ReduceScatter. This GPU ends owning shard `gpu`.
    let shard = ring_reduce_scatter_scratch(link, x, &intra, scratch);
    debug_assert_eq!(shard, shard_for(x.len(), n, pos.gpu));

    // Phase 2: inter-node AllReduce of the owned shard (stream `gpu`).
    ring_all_reduce_scratch(link, shard.slice_mut(x), &inter, scratch);

    // Phase 3: intra-node AllGather reassembles the full vector.
    ring_all_gather_scratch(link, x, &intra, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use cloudtrain_tensor::{init, ops};

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(3000 + rank as u64);
        init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
    }

    fn expected_sum(p: usize, d: usize) -> Vec<f32> {
        let mut acc = vec![0.0; d];
        for r in 0..p {
            ops::add_assign(&mut acc, &vec_for(r, d));
        }
        acc
    }

    #[test]
    fn torus_matches_sequential_sum() {
        for (m, n, d) in [
            (2usize, 2usize, 16usize),
            (2, 4, 37),
            (4, 2, 100),
            (3, 3, 50),
        ] {
            let p = m * n;
            let expect = expected_sum(p, d);
            let results = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                torus_all_reduce(peer, &mut x, m, n);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert!(
                    ops::approx_eq(x, &expect, 1e-4),
                    "m={m} n={n} d={d} rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn all_ranks_agree_bitwise() {
        let (m, n, d) = (4, 4, 999);
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(peer, &mut x, m, n);
            x
        });
        for r in 1..m * n {
            assert_eq!(results[0], results[r]);
        }
    }

    #[test]
    fn grid_helpers() {
        assert_eq!(grid_pos(11, 4, 8), GridPos { node: 1, gpu: 3 });
        assert_eq!(intra_node_members(2, 4), vec![8, 9, 10, 11]);
        assert_eq!(inter_node_members(3, 4, 8), vec![3, 11, 19, 27]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_rank_panics() {
        grid_pos(8, 2, 4);
    }

    #[test]
    fn degenerate_grids() {
        // 1 node: torus degenerates to intra RS + intra AG (inter ring is 1).
        let results = run_on_group(4, |peer| {
            let mut x = vec![1.0f32; 8];
            torus_all_reduce(peer, &mut x, 1, 4);
            x
        });
        assert_eq!(results[0], vec![4.0; 8]);
        // 1 GPU per node: pure inter-node ring.
        let results = run_on_group(4, |peer| {
            let mut x = vec![1.0f32; 8];
            torus_all_reduce(peer, &mut x, 4, 1);
            x
        });
        assert_eq!(results[0], vec![4.0; 8]);
    }
}
