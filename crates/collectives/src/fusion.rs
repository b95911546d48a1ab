//! Fused compress–reduce: step 1 of the HiTopKComm pipeline under
//! [`crate::hierarchical::Intra::Fused`].
//!
//! The staged pipeline materializes the full dense gradient between its
//! hops: the intra-node ReduceScatter accumulates partial sums *in place*
//! across all of `x`, then the top-k stage reads one shard back out of it.
//! The fused schedule instead threads one owned shard-sized buffer through
//! the ring — each hop adds the local contribution into the buffer that
//! just arrived and forwards it — so the reduction's working set is `d/P`
//! elements instead of `d`, `x` stays read-only until the sparse aggregate
//! is scattered back, and the compressor consumes the reduced shard
//! straight out of the comm buffer (the compress hop is *fused* onto the
//! final reduce hop; cf. Li & Hoefler, *Near-Optimal Sparse Allreduce*, on
//! avoiding the dense materialization between reduction and selection).
//! The pipeline pairs it with a framed pair AllGather for the inter-node
//! exchange — same bytes, half the messages.
//!
//! Determinism contract: the fused schedule performs, per hop, the same
//! two-operand IEEE-754 addition as the staged one with the operands
//! swapped (`recv + local` instead of `local + recv`). `f32` addition is
//! commutative bit for bit, so the fused pipeline is **bitwise identical**
//! to the staged one over any transport — the tests and the conformance
//! oracle enforce it.

use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::group::{member_index, Link};
use crate::scratch::CommScratch;

/// Fused ring ReduceScatter: the hop schedule of
/// [`crate::ring::ring_reduce_scatter_scratch`], but `x` is **read-only** and the
/// reduction state rides the ring in one owned shard-sized buffer. Returns
/// this member's shard descriptor and a pooled buffer holding the fully
/// reduced shard (bitwise equal to what the in-place variant leaves in
/// `x`'s own shard: each hop performs the same two-operand IEEE addition
/// with the operands swapped, and `f32` addition commutes bit for bit).
///
/// The caller owns the returned buffer and should `put_f32` it back once
/// consumed so the arena's take/put flow stays balanced.
pub fn ring_reduce_scatter_fused<L: Link + ?Sized>(
    link: &L,
    x: &[f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> (Shard, Vec<f32>) {
    let p = members.len();
    let me = member_index(members, link.rank());
    let d = x.len();
    if p == 1 {
        return (shard_for(d, 1, 0), scratch.copy_f32(x));
    }
    let chunks = shards(d, p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];

    // Step s forwards chunk (me - s - 1) mod p and accumulates chunk
    // (me - s - 2) mod p into the just-received buffer (`recv += local`).
    // The final received chunk index is `me`, so after p-1 hops `cur` holds
    // this member's fully reduced shard without ever writing `x`.
    let mut cur = scratch.copy_f32(chunks[(me + p - 1) % p].slice(x));
    for s in 0..p - 1 {
        link.send_f32(right, cur);
        let recv_idx = (me + 2 * p - s - 2) % p;
        let mut recv = link.recv_f32(left);
        ops::add_assign(&mut recv, chunks[recv_idx].slice(x));
        cur = recv;
    }
    (chunks[me], cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use crate::hierarchical::tests::{assert_bitwise, check_row, run_variant, Variant, Via};
    use crate::hierarchical::{hitopk_all_reduce, Inter, Intra, Route};
    use crate::resilience::{CommFaults, ResiliencePolicy, ResilientPeer};
    use crate::ring::ring_reduce_scatter;
    use crate::torus::{grid_pos, intra_node_members};
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::{ErrorFeedback, MsTopK};
    use cloudtrain_obs::Registry;
    use cloudtrain_tensor::init;

    /// Per-rank deterministic test vector.
    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(12000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn fused(ef: bool) -> Variant {
        Variant {
            intra: Intra::Fused,
            ..Variant::plain(ef)
        }
    }

    #[test]
    fn fused_reduce_scatter_matches_in_place_bitwise() {
        for (p, d) in [(2usize, 10usize), (4, 37), (8, 64), (3, 5), (1, 7)] {
            let members: Vec<usize> = (0..p).collect();
            let in_place = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let shard = ring_reduce_scatter(peer, &mut x, &members);
                (shard, shard.slice(&x).to_vec())
            });
            let fused = run_on_group(p, |peer| {
                let x = vec_for(peer.rank(), d);
                let mut scratch = CommScratch::new();
                let (shard, reduced) = ring_reduce_scatter_fused(peer, &x, &members, &mut scratch);
                // x must be untouched by the fused schedule.
                assert_eq!(x, vec_for(peer.rank(), d));
                (shard, reduced)
            });
            for (r, (a, b)) in in_place.iter().zip(&fused).enumerate() {
                assert_eq!(a.0, b.0, "p={p} d={d} rank {r}: shard descriptor");
                assert_eq!(a.1, b.1, "p={p} d={d} rank {r}: reduced shard bits");
            }
        }
    }

    #[test]
    fn fused_hitopk_matches_unfused_bitwise() {
        for (m, n, d, rho) in [
            (2usize, 2usize, 40usize, 0.2f64),
            (3, 2, 53, 0.1),
            (2, 4, 64, 0.5),
        ] {
            let input = |_: usize, rank: usize| vec_for(rank, d);
            let staged = run_variant(&Variant::plain(false), m, n, d, rho, 1, input, |_| SortTopK);
            let fused = run_variant(&fused(false), m, n, d, rho, 1, input, |_| SortTopK);
            assert_bitwise(&format!("m={m} n={n}"), &staged, &fused);
        }
    }

    #[test]
    fn fused_hitopk_with_mstopk_matches_unfused_bitwise() {
        check_row("hitopk: fused vs staged");
    }

    #[test]
    fn fused_ef_matches_unfused_over_rounds() {
        check_row("hitopk_ef: fused vs staged");
    }

    #[test]
    fn fused_traced_is_bitwise_identical_and_spans_fused_hop() {
        let (m, n, d, rho) = (2usize, 2usize, 40usize, 0.25f64);
        let input = |_: usize, rank: usize| vec_for(rank, d);
        let plain = run_variant(&fused(false), m, n, d, rho, 1, input, |_| SortTopK);
        let traced_variant = Variant {
            traced: true,
            ..fused(false)
        };
        let traced = run_variant(&traced_variant, m, n, d, rho, 1, input, |_| SortTopK);
        assert_bitwise("fused traced", &plain, &traced);
        for (r, t) in traced.iter().enumerate() {
            assert_eq!(
                t.spans,
                vec![
                    "hitopk/fused reduce-compress",
                    "hitopk/inter all-gather",
                    "hitopk/intra all-gather",
                ],
                "rank {r}: span shape"
            );
        }
        // The fused hop is charged d + d/n logical units.
        let units = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut reg = Registry::new();
            let mut route = Route {
                intra: Intra::Fused,
                ..Route::new(m, n, rho)
            };
            let mut scratch = CommScratch::new();
            hitopk_all_reduce(
                peer,
                &mut x,
                &mut route,
                None,
                &mut SortTopK,
                None,
                &mut scratch,
                Some(&mut reg),
            );
            reg.spans()[0].seconds()
        });
        assert!(units.iter().all(|u| *u == (d + d.div_ceil(n)) as f64));
    }

    #[test]
    fn fused_resilient_with_clean_faults_matches_unfused_bitwise() {
        let (m, n, d, rho) = (2usize, 2usize, 48usize, 0.2f64);
        let input = |_: usize, rank: usize| vec_for(rank, d);
        let via = Via::Resilient(CommFaults::new(7));
        let staged = Variant {
            via: via.clone(),
            ..Variant::plain(true)
        };
        let fused = Variant { via, ..fused(true) };
        let a = run_variant(&staged, m, n, d, rho, 1, input, |_| SortTopK);
        let b = run_variant(&fused, m, n, d, rho, 1, input, |_| SortTopK);
        assert_bitwise("fused resilient clean", &a, &b);
    }

    #[test]
    fn fused_resilient_conserves_mass_under_hostile_faults() {
        // transmitted + residual must equal each rank's compensated shard:
        // with degradation active, whatever a rank fails to send must
        // survive in its residual (checked via the aggregate identity
        // aggregated_shard + Σ residuals == Σ compensated shards).
        let (m, n, d, rho) = (2usize, 2usize, 48usize, 0.25f64);
        let shard_len = d.div_ceil(n);
        let faults = CommFaults::new(99).with_degrade(0.5);
        let results = run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len);
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            // Clean-fault pre-pass computes the compensated shard reference
            // (residual is zero on round 1, so it is just the reduced shard).
            let x_ref = {
                let x0 = vec_for(peer.rank(), d);
                let members = intra_node_members(grid_pos(peer.rank(), m, n).node, n);
                let (_, reduced) = ring_reduce_scatter_fused(peer, &x0, &members, &mut scratch);
                reduced
            };
            let mut route = Route {
                intra: Intra::Fused,
                ..Route::new(m, n, rho)
            };
            hitopk_all_reduce(
                &rp,
                &mut x,
                &mut route,
                None,
                &mut SortTopK,
                Some(&mut ef),
                &mut scratch,
                None,
            );
            (x, ef.residual().to_vec(), x_ref, rp.report())
        });
        let degraded: usize = results
            .iter()
            .map(|(_, _, _, rep)| rep.degraded_members as usize)
            .sum();
        assert!(degraded > 0, "hostile seed must degrade someone");
        // Aggregate identity per shard: the aggregated value of shard j
        // (on any rank of the owning stream) plus both owners' residuals
        // equals the sum of both nodes' compensated shard-j sums.
        for gpu in 0..n {
            let shard = shard_for(d, n, gpu);
            let aggregated = shard.slice(&results[gpu].0); // rank `gpu` is node 0, gpu `gpu`
            let owners: Vec<usize> = (0..m).map(|node| node * n + gpu).collect();
            for (i, agg) in aggregated.iter().enumerate() {
                let compensated: f32 = owners.iter().map(|&r| results[r].2[i]).sum();
                let residuals: f32 = owners.iter().map(|&r| results[r].1[i]).sum();
                let diff = (agg + residuals - compensated).abs();
                assert!(
                    diff <= 1e-4 * compensated.abs().max(1.0),
                    "shard {gpu} elem {i}: mass leaked ({agg} + {residuals} != {compensated})"
                );
            }
        }
    }

    #[test]
    fn fused_path_reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.2f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut ef = ErrorFeedback::new(d.div_ceil(n));
            let mut route = Route {
                intra: Intra::Fused,
                ..Route::new(m, n, rho)
            };
            let mut warm = 0;
            for round in 0..4usize {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_all_reduce(
                    peer,
                    &mut y,
                    &mut route,
                    None,
                    &mut SortTopK,
                    Some(&mut ef),
                    &mut scratch,
                    None,
                );
                if round == 0 {
                    warm = scratch.misses();
                }
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(total, warm, "rank {r}: fused steady state allocated");
        }
    }

    #[test]
    fn fused_traced_aggregation_matches_unfused_traced() {
        // Same bits, different span shape (4 spans staged, 3 fused) — for
        // both exchanges.
        let (m, n, d, rho) = (2usize, 2usize, 40usize, 0.25f64);
        let input = |_: usize, rank: usize| vec_for(rank, d);
        for inter in [Inter::AllGather, Inter::SplitMerge] {
            let staged = Variant {
                traced: true,
                inter,
                ..Variant::plain(false)
            };
            let fused = Variant {
                intra: Intra::Fused,
                ..staged.clone()
            };
            let a = run_variant(&staged, m, n, d, rho, 1, input, |r| {
                MsTopK::new(3, r as u64)
            });
            let b = run_variant(&fused, m, n, d, rho, 1, input, |r| MsTopK::new(3, r as u64));
            assert_bitwise("fused vs staged traced", &a, &b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.spans.len(), y.spans.len()),
                    (4, 3),
                    "{inter:?} span counts"
                );
            }
        }
    }
}
