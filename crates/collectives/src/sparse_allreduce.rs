//! O(k) sparse allreduce — balanced index partitioning with split-and-merge
//! reduction (Li & Hoefler, *Near-Optimal Sparse Allreduce*, PPoPP 2022).
//!
//! HiTopKComm's inter-node step is a sparse All**Gather**: every member
//! broadcasts its whole `k̃`-selection to the other `m-1` members, costing
//! `O(m·k̃)` wire bytes per member. This module replaces that step with the
//! split-and-merge schedule:
//!
//! 1. **Partition.** The shard's index space is split into `m` balanced,
//!    contiguous ranges, one owned by each inter-group member (in member
//!    order). Each member *splits* its selection by owner.
//! 2. **Split.** Each member sends partition `t` of its selection to member
//!    `t` — point-to-point, `O(k̃)` bytes total per member.
//! 3. **Merge.** Each member reduces the `m` partition lists it holds (its
//!    own plus `m-1` received) into a dense accumulator over its range, in
//!    member order, then extracts the surviving nonzeros in ascending index
//!    order — the *merged* list, at most `range · 1` and typically `≈ k̃`
//!    entries thanks to selection overlap.
//! 4. **AllGather.** One sparse AllGather of the (already reduced) merged
//!    lists reassembles the aggregated shard everywhere.
//!
//! Total inter-node traffic per member is `≈ 8k̃` split bytes plus
//! `8·merged·(m-1)` gather bytes, where `merged ≈ nnz/m` and `nnz` is the
//! aggregated shard's nonzero count. When the members' selections overlap —
//! the steady state of error-feedback top-k training, whose heavy
//! coordinates are structural — `nnz` stays `O(k̃)` and the total is
//! `≈ 16k̃` *independent of `m`*, beating HiTopKComm's `8k̃(m-1)` from
//! `m ≥ 3`. With fully disjoint selections `nnz → m·k̃` and the schedule
//! degrades to HiTopKComm-like volume (never asymptotically worse). The
//! per-layer autotuner in `cloudtrain-engine` models exactly this with an
//! overlap parameter and picks the cheaper schedule per layer.
//!
//! **Determinism contract.** For every index, contributions accumulate in
//! inter-member order — the same order HiTopKComm's scatter-accumulate uses
//! — so with the same compressor state the aggregated vector is *bitwise
//! identical* to the all-gather exchange's. Only the wire schedule (and
//! hence the byte accounting) differs.
//!
//! This module is step 3 of [`crate::hierarchical::hitopk_all_reduce`]
//! under [`crate::hierarchical::Inter::SplitMerge`]; transport, member
//! order, error feedback, value codec and tracing are the pipeline's
//! arguments, shared with the all-gather exchange.

use cloudtrain_compress::SparseGrad;
use cloudtrain_tensor::partition::{shards, Shard};

use crate::group::{member_index, Link};
use crate::ring::{frame_pair, unframe_pair};
use crate::scratch::CommScratch;

/// The outcome of one split-and-merge: this member's merged (already
/// reduced) range list, ready for the AllGather, plus the split sizes the
/// byte report needs.
pub(crate) struct Split {
    /// Merged values, ascending index order (scratch-backed).
    pub values: Vec<f32>,
    /// Merged shard-relative indices (scratch-backed).
    pub indices: Vec<u32>,
    /// Per-member split partition lengths, by inter ordinal.
    lens: Vec<usize>,
    /// This member's inter ordinal.
    me: usize,
}

impl Split {
    /// Lengths of the partitions sent away (every member but this one).
    pub fn sent_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.lens
            .iter()
            .enumerate()
            .filter(move |(t, _)| *t != self.me)
            .map(|(_, len)| *len)
    }

    /// Selection entries sent away during the split.
    pub fn sent_entries(&self) -> usize {
        self.sent_lens().sum()
    }
}

/// Owner ordinal of shard-relative index `idx` under the balanced
/// contiguous partition `ranges`.
fn owner_of(ranges: &[Shard], idx: usize) -> usize {
    ranges.partition_point(|r| r.end <= idx)
}

/// Splits `selection` by owner range into `q` scratch-backed partition
/// pairs (selection order preserved within each partition).
fn split_by_owner(
    selection: &SparseGrad,
    ranges: &[Shard],
    scratch: &mut CommScratch,
) -> (Vec<Vec<f32>>, Vec<Vec<u32>>) {
    let q = ranges.len();
    let mut part_vals: Vec<Vec<f32>> = (0..q).map(|_| scratch.take_f32(0)).collect();
    let mut part_idxs: Vec<Vec<u32>> = (0..q).map(|_| scratch.take_u32(0)).collect();
    for (v, i) in selection.values.iter().zip(&selection.indices) {
        let t = owner_of(ranges, *i as usize);
        part_vals[t].push(*v);
        part_idxs[t].push(*i);
    }
    (part_vals, part_idxs)
}

/// Accumulates one partition list into the dense accumulator over
/// `my_range`.
fn merge_into_range(acc: &mut [f32], my_range: Shard, vals: &[f32], idxs: &[u32]) {
    for (v, i) in vals.iter().zip(idxs) {
        let off = *i as usize - my_range.start;
        acc[off] += v;
    }
}

/// Split and merge: sends partition `t` of this member's `selection` (over
/// a `shard_len`-element shard) to inter member `t`, then reduces the `q`
/// partition lists of its own range in member order and extracts the
/// ascending-index nonzeros. `inter` fixes both the member order of the
/// reduction and the partition ownership.
pub(crate) fn split_merge<L: Link + ?Sized>(
    link: &L,
    shard_len: usize,
    selection: &SparseGrad,
    inter: &[usize],
    scratch: &mut CommScratch,
) -> Split {
    let q = inter.len();
    let me = member_index(inter, link.rank());
    let ranges = shards(shard_len, q);
    let my_range = ranges[me];

    // Split: send partition `t` to inter member `t` (non-blocking sends,
    // so every member can post all q-1 sends before its first receive —
    // deadlock-free without any ordering between groups).
    let (part_vals, part_idxs) = split_by_owner(selection, &ranges, scratch);
    let lens: Vec<usize> = part_vals.iter().map(Vec::len).collect();
    for t in 0..q {
        if t == me {
            continue;
        }
        let frame = frame_pair(&part_vals[t], &part_idxs[t], scratch);
        link.send_u32(inter[t], frame);
    }

    // Merge: accumulate the q partition lists for my range in member order
    // (own partition at its ordinal), then extract ascending-index
    // nonzeros. Per index this is the same member-order accumulation the
    // all-gather scatter performs — the bitwise-identity hinge.
    let mut acc = scratch.take_f32(my_range.len());
    for (t, member) in inter.iter().enumerate() {
        if t == me {
            merge_into_range(&mut acc, my_range, &part_vals[t], &part_idxs[t]);
        } else {
            let (vals, idxs) = unframe_pair(link.recv_u32(*member), scratch);
            merge_into_range(&mut acc, my_range, &vals, &idxs);
            scratch.put_f32(vals);
            scratch.put_u32(idxs);
        }
    }
    for (vals, idxs) in part_vals.into_iter().zip(part_idxs) {
        scratch.put_f32(vals);
        scratch.put_u32(idxs);
    }
    let mut values = scratch.take_f32(0);
    let mut indices = scratch.take_u32(0);
    for (off, v) in acc.iter().enumerate() {
        if *v != 0.0 {
            values.push(*v);
            indices.push((my_range.start + off) as u32);
        }
    }
    scratch.put_f32(acc);
    Split {
        values,
        indices,
        lens,
        me,
    }
}

/// Quantized-wire byte accounting: one scale word plus a 32-bit index and a
/// packed level code per entry (`ceil(log2(2s+1))` bits each), matching
/// [`cloudtrain_compress::QuantizedGrad::wire_bytes`]'s packing.
pub(crate) fn quantized_pair_wire_bytes(entries: usize, levels: u8) -> usize {
    let bits = (2 * levels as u32 + 1).next_power_of_two().trailing_zeros() as usize;
    4 + 4 * entries + (entries * bits).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{DeadlineFaults, DeadlinePeer, DeadlinePolicy};
    use crate::group::{run_on_group, Peer};
    use crate::hierarchical::tests::check_row;
    use crate::hierarchical::{
        group_wire_bytes, hitopk_all_reduce, pair_wire_bytes, shard_k, HiTopKReport, Inter, Route,
    };
    use crate::resilience::{CommFaults, ResiliencePolicy, ResilientPeer};
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::quantize::{Qsgd, Quantizer};
    use cloudtrain_compress::{Compressor, ErrorFeedback, MsTopK};
    use cloudtrain_obs::Registry;
    use cloudtrain_tensor::partition::shard_for;
    use cloudtrain_tensor::{init, ops};

    /// One pipeline call with the given exchange over `link`.
    #[allow(clippy::too_many_arguments)]
    fn call<L: Link + ?Sized, C: Compressor + ?Sized>(
        link: &L,
        x: &mut [f32],
        inter: Inter,
        m: usize,
        n: usize,
        rho: f64,
        c: &mut C,
        ef: Option<&mut ErrorFeedback>,
        order: Option<&[usize]>,
        scratch: &mut CommScratch,
    ) -> HiTopKReport {
        let mut route = Route {
            inter,
            ..Route::new(m, n, rho)
        };
        hitopk_all_reduce(link, x, &mut route, order, c, ef, scratch, None)
    }

    /// The O(k) pipeline (split-merge exchange) with a fresh arena.
    fn ok<C: Compressor + ?Sized>(
        peer: &Peer,
        x: &mut [f32],
        m: usize,
        n: usize,
        rho: f64,
        c: &mut C,
        ef: Option<&mut ErrorFeedback>,
    ) -> HiTopKReport {
        let scratch = &mut CommScratch::new();
        call(peer, x, Inter::SplitMerge, m, n, rho, c, ef, None, scratch)
    }

    /// The all-gather pipeline with a fresh arena.
    fn hi<C: Compressor + ?Sized>(
        peer: &Peer,
        x: &mut [f32],
        m: usize,
        n: usize,
        rho: f64,
        c: &mut C,
        ef: Option<&mut ErrorFeedback>,
    ) -> HiTopKReport {
        let scratch = &mut CommScratch::new();
        call(peer, x, Inter::AllGather, m, n, rho, c, ef, None, scratch)
    }

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(14_000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn shard_len(d: usize, n: usize, rank: usize) -> usize {
        shard_for(d, n, rank % n).len()
    }

    /// The determinism contract: same compressor state → bitwise identical
    /// aggregate to the hitopk twin (only the wire schedule differs).
    #[test]
    fn matches_hitopk_bitwise() {
        for (m, n, d, rho) in [
            (2usize, 4usize, 300usize, 0.05f64),
            (4, 2, 257, 0.1),
            (3, 2, 128, 0.2),
            (2, 2, 31, 0.5),
        ] {
            let hitopk = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                hi(peer, &mut x, m, n, rho, &mut c, None);
                x
            });
            let oksparse = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let rep = ok(peer, &mut x, m, n, rho, &mut c, None);
                assert!(rep.shard_nonzeros >= 1);
                x
            });
            assert_eq!(hitopk, oksparse, "m={m} n={n}: schedules diverged");
        }
    }

    #[test]
    fn ef_matches_hitopk_ef_bitwise_over_rounds() {
        check_row("hitopk_ef: split-merge vs all-gather");
    }

    /// Gradients in the regime sparse training targets: a shared set of
    /// structural heavy coordinates (the same layer positions are large on
    /// every node) plus small per-rank noise, so node selections largely
    /// coincide.
    fn heavy_hitter_vec(rank: usize, d: usize) -> Vec<f32> {
        let mut v = vec_for(rank, d);
        let heavies = d / 10;
        for j in 0..heavies {
            let i = (j * 613) % d;
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            v[i] += sign * 10.0 * ((j % 7) as f32 + 1.0);
        }
        v
    }

    /// The point of the schedule: past two nodes, with overlapping
    /// selections split-and-merge moves fewer inter-node bytes than
    /// hitopk's selection broadcast.
    #[test]
    fn beats_hitopk_traffic_from_three_nodes() {
        let (n, d, rho) = (2usize, 480usize, 0.05f64);
        for m in [3usize, 4, 6] {
            let pairs = run_on_group(m * n, move |peer| {
                let mut x = heavy_hitter_vec(peer.rank(), d);
                let mut c = SortTopK;
                let ok = ok(peer, &mut x, m, n, rho, &mut c, None);
                let mut y = heavy_hitter_vec(peer.rank(), d);
                let hi = hi(peer, &mut y, m, n, rho, &mut c, None);
                (ok, hi)
            });
            for (r, (ok, hi)) in pairs.iter().enumerate() {
                assert!(
                    ok.inter_bytes_sent < hi.inter_bytes_sent,
                    "m={m} rank {r}: O(k) sent {} >= hitopk's {}",
                    ok.inter_bytes_sent,
                    hi.inter_bytes_sent
                );
            }
        }
    }

    #[test]
    fn report_byte_accounting_is_exact() {
        let (m, n, d, rho) = (4usize, 2usize, 400usize, 0.1f64);
        let reports = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            ok(peer, &mut x, m, n, rho, &mut c, None)
        });
        let k = shard_k(d, n, rho);
        for rep in &reports {
            assert_eq!(rep.k_per_shard, k);
            // Split sends at most the whole selection; merged entries are at
            // most the range, at least ceil(k/m) when selections collide.
            assert!(
                rep.inter_bytes_sent
                    <= pair_wire_bytes(k) + pair_wire_bytes(rep.merged_len) * (m - 1)
            );
            assert!(rep.merged_len >= 1);
            assert!(rep.shard_nonzeros <= m * k);
        }
    }

    /// `pair_wire_bytes` and `group_wire_bytes` agree on identical traffic,
    /// so O(k) and hitopk byte reports are directly comparable.
    #[test]
    fn wire_byte_helpers_agree() {
        let sel = SparseGrad {
            values: vec![1.0; 7],
            indices: (0..7).collect(),
            dim: 64,
        };
        for g in 1..6 {
            assert_eq!(
                group_wire_bytes(&sel, g),
                pair_wire_bytes(sel.values.len()) * g.saturating_sub(1)
            );
        }
    }

    #[test]
    fn scratch_and_traced_twins_are_bitwise_identical() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = ok(peer, &mut x, m, n, rho, &mut c, None);
            (x, rep)
        });
        let scratched = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = call(
                peer,
                &mut x,
                Inter::SplitMerge,
                m,
                n,
                rho,
                &mut c,
                None,
                None,
                &mut scratch,
            );
            (x, rep)
        });
        assert_eq!(plain, scratched);
        let traced = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut route = Route {
                inter: Inter::SplitMerge,
                ..Route::new(m, n, rho)
            };
            let rep = hitopk_all_reduce(
                peer,
                &mut x,
                &mut route,
                None,
                &mut c,
                None,
                &mut scratch,
                Some(&mut reg),
            );
            ((x, rep), reg)
        });
        for ((p, (t, reg)), rank) in plain.iter().zip(&traced).zip(0..) {
            assert_eq!(p, t, "rank {rank}: tracing perturbed the result");
            assert_eq!(reg.spans().len(), 4);
            assert_eq!(reg.span_total("oksparse/intra reduce-scatter"), d as f64);
            assert_eq!(
                reg.span_total("oksparse/top-k compression") as usize,
                shard_len(d, n, rank)
            );
            assert!(reg.span_total("oksparse/inter split-merge") > 0.0);
            assert_eq!(reg.span_total("oksparse/intra all-gather"), d as f64);
            assert_eq!(reg.counter("oksparse/invocations"), 1);
            assert_eq!(
                reg.counter("oksparse/inter_bytes_sent") as usize,
                t.1.inter_bytes_sent
            );
            assert_eq!(
                reg.gauge("oksparse/k_per_shard"),
                Some(t.1.k_per_shard as f64)
            );
        }
    }

    #[test]
    fn reordered_identity_is_bitwise_identical() {
        check_row("oksparse_ef: identity-order vs plain");
    }

    #[test]
    fn reordered_rotation_keeps_replicas_identical_and_close_to_plain() {
        let (m, n, d, rho) = (3usize, 2usize, 240usize, 0.1f64);
        let rotated: Vec<usize> = (0..m).map(|i| (i + 1) % m).collect();
        let plain = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok(peer, &mut x, m, n, rho, &mut c, Some(&mut ef));
            x
        });
        let reordered = run_on_group(m * n, move |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let order = Some(rotated.as_slice());
            let ef = Some(&mut ef);
            call(
                peer,
                &mut x,
                Inter::SplitMerge,
                m,
                n,
                rho,
                &mut c,
                ef,
                order,
                &mut scratch,
            );
            x
        });
        for r in 1..m * n {
            assert_eq!(reordered[0], reordered[r], "rank {r} differs");
        }
        for (p, q) in plain.iter().zip(&reordered) {
            assert!(ops::approx_eq(p, q, 1e-4));
        }
    }

    #[test]
    fn resilient_clean_plan_is_bitwise_identical_to_plain() {
        check_row("oksparse_ef: clean-resilient vs plain");
    }

    #[test]
    fn hostile_faults_keep_replicas_identical_and_mass_in_residuals() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let faults = CommFaults::new(11).with_drops(0.2).straggle(5, 0.9);
        let results = run_on_group(m * n, move |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = Vec::new();
            for round in 0..3 {
                x = vec_for(60 * round + peer.rank(), d);
                let ef = Some(&mut ef);
                call(
                    &rp,
                    &mut x,
                    Inter::SplitMerge,
                    m,
                    n,
                    rho,
                    &mut c,
                    ef,
                    None,
                    &mut scratch,
                );
            }
            (x, ef.residual_norm(), rp.report())
        });
        for r in 1..m * n {
            assert_eq!(results[0].0, results[r].0, "rank {r} replica diverged");
        }
        // The straggler's degraded contributions stay in its residual.
        assert!(results[5].1 > 0.0, "straggler residual should hold mass");
        assert!(
            results.iter().any(|(_, _, rep)| rep.degraded_members > 0),
            "the plan should degrade someone"
        );
    }

    #[test]
    fn deadline_clean_plan_is_bitwise_identical_to_plain() {
        check_row("oksparse_ef: clean-deadline vs plain");
    }

    #[test]
    fn deadline_stragglers_miss_but_replicas_agree() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        // Tight budget + a heavily multiplied straggler node: its members'
        // contributions miss, the clean members' jitter stays inside the
        // 5% slack.
        let policy = DeadlinePolicy::from_link(5e-5, 4e-10, 8 * shard_k(d, n, rho), 1.05);
        let faults = DeadlineFaults::new(9)
            .with_jitter(1e-6)
            .straggle(4, 1e4)
            .straggle(5, 1e4)
            .straggle(6, 1e4)
            .straggle(7, 1e4);
        let results = run_on_group(m * n, move |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let dp = DeadlinePeer::new(peer, faults.clone(), policy);
            let ef_ref = Some(&mut ef);
            // Instance 0 is a warm-up the straggler plan may or may not
            // miss; the checked invocation is instance 1.
            let mut warm = vec_for(peer.rank(), d);
            let mut warm_ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let warm_ef = Some(&mut warm_ef);
            call(
                &dp,
                &mut warm,
                Inter::SplitMerge,
                m,
                n,
                rho,
                &mut c,
                warm_ef,
                None,
                &mut scratch,
            );
            let before = dp.report().missed;
            call(
                &dp,
                &mut x,
                Inter::SplitMerge,
                m,
                n,
                rho,
                &mut c,
                ef_ref,
                None,
                &mut scratch,
            );
            (x, dp.report().missed - before, ef.residual_norm())
        });
        for r in 1..m * n {
            assert_eq!(results[0].0, results[r].0, "rank {r} replica diverged");
        }
        let missed: u64 = results.iter().map(|(_, m, _)| *m).sum();
        assert!(missed > 0, "straggler node should miss the deadline");
        for (x, missed, rnorm) in &results {
            let _ = x;
            if *missed > 0 {
                assert!(*rnorm > 0.0, "a missing member keeps its mass");
            }
        }
    }

    #[test]
    fn quantized_replicas_agree_and_approximate_exact() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.2f64);
        let exact = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok(peer, &mut x, m, n, rho, &mut c, Some(&mut ef));
            x
        });
        let quantized = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut q = Qsgd::new(127, 77);
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let mut route = Route {
                inter: Inter::SplitMerge,
                codec: Some(&mut q),
                ..Route::new(m, n, rho)
            };
            let rep = hitopk_all_reduce(
                peer,
                &mut x,
                &mut route,
                None,
                &mut c,
                Some(&mut ef),
                &mut scratch,
                None,
            );
            (x, rep)
        });
        for r in 1..m * n {
            assert_eq!(quantized[0].0, quantized[r].0, "rank {r} differs");
        }
        // 8-bit levels keep the aggregate close to the exact-valued one.
        let norm = ops::l2_norm(&exact[0]).max(1e-6);
        let diff: f32 = exact[0]
            .iter()
            .zip(&quantized[0].0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(
            diff / norm < 0.15,
            "quantized aggregate drifted: rel err {}",
            diff / norm
        );
        // Quantized split must be cheaper than the FP32 split it replaces.
        let (_, qrep) = (&quantized[0].0, &quantized[0].1);
        let exact_rep = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok(peer, &mut x, m, n, rho, &mut c, Some(&mut ef))
        });
        assert!(qrep.inter_bytes_sent <= exact_rep[0].inter_bytes_sent);
    }

    /// The lossy absorb keeps the ledger exact: decoded selection plus
    /// residual reconstructs the compensated shard bitwise-exactly (f32
    /// subtraction of a value from itself is exact).
    #[test]
    fn quantized_residual_holds_quantization_error() {
        let d = 64;
        let mut ef = ErrorFeedback::new(d);
        let mut g = vec_for(0, d);
        ef.compensate(&mut g);
        let mut c = SortTopK;
        let exact = c.compress(&g, 8);
        let mut q = Qsgd::new(127, 3);
        let quant = q.quantize(&exact.values);
        let decoded = SparseGrad {
            values: quant.decode(),
            indices: exact.indices.clone(),
            dim: d,
        };
        ef.absorb_lossy(&g, &decoded);
        let mut recon = decoded.densify();
        ops::add_assign(&mut recon, ef.residual());
        for (a, b) in recon.iter().zip(&g) {
            assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0));
        }
    }

    #[test]
    fn reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            call(
                peer,
                &mut x,
                Inter::SplitMerge,
                m,
                n,
                rho,
                &mut c,
                None,
                None,
                &mut scratch,
            );
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                call(
                    peer,
                    &mut y,
                    Inter::SplitMerge,
                    m,
                    n,
                    rho,
                    &mut c,
                    None,
                    None,
                    &mut scratch,
                );
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(
                total, warm,
                "rank {r}: steady-state oksparse allocated communication buffers"
            );
        }
    }

    #[test]
    fn single_node_degenerates_gracefully() {
        let (m, n, d, rho) = (1usize, 4usize, 96usize, 0.2f64);
        let hitopk = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hi(peer, &mut x, m, n, rho, &mut c, None);
            x
        });
        let oksparse = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            ok(peer, &mut x, m, n, rho, &mut c, None);
            x
        });
        assert_eq!(hitopk, oksparse);
    }

    #[test]
    fn owner_lookup_covers_ranges() {
        let ranges = shards(10, 3); // [0,4) [4,7) [7,10)
        assert_eq!(owner_of(&ranges, 0), 0);
        assert_eq!(owner_of(&ranges, 3), 0);
        assert_eq!(owner_of(&ranges, 4), 1);
        assert_eq!(owner_of(&ranges, 6), 1);
        assert_eq!(owner_of(&ranges, 7), 2);
        assert_eq!(owner_of(&ranges, 9), 2);
    }

    /// EF twin scratch/traced equivalence, mirroring the hitopk suite.
    #[test]
    fn ef_traced_twin_is_bitwise_identical() {
        check_row("oksparse_ef: traced vs plain");
        check_row("oksparse_ef: scratch vs plain");
    }
}
