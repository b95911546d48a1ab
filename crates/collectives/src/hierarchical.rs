//! HiTopKComm — hierarchical top-k sparse aggregation (§3.2, Algorithm 2) —
//! as one four-step pipeline, and the flat sparse AllGather baseline
//! ("NaiveAG").
//!
//! HiTopKComm exploits the two-level cloud fabric: dense traffic stays on
//! the fast intra-node links, and only `ρ·d/n` sparsified elements per GPU
//! cross the slow inter-node links, in `n` concurrent streams:
//!
//! 1. intra-node ring ReduceScatter — GPU `j` of node `i` ends with the
//!    dense node-local sum of shard `j` (Eq. 4). [`Intra::Staged`] reduces
//!    in place; [`Intra::Fused`] threads one shard-sized buffer through the
//!    ring and hands it straight to the sparsifier (see [`crate::fusion`]);
//! 2. top-k selection on the shard with `k̃ = ρ·d/n` (Eq. 5), optionally
//!    wrapped in error feedback (compensate → select or miss → absorb);
//! 3. inter-node exchange among the `j`-th GPUs of all nodes, followed by
//!    index-wise accumulation (Eq. 6): [`Inter::AllGather`] broadcasts
//!    every selection (`O(m·k̃)`), [`Inter::SplitMerge`] is the O(k) sparse
//!    allreduce of Li & Hoefler (see [`crate::sparse_allreduce`]);
//! 4. intra-node AllGather reassembling the full vector.
//!
//! Every former variant is an argument: the transport ([`Link`] — a plain
//! peer, a retry-ladder `ResilientPeer`, or a `DeadlinePeer`), the
//! inter-node member order (identity by default), the step 1/3 routing and
//! an optional value codec ([`Route`]), error feedback and a trace
//! registry. Every combination performs the same float operations in the
//! same order as the plain schedule whenever no contribution misses, so
//! aggregates and residuals are bitwise identical across transports,
//! orders (identity), tracing, arenas, fusion and exchanges.
//!
//! Note the *semantic* difference from flat TopK-SGD: intra-node gradients
//! are aggregated densely (no information loss) before sparsification —
//! the paper credits MSTopK-SGD's small accuracy edge over TopK-SGD to
//! exactly this (§5.5.1).

use cloudtrain_compress::quantize::Quantizer;
use cloudtrain_compress::{Compressor, ErrorFeedback, SparseGrad};
use cloudtrain_obs::{self as obs, Registry};
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::shard_for;

use crate::fusion::ring_reduce_scatter_fused;
use crate::group::{Link, Peer};
use crate::ring::{
    all_gather_f32, all_gather_f32_scratch, all_gather_pairs_scratch, all_gather_u32,
    all_gather_u32_scratch, ring_all_gather_scratch, ring_reduce_scatter_scratch,
};
use crate::scratch::CommScratch;
use crate::sparse_allreduce::{quantized_pair_wire_bytes, split_merge};
use crate::torus::{grid_pos, inter_members, intra_node_members};

/// Per-invocation statistics of a hierarchical sparse AllReduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HiTopKReport {
    /// Elements selected per shard (`k̃ = ρ·d/n`, Eq. 5).
    pub k_per_shard: usize,
    /// Entries in this member's inter-node AllGather contribution: its
    /// selection under [`Inter::AllGather`], its merged (reduced) range
    /// list under [`Inter::SplitMerge`].
    pub merged_len: usize,
    /// Distinct nonzero coordinates in this GPU's aggregated shard
    /// (at most `m · k̃`, fewer when selections overlap).
    pub shard_nonzeros: usize,
    /// Bytes this GPU sent over the inter-node links.
    pub inter_bytes_sent: usize,
}

/// Step 1 of the pipeline: how the intra-node reduction feeds the
/// sparsifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intra {
    /// In-place ring ReduceScatter over `x`, then selection from the
    /// owned shard; an all-gather exchange ships values and indices as two
    /// ring pipelines.
    Staged,
    /// Fused compress–reduce: the reduction rides a shard-sized ring buffer
    /// that the sparsifier consumes directly (`x` stays read-only until the
    /// scatter); an all-gather exchange ships one framed pair pipeline.
    Fused,
}

/// Step 3 of the pipeline: the inter-node exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inter {
    /// HiTopKComm: every member all-gathers its whole selection —
    /// `8k̃(m-1)` bytes per member.
    AllGather,
    /// O(k) split-and-merge: each member sends every other member the part
    /// of its selection in that member's index range, reduces its own
    /// range, and the merged lists are all-gathered. The aggregate is
    /// bitwise the all-gather's (both accumulate in member order).
    ///
    /// ```
    /// use cloudtrain_collectives::group::run_on_group;
    /// use cloudtrain_collectives::hierarchical::{hitopk_all_reduce, Inter, Route};
    /// use cloudtrain_collectives::CommScratch;
    /// use cloudtrain_compress::MsTopK;
    ///
    /// // 2 nodes x 2 GPUs aggregate sparsified gradients at density 0.25.
    /// let results = run_on_group(4, |peer| {
    ///     let mut grad = vec![peer.rank() as f32 + 1.0; 64];
    ///     grad[peer.rank()] = 100.0;
    ///     let mut topk = MsTopK::new(30, peer.rank() as u64);
    ///     let mut route = Route { inter: Inter::SplitMerge, ..Route::new(2, 2, 0.25) };
    ///     let mut scratch = CommScratch::new();
    ///     hitopk_all_reduce(peer, &mut grad, &mut route, None, &mut topk, None, &mut scratch, None);
    ///     grad
    /// });
    /// assert!(results.iter().all(|r| r == &results[0]));
    /// ```
    SplitMerge,
}

/// The shape of one sparse AllReduce: the `m × n` grid, the density, the
/// step-1 and step-3 routing, and an optional value codec.
pub struct Route<'q> {
    /// Nodes.
    pub m: usize,
    /// GPUs per node.
    pub n: usize,
    /// Density `ρ` (`k̃ = ρ·d/n` per shard).
    pub rho: f64,
    /// Step 1 routing.
    pub intra: Intra,
    /// Step 3 routing.
    pub inter: Inter,
    /// Value codec for the [`Inter::SplitMerge`] split: the selection's
    /// values are quantized once (one shared scale) and travel as packed
    /// level codes.
    /// The simulation transmits the *decoded* values (decode is
    /// elementwise, so receivers decoding the codes reconstruct them
    /// bit-exactly) while the byte report charges the packed format; error
    /// feedback absorbs against the decoded selection, so the quantization
    /// error stays in the residual.
    pub codec: Option<&'q mut dyn Quantizer>,
}

impl Route<'_> {
    /// The paper's schedule: staged step 1, all-gather step 3, no codec.
    pub fn new(m: usize, n: usize, rho: f64) -> Self {
        Self {
            m,
            n,
            rho,
            intra: Intra::Staged,
            inter: Inter::AllGather,
            codec: None,
        }
    }
}

/// Number of elements each shard selects for density `rho` over a
/// `d`-element gradient split across `n` GPUs.
pub fn shard_k(d: usize, n: usize, rho: f64) -> usize {
    let shard = d.div_ceil(n);
    (((d as f64 * rho) / n as f64).round() as usize).clamp(1, shard.max(1))
}

/// Wire bytes a member pays to broadcast `selection` to the other
/// `group_len - 1` members of a sparse AllGather group.
///
/// Every all-gather exchange and the flat NaiveAG account their
/// `inter_bytes_sent` through this one expression, so identical traffic
/// always reports identical bytes — the conformance differential test pins
/// it.
pub fn group_wire_bytes(selection: &SparseGrad, group_len: usize) -> usize {
    selection.wire_bytes() * group_len.saturating_sub(1)
}

/// Wire bytes of one framed `(values, indices)` pair message carrying
/// `entries` coordinates: an FP32 value plus a 32-bit index each.
///
/// The point-to-point counterpart of [`group_wire_bytes`]:
/// `group_wire_bytes(sel, g) == pair_wire_bytes(sel.values.len()) * (g-1)`
/// whenever values and indices pair up. The split-merge exchange accounts
/// its split and merged-broadcast traffic through this, so its bytes stay
/// directly comparable with the all-gather's.
pub fn pair_wire_bytes(entries: usize) -> usize {
    8 * entries
}

/// Span and counter names of one exchange family (`hitopk/…` for the
/// all-gather, `oksparse/…` for split-merge).
struct Names {
    reduce_scatter: &'static str,
    compress: &'static str,
    fused: &'static str,
    inter: &'static str,
    all_gather: &'static str,
    invocations: &'static str,
    fused_invocations: &'static str,
    inter_bytes: &'static str,
    nonzeros: &'static str,
    merged_len: Option<&'static str>,
    k: &'static str,
}

const HITOPK: Names = Names {
    reduce_scatter: "hitopk/intra reduce-scatter",
    compress: "hitopk/top-k compression",
    fused: "hitopk/fused reduce-compress",
    inter: "hitopk/inter all-gather",
    all_gather: "hitopk/intra all-gather",
    invocations: "hitopk/invocations",
    fused_invocations: "hitopk/fused_invocations",
    inter_bytes: "hitopk/inter_bytes_sent",
    nonzeros: "hitopk/shard_nonzeros",
    merged_len: None,
    k: "hitopk/k_per_shard",
};

const OKSPARSE: Names = Names {
    reduce_scatter: "oksparse/intra reduce-scatter",
    compress: "oksparse/top-k compression",
    fused: "oksparse/fused reduce-compress",
    inter: "oksparse/inter split-merge",
    all_gather: "oksparse/intra all-gather",
    invocations: "oksparse/invocations",
    fused_invocations: "oksparse/fused_invocations",
    inter_bytes: "oksparse/inter_bytes_sent",
    nonzeros: "oksparse/shard_nonzeros",
    merged_len: Some("oksparse/merged_len"),
    k: "oksparse/k_per_shard",
};

/// Step 2: optional error-feedback compensation, then selection — or an
/// empty block when the link says this contribution missed its budget
/// (error feedback then keeps the whole compensated shard) — then the
/// optional codec, then absorption. Returns the selection and the codec's
/// level count.
#[allow(clippy::too_many_arguments)]
fn select<'q, L: Link + ?Sized, C: Compressor + ?Sized>(
    link: &L,
    instance: u64,
    buf: &mut [f32],
    k: usize,
    compressor: &mut C,
    mut ef: Option<&mut ErrorFeedback>,
    codec: Option<&mut (dyn Quantizer + 'q)>,
) -> (SparseGrad, Option<u8>) {
    if let Some(ef) = ef.as_deref_mut() {
        assert_eq!(
            ef.dim(),
            buf.len(),
            "hitopk_all_reduce: residual must match the shard"
        );
        ef.compensate(buf);
    }
    let mut selection = if link.contribution_missed(instance, pair_wire_bytes(k)) {
        SparseGrad::empty(buf.len())
    } else {
        compressor.compress(buf, k)
    };
    let levels = codec.map(|q| {
        let quantized = q.quantize(&selection.values);
        selection.values = quantized.decode();
        quantized.levels
    });
    if let Some(ef) = ef {
        if levels.is_some() {
            ef.absorb_lossy(buf, &selection);
        } else {
            ef.absorb(buf, &selection);
        }
    }
    (selection, levels)
}

/// The sparse AllReduce pipeline (Algorithm 2) over an `m × n` grid. On
/// return every rank's `x` holds `Σ_nodes TopK(node-local dense sum)` per
/// shard — identical on all ranks.
///
/// * `link` — the transport; a contribution the link reports missed ships
///   as an empty block (safe under error feedback, whose residual keeps the
///   mass).
/// * `route` — grid, density, step 1/3 routing and value codec.
/// * `node_order` — the order the inter-node groups visit the nodes (a
///   permutation of `0..m`, e.g. from [`crate::optimize_ring_order`]); the
///   natural order when `None`. All ranks must pass the same order.
/// * `ef` — error feedback at the sparsification point: GPU `j` of node `i`
///   owns the node-local dense sum of shard `j` after step 1, so its
///   residual has dimension `d/n` and tracks exactly what the sparsifier
///   discards.
/// * `reg` — per-stage spans and counters in *logical work units*
///   (elements touched: `d` for the dense intra-node steps, the shard
///   length for selection, `2·m·k̃` for the all-gather, split plus merged
///   entries for split-merge). Tracing never perturbs the aggregation.
///
/// The `compressor` performs step 2's selection; the paper uses
/// [`cloudtrain_compress::MsTopK`], and tests use the exact operator for a
/// deterministic reference.
///
/// # Examples
/// ```
/// use cloudtrain_collectives::group::run_on_group;
/// use cloudtrain_collectives::hierarchical::{hitopk_all_reduce, Route};
/// use cloudtrain_collectives::CommScratch;
/// use cloudtrain_compress::MsTopK;
///
/// // 2 nodes x 2 GPUs aggregate sparsified gradients at density 0.25.
/// let results = run_on_group(4, |peer| {
///     let mut grad = vec![peer.rank() as f32 + 1.0; 64];
///     grad[peer.rank()] = 100.0; // a large coordinate per worker
///     let mut topk = MsTopK::new(30, peer.rank() as u64);
///     let mut scratch = CommScratch::new();
///     let mut route = Route::new(2, 2, 0.25);
///     hitopk_all_reduce(peer, &mut grad, &mut route, None, &mut topk, None, &mut scratch, None);
///     grad
/// });
/// // Every rank holds the identical aggregated vector.
/// assert!(results.iter().all(|r| r == &results[0]));
/// ```
///
/// # Panics
/// Panics if the group size is not `m * n`, `node_order` is not a
/// permutation of `0..m`, a codec comes with [`Inter::AllGather`], or the
/// residual dimension does not match this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce<L: Link + ?Sized, C: Compressor + ?Sized>(
    link: &L,
    x: &mut [f32],
    route: &mut Route<'_>,
    node_order: Option<&[usize]>,
    compressor: &mut C,
    ef: Option<&mut ErrorFeedback>,
    scratch: &mut CommScratch,
    mut reg: Option<&mut Registry>,
) -> HiTopKReport {
    let (m, n) = (route.m, route.n);
    assert_eq!(link.size(), m * n, "hitopk_all_reduce: group is not m*n");
    assert!(
        route.codec.is_none() || route.inter == Inter::SplitMerge,
        "hitopk_all_reduce: a value codec needs the split-merge exchange"
    );
    let names = match route.inter {
        Inter::AllGather => &HITOPK,
        Inter::SplitMerge => &OKSPARSE,
    };
    let d = x.len();
    let instance = link.begin_instance();
    let pos = grid_pos(link.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_members(pos.gpu, m, n, node_order);
    let k = shard_k(d, n, route.rho).min(shard_for(d, n, pos.gpu).len());
    let codec = route.codec.as_deref_mut();

    // Steps 1–2: intra-node dense reduction (fast links), then selection
    // on the node-local dense sum of this GPU's shard.
    let (shard, selection, levels) = match route.intra {
        Intra::Staged => {
            let span = obs::span_begin(&mut reg, names.reduce_scatter);
            let shard = ring_reduce_scatter_scratch(link, x, &intra, scratch);
            obs::span_end(&mut reg, span, d as f64);
            let span = obs::span_begin(&mut reg, names.compress);
            let (selection, levels) =
                select(link, instance, shard.slice_mut(x), k, compressor, ef, codec);
            obs::span_end(&mut reg, span, shard.len() as f64);
            (shard, selection, levels)
        }
        Intra::Fused => {
            // x stays read-only; the sparsifier consumes the reduced shard
            // straight out of the ring buffer.
            let span = obs::span_begin(&mut reg, names.fused);
            let (shard, mut reduced) = ring_reduce_scatter_fused(link, x, &intra, scratch);
            let (selection, levels) =
                select(link, instance, &mut reduced, k, compressor, ef, codec);
            scratch.put_f32(reduced);
            obs::span_end(&mut reg, span, (d + shard.len()) as f64);
            (shard, selection, levels)
        }
    };
    debug_assert_eq!(shard, shard_for(d, n, pos.gpu));
    let q = inter.len();
    let wire = |entries: usize| match levels {
        Some(l) => quantized_pair_wire_bytes(entries, l),
        None => pair_wire_bytes(entries),
    };

    // Step 3: inter-node exchange (stream `gpu`), then index-wise
    // accumulation into the zeroed shard in member order. The gathered
    // blocks go back to the pool once consumed.
    let span = obs::span_begin(&mut reg, names.inter);
    let (blocks, merged_len, inter_bytes_sent, units) = match route.inter {
        Inter::AllGather => {
            let blocks = match route.intra {
                Intra::Staged => {
                    let values = all_gather_f32_scratch(link, &selection.values, &inter, scratch);
                    let indices = all_gather_u32_scratch(link, &selection.indices, &inter, scratch);
                    values.into_iter().zip(indices).collect()
                }
                // One framed pair pipeline: same bytes, half the messages.
                Intra::Fused => all_gather_pairs_scratch(
                    link,
                    &selection.values,
                    &selection.indices,
                    &inter,
                    scratch,
                ),
            };
            let bytes = group_wire_bytes(&selection, q);
            (blocks, selection.len(), bytes, 2 * m * k)
        }
        Inter::SplitMerge => {
            let split = split_merge(link, shard.len(), &selection, &inter, scratch);
            let blocks =
                all_gather_pairs_scratch(link, &split.values, &split.indices, &inter, scratch);
            let merged_len = split.values.len();
            let split_bytes: usize = split.sent_lens().map(wire).sum();
            let units = 2 * (split.sent_entries() + merged_len * q);
            scratch.put_f32(split.values);
            scratch.put_u32(split.indices);
            let bytes = split_bytes + pair_wire_bytes(merged_len) * (q - 1);
            (blocks, merged_len, bytes, units)
        }
    };
    let shard_buf = shard.slice_mut(x);
    ops::fill(shard_buf, 0.0);
    for (vals, idxs) in blocks {
        ops::scatter_add(shard_buf, &idxs, &vals);
        scratch.put_f32(vals);
        scratch.put_u32(idxs);
    }
    let shard_nonzeros = shard_buf.iter().filter(|v| **v != 0.0).count();
    obs::span_end(&mut reg, span, units as f64);

    // Step 4: intra-node AllGather reassembles the (sparse-aggregated)
    // full vector; it overwrites every non-own chunk of x, so stale local
    // values outside the shard never survive to the caller.
    let span = obs::span_begin(&mut reg, names.all_gather);
    ring_all_gather_scratch(link, x, &intra, scratch);
    obs::span_end(&mut reg, span, d as f64);

    if let Some(reg) = reg.as_mut() {
        reg.counter_add(names.invocations, 1);
        if route.intra == Intra::Fused {
            reg.counter_add(names.fused_invocations, 1);
        }
        reg.counter_add(names.inter_bytes, inter_bytes_sent as u64);
        reg.counter_add(names.nonzeros, shard_nonzeros as u64);
        if let Some(name) = names.merged_len {
            reg.counter_add(name, merged_len as u64);
        }
        reg.gauge_set(names.k, k as f64);
    }

    HiTopKReport {
        k_per_shard: k,
        merged_len,
        shard_nonzeros,
        inter_bytes_sent,
    }
}

/// NaiveAG (TopK-SGD's aggregation; Renggli et al. 2019): every rank
/// sparsifies its *own full* gradient to `k` elements and a flat AllGather
/// over all `P` ranks accumulates the selections. On return every rank's
/// `x` holds `Σ_p TopK(g_p, k)`.
///
/// Returns the bytes this rank sent.
pub fn sparse_all_reduce_naive<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    k: usize,
    compressor: &mut C,
) -> usize {
    let members: Vec<usize> = (0..peer.size()).collect();
    let selection = compressor.compress(x, k);
    let value_blocks = all_gather_f32(peer, &selection.values, &members);
    let index_blocks = all_gather_u32(peer, &selection.indices, &members);
    let sent = group_wire_bytes(&selection, members.len());

    ops::fill(x, 0.0);
    for (vals, idxs) in value_blocks.iter().zip(&index_blocks) {
        ops::scatter_add(x, idxs, vals);
    }
    sent
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::deadline::{DeadlineFaults, DeadlinePeer, DeadlinePolicy};
    use crate::group::run_on_group;
    use crate::resilience::{CommFaults, ResiliencePolicy, ResilientPeer};
    use cloudtrain_compress::exact::{topk_sort, SortTopK};
    use cloudtrain_compress::MsTopK;
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::partition::shards;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(4000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    /// The transport a grid point runs over.
    #[derive(Clone, Debug)]
    pub(crate) enum Via {
        /// A plain peer.
        Plain,
        /// A retry-ladder peer under this fault plan.
        Resilient(CommFaults),
        /// A deadline peer under this lateness plan and a budget.
        Deadline(DeadlineFaults, DeadlinePolicy),
    }

    /// One point of the pipeline's parameter grid.
    #[derive(Clone, Debug)]
    pub(crate) struct Variant {
        pub intra: Intra,
        pub inter: Inter,
        pub ef: bool,
        pub via: Via,
        /// Pass the identity node order explicitly instead of `None`.
        pub identity_order: bool,
        /// Record into a registry.
        pub traced: bool,
        /// One arena across rounds instead of a fresh one per call.
        pub shared_scratch: bool,
    }

    impl Variant {
        /// Staged all-gather over a plain peer, untraced, fresh arenas.
        pub(crate) fn plain(ef: bool) -> Self {
            Self {
                intra: Intra::Staged,
                inter: Inter::AllGather,
                ef,
                via: Via::Plain,
                identity_order: false,
                traced: false,
                shared_scratch: false,
            }
        }
    }

    /// What one rank saw: per-round outputs and reports, final residual,
    /// trace spans, and contributions the link missed.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Outcome {
        pub outs: Vec<Vec<f32>>,
        pub reports: Vec<HiTopKReport>,
        pub residual: Vec<f32>,
        pub spans: Vec<String>,
        pub missed: u64,
    }

    /// Runs `rounds` invocations of `v` on an `m × n` group, rank `r`
    /// aggregating `input(round, r)` with the compressor `comp(r)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_variant<C: Compressor>(
        v: &Variant,
        m: usize,
        n: usize,
        d: usize,
        rho: f64,
        rounds: usize,
        input: impl Fn(usize, usize) -> Vec<f32> + Sync,
        comp: impl Fn(usize) -> C + Sync,
    ) -> Vec<Outcome> {
        run_on_group(m * n, |peer| {
            let resilient = match &v.via {
                Via::Resilient(f) => Some(ResilientPeer::new(
                    peer,
                    f.clone(),
                    ResiliencePolicy::default(),
                )),
                _ => None,
            };
            let deadline = match &v.via {
                Via::Deadline(f, p) => Some(DeadlinePeer::new(peer, f.clone(), *p)),
                _ => None,
            };
            let link: &dyn Link = match (&resilient, &deadline) {
                (Some(rp), _) => rp,
                (_, Some(dp)) => dp,
                _ => peer,
            };
            let identity: Vec<usize> = (0..m).collect();
            let order = v.identity_order.then_some(identity.as_slice());
            let mut ef = ErrorFeedback::new(shard_for(d, n, peer.rank() % n).len());
            let mut c = comp(peer.rank());
            let mut shared = CommScratch::new();
            let mut reg = Registry::new();
            let mut outcome = Outcome {
                outs: Vec::new(),
                reports: Vec::new(),
                residual: Vec::new(),
                spans: Vec::new(),
                missed: 0,
            };
            for round in 0..rounds {
                let mut x = input(round, peer.rank());
                let mut fresh = CommScratch::new();
                let scratch = if v.shared_scratch {
                    &mut shared
                } else {
                    &mut fresh
                };
                let mut route = Route {
                    intra: v.intra,
                    inter: v.inter,
                    ..Route::new(m, n, rho)
                };
                let rep = hitopk_all_reduce(
                    link,
                    &mut x,
                    &mut route,
                    order,
                    &mut c,
                    v.ef.then_some(&mut ef),
                    scratch,
                    v.traced.then_some(&mut reg),
                );
                outcome.outs.push(x);
                outcome.reports.push(rep);
            }
            outcome.residual = ef.residual().to_vec();
            outcome.spans = reg.spans().iter().map(|s| s.name.clone()).collect();
            outcome.missed = resilient
                .map(|rp| rp.report().degraded_members)
                .unwrap_or(0)
                + deadline.map(|dp| dp.report().missed).unwrap_or(0);
            outcome
        })
    }

    /// Aggregates, reports and residuals of two grid points agree bit for
    /// bit on every rank.
    pub(crate) fn assert_bitwise(name: &str, a: &[Outcome], b: &[Outcome]) {
        for (r, (x, y)) in a.iter().zip(b).enumerate() {
            let bits = |o: &Outcome| -> Vec<Vec<u32>> {
                o.outs
                    .iter()
                    .chain(std::iter::once(&o.residual))
                    .map(|v| v.iter().map(|f| f.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(x),
                bits(y),
                "{name}: rank {r} aggregates/residual differ"
            );
            if name.contains("split-merge") {
                // Only the wire schedule differs: same budget, same
                // aggregate support.
                let key = |o: &Outcome| -> Vec<(usize, usize)> {
                    o.reports
                        .iter()
                        .map(|p| (p.k_per_shard, p.shard_nonzeros))
                        .collect()
                };
                assert_eq!(key(x), key(y), "{name}: rank {r} reports differ");
            } else {
                assert_eq!(x.reports, y.reports, "{name}: rank {r} reports differ");
            }
            assert_eq!((x.missed, y.missed), (0, 0), "{name}: rank {r} missed");
        }
    }

    /// The grid rows — one per former pair of suffix twins — each a
    /// parameter change that must not move a bit.
    pub(crate) fn grid_row(row: &str) -> (Variant, Variant) {
        let (family, pair) = row.split_once(": ").expect("row is `family: pair`");
        let (inter, ef) = match family {
            "hitopk" => (Inter::AllGather, false),
            "hitopk_ef" => (Inter::AllGather, true),
            "oksparse" => (Inter::SplitMerge, false),
            "oksparse_ef" => (Inter::SplitMerge, true),
            other => panic!("unknown family {other}"),
        };
        let base = Variant {
            inter,
            ..Variant::plain(ef)
        };
        let twin = match pair {
            "scratch vs plain" => Variant {
                shared_scratch: true,
                ..base.clone()
            },
            "traced vs plain" => Variant {
                traced: true,
                ..base.clone()
            },
            "fused vs staged" => Variant {
                intra: Intra::Fused,
                ..base.clone()
            },
            "clean-resilient vs plain" => Variant {
                via: Via::Resilient(CommFaults::new(7)),
                ..base.clone()
            },
            "clean-deadline vs plain" => Variant {
                via: Via::Deadline(
                    DeadlineFaults::new(7),
                    DeadlinePolicy::from_link(5e-5, 4e-10, 1 << 20, 1.5),
                ),
                ..base.clone()
            },
            "identity-order vs plain" => Variant {
                identity_order: true,
                ..base.clone()
            },
            "split-merge vs all-gather" => Variant {
                inter: Inter::SplitMerge,
                ..base.clone()
            },
            other => panic!("unknown pair {other}"),
        };
        (base, twin)
    }

    /// Runs one grid row on a 3 × 2 group over three EF rounds (so the
    /// residual carry-over is compared too) with an MSTopK compressor.
    pub(crate) fn check_row(row: &str) {
        let (base, twin) = grid_row(row);
        let (m, n, d, rho) = (3usize, 2usize, 252usize, 0.1f64);
        let input = |round: usize, rank: usize| vec_for(100 * round + rank, d);
        let comp = |rank: usize| MsTopK::new(5, rank as u64);
        let a = run_variant(&base, m, n, d, rho, 3, input, comp);
        let b = run_variant(&twin, m, n, d, rho, 3, input, comp);
        assert_bitwise(row, &a, &b);
    }

    /// The paper's schedule with error feedback over any link.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn hitopk_ef<L: Link + ?Sized, C: Compressor + ?Sized>(
        link: &L,
        x: &mut [f32],
        m: usize,
        n: usize,
        rho: f64,
        c: &mut C,
        ef: &mut ErrorFeedback,
        scratch: &mut CommScratch,
    ) -> HiTopKReport {
        let mut route = Route::new(m, n, rho);
        hitopk_all_reduce(link, x, &mut route, None, c, Some(ef), scratch, None)
    }

    /// The paper's schedule with a fresh arena.
    fn hitopk<C: Compressor + ?Sized>(
        peer: &Peer,
        x: &mut [f32],
        m: usize,
        n: usize,
        rho: f64,
        c: &mut C,
        ef: Option<&mut ErrorFeedback>,
    ) -> HiTopKReport {
        let mut route = Route::new(m, n, rho);
        hitopk_all_reduce(
            peer,
            x,
            &mut route,
            None,
            c,
            ef,
            &mut CommScratch::new(),
            None,
        )
    }

    /// Sequential reference for Algorithm 2 with a deterministic (exact)
    /// selector.
    fn hitopk_reference(m: usize, n: usize, d: usize, rho: f64) -> Vec<f32> {
        let k = shard_k(d, n, rho);
        // Dense per-node sums.
        let node_sums: Vec<Vec<f32>> = (0..m)
            .map(|i| {
                let mut acc = vec![0.0; d];
                for j in 0..n {
                    ops::add_assign(&mut acc, &vec_for(i * n + j, d));
                }
                acc
            })
            .collect();
        // Per shard: sum of exact-top-k selections of each node's shard.
        let mut out = vec![0.0; d];
        for (j, sh) in shards(d, n).iter().enumerate() {
            let _ = j;
            let buf = sh.slice_mut(&mut out);
            for sums in &node_sums {
                let sel = topk_sort(sh.slice(sums), k.min(sh.len()));
                ops::scatter_add(buf, &sel.indices, &sel.values);
            }
        }
        out
    }

    #[test]
    fn matches_sequential_reference_with_exact_selector() {
        for (m, n, d, rho) in [
            (2usize, 4usize, 64usize, 0.1f64),
            (4, 2, 100, 0.05),
            (2, 2, 31, 0.2),
        ] {
            let expect = hitopk_reference(m, n, d, rho);
            let results = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = SortTopK;
                hitopk(peer, &mut x, m, n, rho, &mut c, None);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert!(
                    ops::approx_eq(x, &expect, 1e-4),
                    "m={m} n={n} rank {r} diverged from reference"
                );
            }
        }
    }

    #[test]
    fn density_one_equals_dense_all_reduce() {
        let (m, n, d) = (2, 4, 48);
        let mut expect = vec![0.0; d];
        for r in 0..m * n {
            ops::add_assign(&mut expect, &vec_for(r, d));
        }
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk(peer, &mut x, m, n, 1.0, &mut c, None);
            x
        });
        for x in &results {
            assert!(ops::approx_eq(x, &expect, 1e-4));
        }
    }

    #[test]
    fn all_ranks_agree_bitwise_with_mstopk() {
        let (m, n, d) = (4, 2, 1000);
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            // Seed per *shard owner group* must match: workers with the same
            // gpu index run the same selection on their own node's data, so
            // any per-rank seed works for agreement — selections are shared
            // via AllGather, never recomputed.
            let mut c = MsTopK::new(30, peer.rank() as u64);
            hitopk(peer, &mut x, m, n, 0.01, &mut c, None);
            x
        });
        for r in 1..m * n {
            assert_eq!(results[0], results[r], "rank {r} differs");
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let (m, n, d, rho) = (2, 4, 800, 0.05);
        let reports = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk(peer, &mut x, m, n, rho, &mut c, None)
        });
        let k = shard_k(d, n, rho);
        for rep in &reports {
            assert_eq!(rep.k_per_shard, k);
            assert!(rep.shard_nonzeros <= m * k);
            assert!(rep.shard_nonzeros >= k);
            // 2 AllGathers × (m-1) forwards × k elements × 4 bytes.
            assert_eq!(rep.inter_bytes_sent, 8 * k * (m - 1));
        }
    }

    #[test]
    fn naive_ag_matches_sum_of_selections() {
        let (p, d, k) = (4usize, 60usize, 6usize);
        let mut expect = vec![0.0; d];
        for r in 0..p {
            let sel = topk_sort(&vec_for(r, d), k);
            sel.add_into(&mut expect);
        }
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            let sent = sparse_all_reduce_naive(peer, &mut x, k, &mut c);
            (x, sent)
        });
        for (x, sent) in &results {
            assert!(ops::approx_eq(x, &expect, 1e-4));
            assert_eq!(*sent, 8 * k * (p - 1));
        }
    }

    #[test]
    fn ef_variant_with_full_density_matches_plain() {
        // With rho = 1 nothing is discarded, so residuals stay zero and the
        // EF variant must agree with the plain one.
        let (m, n, d) = (2, 2, 32);
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            let mut ef =
                cloudtrain_compress::ErrorFeedback::new(shards(d, n)[peer.rank() % n].len());
            let rep = hitopk(peer, &mut x, m, n, 1.0, &mut c, Some(&mut ef));
            (x, ef.residual_norm(), rep)
        });
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk(peer, &mut x, m, n, 1.0, &mut c, None);
            x
        });
        for ((x, rnorm, _), px) in results.iter().zip(&plain) {
            assert_eq!(x, px);
            assert_eq!(*rnorm, 0.0);
        }
    }

    #[test]
    fn ef_variant_accumulates_discarded_mass() {
        // At low density the residual must pick up the unsent gradient and
        // re-inject it next round (the shard owner's residual norm is
        // nonzero after round 1 and influences round 2's selection count).
        let (m, n, d) = (2, 2, 64);
        let results = run_on_group(m * n, |peer| {
            let mut c = SortTopK;
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = cloudtrain_compress::ErrorFeedback::new(shard_len);
            let mut x = vec_for(peer.rank(), d);
            hitopk(peer, &mut x, m, n, 0.1, &mut c, Some(&mut ef));
            let after_round1 = ef.residual_norm();
            let mut x2 = vec_for(100 + peer.rank(), d);
            hitopk(peer, &mut x2, m, n, 0.1, &mut c, Some(&mut ef));
            after_round1
        });
        for r in &results {
            assert!(*r > 0.0, "residual should be nonzero at rho=0.1");
        }
    }

    #[test]
    fn scratch_variant_is_bitwise_identical_to_plain() {
        check_row("hitopk: scratch vs plain");
    }

    #[test]
    fn ef_scratch_variant_is_bitwise_identical_to_plain() {
        check_row("hitopk_ef: scratch vs plain");
    }

    #[test]
    fn traced_variant_is_bitwise_identical_and_records_stages() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut route = Route::new(m, n, rho);
            let rep = hitopk_all_reduce(
                peer,
                &mut x,
                &mut route,
                None,
                &mut c,
                None,
                &mut scratch,
                None,
            );
            (x, rep)
        });
        let traced = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut route = Route::new(m, n, rho);
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
            scratch.publish_obs(&mut reg);
            ((x, rep), reg)
        });
        let k = shard_k(d, n, rho);
        for ((p, (t, reg)), peer_rank) in plain.iter().zip(&traced).zip(0..) {
            assert_eq!(p, t, "rank {peer_rank}: tracing perturbed the result");
            // Four stages, charged in logical work units, zero-gap.
            assert_eq!(reg.spans().len(), 4);
            assert_eq!(reg.span_total("hitopk/intra reduce-scatter"), d as f64);
            assert_eq!(reg.span_total("hitopk/top-k compression") as usize, d / n);
            assert_eq!(
                reg.span_total("hitopk/inter all-gather"),
                (2 * m * k) as f64
            );
            assert_eq!(reg.span_total("hitopk/intra all-gather"), d as f64);
            assert_eq!(reg.counter("hitopk/invocations"), 1);
            assert_eq!(
                reg.counter("hitopk/inter_bytes_sent") as usize,
                t.1.inter_bytes_sent
            );
            assert_eq!(reg.gauge("hitopk/k_per_shard"), Some(k as f64));
            assert!(reg.counter("scratch/f32_takes") > 0);
        }
    }

    #[test]
    fn ef_traced_variant_is_bitwise_identical_to_scratch() {
        check_row("hitopk_ef: traced vs plain");
    }

    #[test]
    fn hitopk_reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            let mut route = Route::new(m, n, rho);
            hitopk_all_reduce(
                peer,
                &mut x,
                &mut route,
                None,
                &mut c,
                None,
                &mut scratch,
                None,
            );
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_all_reduce(
                    peer,
                    &mut y,
                    &mut route,
                    None,
                    &mut c,
                    None,
                    &mut scratch,
                    None,
                );
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(
                total, warm,
                "rank {r}: steady-state hitopk allocated communication buffers"
            );
        }
    }

    #[test]
    fn shard_k_formula() {
        // d=1000, n=8, rho=0.01 -> 1000*0.01/8 = 1.25 -> 1
        assert_eq!(shard_k(1000, 8, 0.01), 1);
        // d=25_000_000, n=8, rho=0.01 -> 31250
        assert_eq!(shard_k(25_000_000, 8, 0.01), 31_250);
        // clamps to at least 1 and at most the shard size
        assert_eq!(shard_k(100, 8, 1e-9), 1);
        assert_eq!(shard_k(16, 8, 1.0), 2);
    }
}
