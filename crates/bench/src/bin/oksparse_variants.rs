//! Differential gates for the O(k) split-merge exchange under three
//! parameters of the HiTopKComm pipeline: a node order, a deadline link,
//! and a value codec.
//!
//! Each parameter ships with an equivalence contract against the plain EF
//! pipeline, and this harness checks them end-to-end on a simulated
//! `m * n` group:
//!
//! * `ef_reordered`: the identity node order is bitwise identical to the
//!   plain EF pipeline (any other order may permute float reduction
//!   order, never the selected set);
//! * `ef_deadline`: a `DeadlinePeer` under a clean plan (generous budget,
//!   no jitter) is bitwise identical to the plain EF pipeline and misses
//!   nothing;
//! * `ef_quantized`: a QSGD codec keeps all replicas bitwise identical, is
//!   deterministic across two runs, and never charges more inter-node
//!   bytes than the FP32 split it replaces.

use cloudtrain::collectives::deadline::{DeadlineFaults, DeadlinePeer, DeadlinePolicy};
use cloudtrain::collectives::hierarchical::{hitopk_all_reduce, HiTopKReport, Inter, Route};
use cloudtrain::collectives::{CommScratch, Link};
use cloudtrain::compress::exact::SortTopK;
use cloudtrain::compress::quantize::Qsgd;
use cloudtrain::compress::quantize::Quantizer;
use cloudtrain::compress::ErrorFeedback;
use cloudtrain::prelude::run_on_group;
use cloudtrain::tensor::partition::shard_for;
use cloudtrain::tensor::{init, ops};
use cloudtrain_bench::{emit_json, header};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: &'static str,
    gate: &'static str,
    m: usize,
    n: usize,
    d: usize,
    passed: bool,
}

fn vec_for(rank: usize, d: usize) -> Vec<f32> {
    let mut rng = init::rng_from_seed(14_000 + rank as u64);
    init::gradient_like_tensor(d, &mut rng).into_vec()
}

fn shard_len(d: usize, n: usize, rank: usize) -> usize {
    shard_for(d, n, rank % n).len()
}

/// One EF round of the split-merge pipeline over `link`, optionally with a
/// node order and a value codec.
#[allow(clippy::too_many_arguments)]
fn split_merge_ef(
    link: &dyn Link,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    ef: &mut ErrorFeedback,
    order: Option<&[usize]>,
    codec: Option<&mut dyn Quantizer>,
) -> HiTopKReport {
    let mut route = Route {
        inter: Inter::SplitMerge,
        codec,
        ..Route::new(m, n, rho)
    };
    let scratch = &mut CommScratch::new();
    hitopk_all_reduce(
        link,
        x,
        &mut route,
        order,
        &mut SortTopK,
        Some(ef),
        scratch,
        None,
    )
}

fn plain_ef(m: usize, n: usize, d: usize, rho: f64) -> Vec<(Vec<f32>, Vec<f32>)> {
    run_on_group(m * n, move |peer| {
        let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
        let mut x = vec_for(peer.rank(), d);
        split_merge_ef(peer, &mut x, m, n, rho, &mut ef, None, None);
        (x, ef.residual().to_vec())
    })
}

fn main() {
    header("O(k) sparse allreduce variant gates (reordered / deadline / quantized)");
    let (m, n, d, rho) = (3usize, 2usize, 480usize, 0.1f64);
    let mut rows = Vec::new();

    let baseline = plain_ef(m, n, d, rho);

    // Gate 1: identity-order reordered twin is the plain EF twin, bitwise.
    let identity: Vec<usize> = (0..m).collect();
    let reordered = run_on_group(m * n, move |peer| {
        let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
        let mut x = vec_for(peer.rank(), d);
        split_merge_ef(peer, &mut x, m, n, rho, &mut ef, Some(&identity), None);
        (x, ef.residual().to_vec())
    });
    let ok = reordered == baseline;
    println!("  reordered identity-order == plain ef (bitwise): {ok}");
    assert!(
        ok,
        "identity-order reordered diverged from the plain EF twin"
    );
    rows.push(Row {
        variant: "ef_reordered",
        gate: "identity_order_bitwise",
        m,
        n,
        d,
        passed: ok,
    });

    // Gate 2: clean-plan deadline twin is the plain EF twin, bitwise, with
    // zero misses.
    let policy = DeadlinePolicy::from_link(5e-5, 4e-10, 8 * d, 1e6);
    let faults = DeadlineFaults::new(3);
    let deadline = run_on_group(m * n, move |peer| {
        let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
        let mut x = vec_for(peer.rank(), d);
        let dp = DeadlinePeer::new(peer, faults.clone(), policy);
        split_merge_ef(&dp, &mut x, m, n, rho, &mut ef, None, None);
        assert_eq!(dp.report().missed, 0, "clean plan must not miss");
        (x, ef.residual().to_vec())
    });
    let ok = deadline == baseline;
    println!("  deadline clean-plan  == plain ef (bitwise): {ok}");
    assert!(ok, "clean-plan deadline diverged from the plain EF twin");
    rows.push(Row {
        variant: "ef_deadline",
        gate: "clean_plan_bitwise",
        m,
        n,
        d,
        passed: ok,
    });

    // Gate 3: quantized twin — replica agreement, two-run determinism, and
    // a wire bill no larger than the FP32 split it replaces.
    let run_quantized = || {
        run_on_group(m * n, move |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut q = Qsgd::new(127, 77);
            let mut x = vec_for(peer.rank(), d);
            let rep = split_merge_ef(peer, &mut x, m, n, rho, &mut ef, None, Some(&mut q));
            (x, rep.inter_bytes_sent)
        })
    };
    let first = run_quantized();
    let second = run_quantized();
    let replicas_agree = (1..m * n).all(|r| first[0].0 == first[r].0);
    let deterministic = first == second;
    println!("  quantized replicas bitwise identical: {replicas_agree}");
    println!("  quantized two-run determinism:        {deterministic}");
    assert!(replicas_agree, "quantized replicas diverged");
    assert!(
        deterministic,
        "quantized twin is not run-to-run deterministic"
    );
    let exact_rep = run_on_group(m * n, move |peer| {
        let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
        let mut x = vec_for(peer.rank(), d);
        split_merge_ef(peer, &mut x, m, n, rho, &mut ef, None, None)
    });
    let cheaper = first[0].1 <= exact_rep[0].inter_bytes_sent;
    println!(
        "  quantized wire bytes {} <= fp32 split {}: {cheaper}",
        first[0].1, exact_rep[0].inter_bytes_sent
    );
    assert!(cheaper, "quantized wire format costs more than FP32");
    // The lossy wire defers mass, it does not lose it: the aggregate stays
    // close to the exact-valued one.
    let norm = ops::l2_norm(&baseline[0].0).max(1e-6);
    let diff: f32 = baseline[0]
        .0
        .iter()
        .zip(&first[0].0)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    println!("  quantized rel error vs exact: {:.4}", diff / norm);
    assert!(
        diff / norm < 0.15,
        "quantized aggregate drifted off the exact one"
    );
    rows.push(Row {
        variant: "ef_quantized",
        gate: "replicas_determinism_wire",
        m,
        n,
        d,
        passed: replicas_agree && deterministic && cheaper,
    });

    emit_json("oksparse_variants", &rows);
    println!("\nall variant gates hold: the node-order/deadline-link/codec parameters keep\ntheir equivalence contracts against the plain EF pipeline.");
}
