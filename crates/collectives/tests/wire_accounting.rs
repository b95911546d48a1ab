//! Differential wire-byte accounting across the HiTopKComm parameter grid.
//!
//! Every parameter combination of the all-gather pipeline — staged, fused,
//! traced, identity-ordered, over a clean retry-ladder link, over a clean
//! deadline link — moves exactly the same inter-node traffic, and all of
//! them charge it through one shared helper
//! (`group_wire_bytes(selection, g) == pair_wire_bytes(k) * (g - 1)`), so
//! a divergence here means a combination grew its own byte math again.

use cloudtrain_collectives::group::run_on_group;
use cloudtrain_collectives::hierarchical::{
    hitopk_all_reduce, pair_wire_bytes, HiTopKReport, Intra, Route,
};
use cloudtrain_collectives::{
    CommFaults, CommScratch, DeadlineFaults, DeadlinePeer, DeadlinePolicy, Link, ResiliencePolicy,
    ResilientPeer,
};
use cloudtrain_compress::exact::SortTopK;
use cloudtrain_compress::ErrorFeedback;
use cloudtrain_obs::Registry;
use cloudtrain_tensor::{init, partition};

const M: usize = 3;
const N: usize = 2;
const D: usize = 252;
const RHO: f64 = 0.1;

fn vec_for(rank: usize, d: usize) -> Vec<f32> {
    let mut rng = init::rng_from_seed(26_000 + rank as u64);
    init::gradient_like_tensor(d, &mut rng).into_vec()
}

fn shard_len(rank: usize) -> usize {
    partition::shards(D, N)[rank % N].len()
}

/// The transport a row runs over.
#[derive(Clone, Copy)]
enum Via {
    Plain,
    CleanResilient,
    CleanDeadline,
}

/// One row of the grid: the transport, step-1 routing, node order and
/// tracing of an EF round on the standard payloads.
struct Row {
    name: &'static str,
    via: Via,
    intra: Intra,
    identity_order: bool,
    traced: bool,
}

const ROWS: &[Row] = &[
    Row {
        name: "staged",
        via: Via::Plain,
        intra: Intra::Staged,
        identity_order: false,
        traced: false,
    },
    Row {
        name: "fused",
        via: Via::Plain,
        intra: Intra::Fused,
        identity_order: false,
        traced: false,
    },
    Row {
        name: "traced",
        via: Via::Plain,
        intra: Intra::Staged,
        identity_order: false,
        traced: true,
    },
    Row {
        name: "identity order",
        via: Via::Plain,
        intra: Intra::Staged,
        identity_order: true,
        traced: false,
    },
    Row {
        name: "clean resilient",
        via: Via::CleanResilient,
        intra: Intra::Staged,
        identity_order: false,
        traced: false,
    },
    Row {
        name: "clean deadline",
        via: Via::CleanDeadline,
        intra: Intra::Staged,
        identity_order: false,
        traced: false,
    },
];

/// Runs one EF round of `row` on the standard payloads and returns each
/// rank's report.
fn reports_of(row: &Row) -> Vec<HiTopKReport> {
    run_on_group(M * N, move |peer| {
        let resilient = ResilientPeer::new(peer, CommFaults::new(7), ResiliencePolicy::default());
        let policy = DeadlinePolicy::from_link(5e-5, 4e-10, 1 << 20, 1.5);
        let deadline = DeadlinePeer::new(peer, DeadlineFaults::new(7), policy);
        let link: &dyn Link = match row.via {
            Via::Plain => peer,
            Via::CleanResilient => &resilient,
            Via::CleanDeadline => &deadline,
        };
        let mut x = vec_for(peer.rank(), D);
        let mut ef = ErrorFeedback::new(shard_len(peer.rank()));
        let mut scratch = CommScratch::new();
        let mut reg = Registry::new();
        let identity: Vec<usize> = (0..M).collect();
        let mut route = Route {
            intra: row.intra,
            ..Route::new(M, N, RHO)
        };
        hitopk_all_reduce(
            link,
            &mut x,
            &mut route,
            row.identity_order.then_some(identity.as_slice()),
            &mut SortTopK,
            Some(&mut ef),
            &mut scratch,
            row.traced.then_some(&mut reg),
        )
    })
}

#[test]
fn all_hitopk_variants_report_identical_wire_bytes_for_identical_traffic() {
    let staged = reports_of(&ROWS[0]);
    for row in &ROWS[1..] {
        assert_eq!(
            reports_of(row),
            staged,
            "{} row disagrees with the staged report",
            row.name
        );
    }

    // The shared helper is the single source of the byte math: every rank
    // selects exactly k̃ entries under error feedback, and the inter phase
    // gathers them across the m-member node group.
    for rep in &staged {
        assert_eq!(
            rep.inter_bytes_sent,
            pair_wire_bytes(rep.k_per_shard) * (M - 1),
            "staged report bytes disagree with pair_wire_bytes * (m - 1)"
        );
    }
}
