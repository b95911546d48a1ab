//! In-process collective communication.
//!
//! This crate is the *correctness plane* of the reproduction: it implements
//! the communication algorithms the paper runs over NCCL — moving real bytes
//! between worker threads — so that every aggregation scheme can be tested
//! for bit-exactness against a sequential reference. (Its *performance*
//! twin, `cloudtrain-simnet`, charges simulated α–β time for the same
//! schedules.)
//!
//! Every collective is a free function over a [`Link`] — the transport
//! trait. Three links ship: a plain [`Peer`] (never misses), a
//! [`ResilientPeer`] charging a seeded timeout/retry ladder to every hop
//! and degrading sparse contributions per the fault plan, and a
//! [`DeadlinePeer`] checking sparse contributions against a lateness
//! budget. Loss tolerance lives in the transport, not in the algorithms:
//! each algorithm below is written once, and every former variant (traced,
//! scratch-backed, resilient, deadline-bounded, reordered, fused,
//! quantized, O(k)) is a parameter combination of it.
//!
//! Modules:
//!
//! * [`group`] — the [`Link`] trait, mesh-connected [`Peer`]s and the
//!   [`group::run_on_group`] worker harness.
//! * [`ring`] — ring ReduceScatter / AllGather / AllReduce and the
//!   variable-payload (f32, u32, framed pair) AllGathers over an arbitrary
//!   member subset (sub-communicators are just rank lists, which is how the
//!   hierarchical algorithms address "GPUs of one node" and "the j-th GPU
//!   of every node").
//! * [`tree`] — double-binary-tree AllReduce ("TreeAR", the NCCL baseline of
//!   Fig. 7).
//! * [`torus`] — 2D-Torus AllReduce ("2DTAR", Mikami et al. 2018): intra-row
//!   ReduceScatter, inter-row AllReduce on the shard, intra-row AllGather,
//!   with an optional inter-node ring order.
//! * [`hierarchical`] — **HiTopKComm** (§3.2, Algorithm 2) as one
//!   four-step pipeline: intra ReduceScatter (staged or fused), optional
//!   error feedback around the selection, inter exchange (AllGather, or the
//!   O(k) split-and-merge with an optional value codec), intra AllGather —
//!   plus the flat `NaiveAG` sparse baseline.
//! * [`fusion`] — the fused ReduceScatter behind the pipeline's fused
//!   step 1 (the reduction rides one shard-sized ring buffer that the
//!   sparsifier consumes directly; bitwise identical to the staged step).
//! * [`sparse_allreduce`] — the **O(k) sparse allreduce** exchange (Li &
//!   Hoefler, PPoPP 2022) behind the pipeline's split-merge step 3:
//!   balanced index partitioning plus split-and-merge reduction replaces
//!   the `O(m·k̃)` inter-node AllGather with an `O(k̃)` schedule, bitwise
//!   identical in value.
//! * [`gtopk`] — gTop-k recursive-doubling sparse AllReduce (Shi et al.
//!   2019, cited in §6), with optional error feedback and rank order.
//! * [`quantized`] — AllReduce of QSGD/TernGrad/sign-quantized gradients.
//! * [`rhd`] — recursive halving-doubling AllReduce (the classic
//!   latency-optimal MPI algorithm).
//! * [`primitives`] — rooted Broadcast/Reduce (parameter seeding, metric
//!   collection).
//! * [`scratch`] — the [`CommScratch`] buffer arena: pooled send copies
//!   instead of per-hop allocations, so steady-state training iterations
//!   are allocation-free on the communication path.
//! * [`resilience`] — fault decisions ([`resilience::CommFaults`]) and the
//!   [`ResilientPeer`] link: timeout/retry/backoff accounting for every
//!   hop and graceful degradation (empty sparse blocks, safe under error
//!   feedback) of sparse contributions.
//! * [`deadline`] — deadline budgets from probed α/β: the [`DeadlinePeer`]
//!   link (late sparse contributions degrade to empty blocks under error
//!   feedback) and the dense deadline ring, whose late ReduceScatter
//!   chunks are discarded (partial aggregates).
//! * [`reorder`] — topology-probed rank reordering: a pairwise α–β cost
//!   model and a seeded deterministic ring-order optimizer producing the
//!   node orders the hierarchical collectives take.
//!
//! All collectives run on a [`group::Group`] of mesh-connected peers created
//! with [`group::Group::connect`]; each worker thread owns one
//! [`group::Peer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadline;
pub mod fusion;
pub mod group;
pub mod gtopk;
pub mod hierarchical;
pub mod primitives;
pub mod quantized;
pub mod reorder;
pub mod resilience;
pub mod rhd;
pub mod ring;
pub mod scratch;
pub mod sparse_allreduce;
pub mod torus;
pub mod tree;

pub use deadline::{DeadlineFaults, DeadlinePeer, DeadlinePolicy, DeadlineReport};
pub use group::{Group, Link, Peer};
pub use hierarchical::{HiTopKReport, Inter, Intra, Route};
pub use reorder::{optimize_ring_order, PairCost};
pub use resilience::{CommFaults, ResiliencePolicy, ResilienceReport, ResilientPeer};
pub use scratch::CommScratch;
