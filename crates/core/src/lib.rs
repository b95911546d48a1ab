//! # cloudtrain
//!
//! Scalable distributed training of deep learning on public cloud
//! clusters — a Rust reproduction of Shi, Zhou, Song, et al. (MLSys 2021).
//!
//! Public clouds pair fast intra-node links (NVLink) with slow inter-node
//! Ethernet, and classic data-parallel training collapses there: the
//! gradient AllReduce dominates the iteration. This crate bundles the
//! paper's remedies and everything needed to evaluate them:
//!
//! * **MSTopK** ([`compress`]) — a GPU-friendly approximate top-k operator
//!   built from branch-free threshold-search passes (Algorithm 1),
//! * **HiTopKComm** ([`collectives`]) — hierarchical sparse aggregation
//!   that keeps dense traffic on NVLink and sends only `ρ·d/n` elements
//!   per GPU across Ethernet (Algorithm 2),
//! * **DataCache** ([`datacache`]) — two-level caching of training data
//!   (local FS + in-memory KV of pre-processed samples),
//! * **PTO** ([`pto`]) — the parallel tensor operator distributing
//!   replicated post-processing such as LARS rate computation,
//! * **Elastic runtime** ([`elastic`], [`engine::elastic_run`]) —
//!   heartbeat membership, consistent-hash resharding, and sharded
//!   checkpoint-replay recovery for node churn on public clouds,
//! * plus the substrates: a tensor core ([`tensor`]), a DNN framework
//!   ([`dnn`]), optimizers ([`optim`]), a discrete-event cluster simulator
//!   ([`simnet`]), and the training engine ([`engine`]) tying them
//!   together.
//!
//! ## Quick start
//!
//! ```
//! use cloudtrain::prelude::*;
//!
//! // Train a small model with the paper's MSTopK-SGD on 2x4 workers.
//! let cfg = DistConfig {
//!     epochs: 1,
//!     iters_per_epoch: 4,
//!     ..DistConfig::small(Strategy::mstopk_default(), Workload::Mlp)
//! };
//! let report = DistTrainer::new(cfg).run();
//! assert_eq!(report.epochs.len(), 1);
//!
//! // Model the same strategy's throughput on the paper's 128-GPU cluster.
//! let model = IterationModel::new(
//!     clouds::tencent(16),
//!     SystemConfig::paper_full(),
//!     ModelProfile::resnet50_96(),
//! );
//! assert!(model.scaling_efficiency() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cloudtrain_collectives as collectives;
pub use cloudtrain_compress as compress;
pub use cloudtrain_conformance as conformance;
pub use cloudtrain_datacache as datacache;
pub use cloudtrain_dnn as dnn;
pub use cloudtrain_elastic as elastic;
pub use cloudtrain_engine as engine;
pub use cloudtrain_obs as obs;
pub use cloudtrain_optim as optim;
pub use cloudtrain_pto as pto;
pub use cloudtrain_simnet as simnet;
pub use cloudtrain_tensor as tensor;

/// Re-export of the cluster presets (Table 1).
pub use cloudtrain_simnet::clouds;

/// The most common imports for users of the library.
pub mod prelude {
    pub use crate::clouds;
    pub use cloudtrain_collectives::group::run_on_group;
    pub use cloudtrain_collectives::hierarchical::{hitopk_all_reduce, sparse_all_reduce_naive};
    pub use cloudtrain_collectives::{CommScratch, Group, Inter, Intra, Link, Peer, Route};
    pub use cloudtrain_compress::{Compressor, ErrorFeedback, MsTopK, SparseGrad};
    pub use cloudtrain_datacache::{CachedLoader, LoaderConfig, RingSampler, SyntheticNfs};
    pub use cloudtrain_dnn::model::{Input, Model};
    pub use cloudtrain_elastic::{ElasticScenario, HashRing, HeartbeatConfig, MembershipEventKind};
    pub use cloudtrain_engine::dawnbench;
    pub use cloudtrain_engine::trainer::Workload;
    pub use cloudtrain_engine::{
        DistConfig, DistTrainer, ElasticReport, FaultConfig, FusionMode, IterationModel,
        ModelProfile, OptimizerKind, Strategy, SystemConfig, TrainReport,
    };
    pub use cloudtrain_optim::{Lars, LarsConfig, Optimizer};
    pub use cloudtrain_simnet::{ClusterSpec, DeadlineMode, FaultPlan, NetSim, SimResilience};
    pub use cloudtrain_tensor::Tensor;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports_work() {
        use crate::prelude::*;
        let spec = clouds::tencent(2);
        assert_eq!(spec.world(), 16);
        let t = Tensor::zeros_1d(4);
        assert_eq!(t.len(), 4);
    }
}
