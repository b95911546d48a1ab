//! The benchmark's workloads: each is an existing `DistTrainer` config
//! moved onto 2 nodes × 1 worker, with the seed taken from the command line.

use cloudtrain_engine::trainer::Workload as Model;
use cloudtrain_engine::{DistConfig, FusionMode, OptimizerKind, Strategy};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `cloudtrain train --workload mlp --strategy mstopk`: the paper's
    /// MSTopK + HiTopKComm path with error feedback and LARS+PTO.
    MlpMstopk,
    /// The `dense_perlayer` row of `e2e_snapshot`: Transformer, batch 1,
    /// one 2D-torus allreduce per parameter tensor, plain momentum.
    TfDensePerlayer,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::MlpMstopk, Workload::TfDensePerlayer];

    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpMstopk => "mlp_mstopk",
            Workload::TfDensePerlayer => "tf_dense_perlayer",
        }
    }

    /// The full training config one timed run executes.
    pub fn config(self, seed: u64) -> DistConfig {
        let cfg = match self {
            // CLI `train` defaults: 4 epochs × 12 iterations, lr 0.08, batch 8.
            Workload::MlpMstopk => DistConfig {
                epochs: 4,
                iters_per_epoch: 12,
                ..DistConfig::small(Strategy::mstopk_default(), Model::Mlp)
            },
            // `e2e_snapshot`'s base config with per-layer fusion.
            Workload::TfDensePerlayer => DistConfig {
                epochs: 1,
                iters_per_epoch: 100,
                local_batch: 1,
                eval_samples: 16,
                optimizer: OptimizerKind::Momentum,
                use_pto: false,
                lr: 0.02,
                fusion: FusionMode::PerLayer,
                ..DistConfig::small(Strategy::DenseTorus, Model::Transformer)
            },
        };
        DistConfig {
            nodes: 2,
            gpus_per_node: 1,
            seed,
            ..cfg
        }
    }
}
