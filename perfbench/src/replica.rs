//! A traced replica of the `DistTrainer` worker loop, built only from the
//! layers' public functions.
//!
//! It covers the paths the benchmark's workloads take: clean `MsTopKHiTopK`
//! with error feedback under LARS with PTO, and per-layer or whole-tensor
//! `DenseTorus` under LARS with PTO or plain momentum. Every call into a
//! layer is wrapped in a span of the [`Recorder`], so the per-step self time
//! of each layer can be read off after the run. The replica does the same
//! arithmetic in the same order as the trainer, so its per-rank losses are
//! bitwise equal to `DistTrainer`'s; the benchmark checks that on every
//! traced run.

use std::hint::black_box;
use std::time::Instant;

use cloudtrain_collectives::group::run_on_group;
use cloudtrain_collectives::hierarchical::{group_wire_bytes, shard_k};
use cloudtrain_collectives::ring::{
    all_gather_f32, all_gather_f32_scratch, all_gather_u32_scratch, ring_all_gather_scratch,
    ring_reduce_scatter_scratch,
};
use cloudtrain_collectives::torus::{
    grid_pos, inter_node_members, intra_node_members, torus_all_reduce,
};
use cloudtrain_collectives::{CommScratch, Peer};
use cloudtrain_compress::{Compressor, ErrorFeedback, MsTopK};
use cloudtrain_dnn::data::{Batch, SyntheticImages, SyntheticSeq};
use cloudtrain_dnn::loss::{softmax_cross_entropy, top_k_accuracy};
use cloudtrain_dnn::model::{Input, Model, ParamRange};
use cloudtrain_dnn::models::{mlp, TransformerModel};
use cloudtrain_engine::fusion::{bucket_spans, plan_buckets};
use cloudtrain_engine::trainer::Workload as Arch;
use cloudtrain_engine::{DistConfig, FusionMode, OptimizerKind, Strategy};
use cloudtrain_optim::lars::{apply_with_rates, LarsConfig};
use cloudtrain_optim::schedule::{LrSchedule, WarmupCosine};
use cloudtrain_tensor::{init, ops, partition};

use crate::trace::{Recorder, STEP};

/// The end-of-epoch figures the trainer reports, as raw bits so two runs
/// compare exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochBits {
    /// `train_loss.to_bits()`.
    pub train_loss: u32,
    /// `val_top1.to_bits()`.
    pub val_top1: u32,
    /// `val_top5.to_bits()`.
    pub val_top5: u32,
    /// `residual_norm.to_bits()`.
    pub residual_norm: u32,
}

/// What one rank of a replica run hands back.
#[derive(Debug)]
pub struct RankRun {
    /// Per-epoch figures.
    pub epochs: Vec<EpochBits>,
    /// The rank's spans, collective entries and counters.
    pub rec: Recorder,
    /// Wall time of the fusion plan (`plan_buckets` + `bucket_spans`), ms;
    /// 0 when the config aggregates the whole tensor at once.
    pub plan_ms: f64,
}

/// Runs the replica on a fresh group and returns each rank's result in
/// rank order.
///
/// # Panics
/// Panics on a config the replica does not cover (see the module docs).
pub fn run(cfg: &DistConfig) -> Vec<RankRun> {
    assert!(
        !cfg.mixed_precision && !cfg.fp16_wire && cfg.faults.is_none(),
        "replica: mixed precision, fp16 wire and faults are not replicated"
    );
    assert!(
        !cfg.fused_compress_reduce && !cfg.rank_reorder,
        "replica: fused and reordered routes are not replicated"
    );
    assert!(
        cfg.fusion == FusionMode::WholeTensor
            || (cfg.fusion == FusionMode::PerLayer && cfg.strategy == Strategy::DenseTorus),
        "replica: only whole-tensor aggregation and per-layer dense fusion are replicated"
    );
    assert!(
        (cfg.optimizer == OptimizerKind::Lars && cfg.use_pto)
            || cfg.optimizer == OptimizerKind::Momentum,
        "replica: only LARS with PTO and plain momentum are replicated"
    );
    let origin = Instant::now();
    run_on_group(cfg.world(), |peer| worker(cfg, peer, origin))
}

fn build_model(cfg: &DistConfig) -> Box<dyn Model> {
    let mut rng = init::rng_from_seed(cfg.seed);
    match cfg.workload {
        Arch::Mlp => Box::new(mlp(3 * 16 * 16, 64, cfg.classes, &mut rng)),
        Arch::Transformer => Box::new(TransformerModel::new(64, 16, 16, 2, cfg.classes, &mut rng)),
        other => panic!("replica: {other:?} is not a benchmark workload"),
    }
}

/// The stream a benchmark model trains on.
enum Data {
    Images(SyntheticImages),
    Seq(SyntheticSeq),
}

fn build_data(cfg: &DistConfig) -> Data {
    match cfg.workload {
        Arch::Transformer => Data::Seq(SyntheticSeq::new(cfg.classes, 64, 16, cfg.seed)),
        _ => Data::Images(SyntheticImages::new(cfg.classes, 3, 16, 0.6, cfg.seed)),
    }
}

/// Batch `[start, start + len)` of the stream, shaped for the model.
fn make_batch(data: &Data, cfg: &DistConfig, start: u64, len: usize) -> Batch {
    let mut batch = match data {
        Data::Images(g) => g.batch(start, len),
        Data::Seq(g) => g.batch(start, len),
    };
    // The MLP takes flattened images.
    if cfg.workload == Arch::Mlp {
        if let Input::Dense(t) = &mut batch.input {
            let b = t.shape()[0];
            let rest = t.len() / b;
            t.reshape(vec![b, rest]).expect("flatten for mlp");
        }
    }
    batch
}

fn sum_sq(x: &[f32]) -> f64 {
    x.iter().map(|v| f64::from(*v) * f64::from(*v)).sum()
}

fn worker(cfg: &DistConfig, peer: &Peer, origin: Instant) -> RankRun {
    let mut rec = Recorder::new(origin);
    let (m, n) = (cfg.nodes, cfg.gpus_per_node);
    let rank = peer.rank();
    let mut model = build_model(cfg);
    let data = build_data(cfg);
    let d = model.param_count();
    let ranges = model.layer_ranges();
    let world = cfg.world() as f32;

    // The trainer plans its fusion buckets once, before the first step.
    let t = Instant::now();
    let spans = (cfg.fusion == FusionMode::PerLayer).then(|| {
        let buckets = plan_buckets(&ranges, std::mem::size_of::<f32>(), 1);
        bucket_spans(&ranges, &buckets)
    });
    let plan_ms = if spans.is_some() {
        t.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    let spans = spans.unwrap_or_else(|| vec![ParamRange { offset: 0, len: d }]);

    let shard_len = partition::shard_for(d, n, rank % n).len();
    let mut ef_shard = ErrorFeedback::new(shard_len);
    let (rho, samplings) = match cfg.strategy {
        Strategy::MsTopKHiTopK { rho, samplings } => (rho, samplings),
        Strategy::DenseTorus => (0.0, 30),
        other => panic!("replica: strategy {} is not replicated", other.label()),
    };
    let mut mstopk = MsTopK::new(samplings, cfg.seed);

    let lars_cfg = LarsConfig::default();
    let mut velocity = vec![0.0f32; d];
    let schedule = WarmupCosine {
        base: cfg.lr,
        warmup_steps: (cfg.iters_per_epoch / 2) as u64,
        total_steps: (cfg.epochs * cfg.iters_per_epoch) as u64,
        final_lr: cfg.lr * 0.01,
    };
    let mut params = vec![0.0f32; d];
    let mut grads = vec![0.0f32; d];
    let mut scratch = CommScratch::new();

    let pos = grid_pos(rank, m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);
    let all: Vec<usize> = (0..peer.size()).collect();

    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut step = 0u64;
    for _ in 0..cfg.epochs {
        let mut loss_sum = 0.0f32;
        for _ in 0..cfg.iters_per_epoch {
            rec.open(STEP, step);
            let start = (step * cfg.world() as u64 + rank as u64) * cfg.local_batch as u64;
            let batch = rec.span("dnn.data", step, || {
                make_batch(&data, cfg, start, cfg.local_batch)
            });
            let (loss, dlogits) = rec.span("dnn.forward", step, || {
                let logits = model.forward(&batch.input, true);
                softmax_cross_entropy(&logits, &batch.labels)
            });
            loss_sum += loss;
            rec.span("dnn.backward", step, || {
                model.backward(dlogits);
                model.read_grads(&mut grads);
                model.zero_grads();
            });

            let mut mass = None;
            match cfg.strategy {
                Strategy::DenseTorus => {
                    for s in &spans {
                        let g = &mut grads[s.offset..s.offset + s.len];
                        rec.call_entry(step);
                        rec.span("collectives.allreduce", step, || {
                            torus_all_reduce(peer, g, m, n)
                        });
                    }
                }
                Strategy::MsTopKHiTopK { .. } => {
                    // HiTopKComm, stage by stage: intra ReduceScatter, EF +
                    // MSTopK on the shard, inter AllGather + scatter-add,
                    // intra AllGather.
                    if intra.len() > 1 {
                        rec.call_entry(step);
                    }
                    let shard = rec.span("collectives.intra_rs", step, || {
                        ring_reduce_scatter_scratch(peer, &mut grads, &intra, &mut scratch)
                    });
                    let k = shard_k(d, n, rho).min(shard.len());
                    let shard_buf = shard.slice_mut(&mut grads);
                    rec.span("compress.ef", step, || ef_shard.compensate(shard_buf));
                    let selection =
                        rec.span("compress.select", step, || mstopk.compress(shard_buf, k));
                    rec.span("compress.ef", step, || {
                        ef_shard.absorb(shard_buf, &selection)
                    });

                    rec.open("collectives.inter_ag", step);
                    rec.call_entry(step);
                    let value_blocks =
                        all_gather_f32_scratch(peer, &selection.values, &inter, &mut scratch);
                    rec.call_entry(step);
                    let index_blocks =
                        all_gather_u32_scratch(peer, &selection.indices, &inter, &mut scratch);
                    let inter_bytes = group_wire_bytes(&selection, inter.len());
                    let shard_buf = shard.slice_mut(&mut grads);
                    ops::fill(shard_buf, 0.0);
                    for (vals, idxs) in value_blocks.into_iter().zip(index_blocks) {
                        ops::scatter_add(shard_buf, &idxs, &vals);
                        scratch.put_f32(vals);
                        scratch.put_u32(idxs);
                    }
                    // The trainer counts the shard's nonzeros here for its report.
                    black_box(shard_buf.iter().filter(|v| **v != 0.0).count());
                    rec.close();

                    if intra.len() > 1 {
                        rec.call_entry(step);
                    }
                    rec.span("collectives.intra_ag", step, || {
                        ring_all_gather_scratch(peer, &mut grads, &intra, &mut scratch)
                    });
                    rec.count(step, "compress.k", k as f64);
                    rec.count(step, "collectives.inter_bytes", inter_bytes as f64);
                    mass = Some(sum_sq(&selection.values));
                }
                _ => unreachable!("strategy checked at worker start"),
            }
            rec.span("tensor.scale", step, || ops::scale(&mut grads, 1.0 / world));

            let lr = schedule.lr(step);
            rec.span("optim.apply", step, || model.read_params(&mut params));
            if cfg.optimizer == OptimizerKind::Lars {
                // PTO computes each rank's slice of the layer rates and
                // all-gathers them: one collective per step.
                rec.call_entry(step);
                let rates = rec.span("pto.lars_rates", step, || {
                    cloudtrain_pto::lars_rates(peer, &params, &grads, &ranges, &lars_cfg)
                });
                rec.span("optim.apply", step, || {
                    apply_with_rates(
                        &mut params,
                        &grads,
                        &mut velocity,
                        &ranges,
                        &rates,
                        lr,
                        &lars_cfg,
                    )
                });
            } else {
                // The trainer's momentum update, which has no public function.
                rec.span("optim.apply", step, || {
                    for ((w, g), v) in params.iter_mut().zip(&grads).zip(&mut velocity) {
                        *v = 0.9 * *v + g;
                        *w -= lr * *v;
                    }
                });
            }
            rec.span("optim.apply", step, || model.write_params(&params));
            rec.close();

            // Off the clock: the share of the compensated shard's energy
            // the selection carried (the residual holds the rest).
            if let Some(selected) = mass {
                let total = selected + sum_sq(ef_shard.residual());
                rec.count(
                    step,
                    "compress.captured_mass",
                    selected / total.max(f64::MIN_POSITIVE),
                );
            }
            step += 1;
        }

        // Validation, as the trainer runs it (same batch on every rank).
        let val = make_batch(&data, cfg, 1u64 << 40, cfg.eval_samples);
        let logits = model.forward(&val.input, false);
        let top1 = top_k_accuracy(&logits, &val.labels, 1);
        let top5 = top_k_accuracy(&logits, &val.labels, 5.min(cfg.classes));
        let residual_norm = match cfg.strategy {
            Strategy::MsTopKHiTopK { .. } => ef_shard.residual_norm(),
            _ => 0.0,
        };
        epochs.push(EpochBits {
            train_loss: (loss_sum / cfg.iters_per_epoch as f32).to_bits(),
            val_top1: top1.to_bits(),
            val_top5: top5.to_bits(),
            residual_norm: residual_norm.to_bits(),
        });
        let _ = all_gather_f32(peer, &[top1], &all);
    }
    RankRun {
        epochs,
        rec,
        plan_ms,
    }
}
