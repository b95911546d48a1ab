//! End-to-end steps/sec snapshot: the speed gate of the raw-speed pass.
//!
//! Times real `DistTrainer` runs (all ranks, full forward/backward/
//! aggregate/update loop) across the runtime optimization axes:
//!
//! * **fusion buckets** — dense 2D-torus aggregation launched per layer
//!   (the α-heavy Fig.-1 pathology), whole-tensor, and with the
//!   cost-model bucket plan,
//! * **fused compress–reduce** — MSTopK HiTopKComm with and without the
//!   fused ReduceScatter+top-k hop.
//!
//! The headline number — cost-model-bucketed dense steps/sec over the
//! per-layer dense row of the same build — must stay ≥ 1.5×;
//! `scripts/ci.sh` enforces the ceiling.
//!
//! Wall-clock numbers are not byte-stable, so (like `obs_snapshot`) the
//! deterministic fingerprint of every configuration — final accuracy
//! bits, bucket counts, bitwise-equivalence verdicts — is printed
//! between `E2E-BEGIN`/`E2E-END` markers for CI to slice out and `cmp`
//! across two invocations.
//!
//! Usage: `e2e_snapshot [out.json]`.

use cloudtrain::engine::autotune::{autotune_layers, AutotuneConfig, CommModel};
use cloudtrain::engine::trainer::{workload_layer_ranges, Workload};
use cloudtrain::prelude::*;
use cloudtrain_bench::{fmt_secs, header};
use serde::Serialize;
use std::time::Instant;

/// Measurement reps per configuration (plus one warmup run).
const REPS: usize = 3;

#[derive(Serialize)]
struct ConfigRecord {
    name: String,
    strategy: String,
    fusion: String,
    fused_compress_reduce: bool,
    steps_per_sec: f64,
    best_run_s: f64,
    final_top1: f32,
    buckets: u64,
}

#[derive(Serialize)]
struct Snapshot {
    benchmark: String,
    reps: usize,
    global_steps: usize,
    configs: Vec<ConfigRecord>,
    /// Same-build ratio: dense cost-model buckets over dense per-layer.
    fusion_speedup: f64,
    /// Same-build ratio: fused over unfused MSTopK. The fused hop's
    /// contract is bitwise identity at fewer passes, and on a small host
    /// the saved passes are hidden behind thread sync, so this ratio
    /// hovers near 1; `scripts/ci.sh` only holds it ≥ 0.85.
    fused_speedup: f64,
    /// The fused-compress-reduce flag the per-layer autotuner picked for
    /// this exact topology/workload from the α–β cost model (no wall
    /// clock): `true` means it predicts fusing the ReduceScatter+top-k
    /// hop is at least as fast as staging it.
    autotune_fused: bool,
    /// Gated ratio: autotuned MSTopK steps/sec over the best hand-picked
    /// MSTopK row. The cost model is deterministic, so the only reason
    /// this dips below 1.0 is single-core wall-clock jitter; `scripts/
    /// ci.sh` holds it ≥ 0.9 so the tuner can never silently route onto
    /// the slower fused/staged path.
    autotune_efficiency: f64,
    /// Headline: dense cost-model steps/sec over the per-layer dense row
    /// — the α-pathology the raw-speed pass exists to kill. The same
    /// ratio as [`Self::fusion_speedup`], kept under the key the CI gate
    /// reads.
    speedup_vs_baseline: f64,
}

fn base_cfg(strategy: Strategy) -> DistConfig {
    DistConfig {
        nodes: 2,
        gpus_per_node: 4,
        epochs: 1,
        iters_per_epoch: 100,
        // Communication-bound regime (the cloud setting the paper
        // optimizes): per-rank compute is a batch-1 forward/backward,
        // the Transformer's many small parameter tensors make the
        // per-layer launch overhead (the Fig.-1 α pathology) visible,
        // and the optimizer is plain momentum so no PTO gathers dilute
        // the aggregation-path contrast. The lr is below the batch-1
        // divergence point of both aggregation families so every row
        // trains to the same clean fingerprint.
        local_batch: 1,
        eval_samples: 16,
        optimizer: OptimizerKind::Momentum,
        use_pto: false,
        lr: 0.02,
        ..DistConfig::small(strategy, Workload::Transformer)
    }
}

/// One configuration of the matrix.
struct Case {
    name: &'static str,
    cfg: DistConfig,
}

/// Asks the per-layer autotuner whether to fuse the compress–reduce hop
/// for the exact matrix configuration (Transformer on 2×4, ρ = 0.01 /
/// 30 samplings — `Strategy::mstopk_default()`), from the α–β cost model
/// alone. This is the routing decision the "mstopk_autotuned" row runs
/// under, so a wrong prediction shows up directly as a low
/// `autotune_efficiency`.
fn autotune_fused_flag() -> bool {
    let base = base_cfg(Strategy::mstopk_default());
    let mut spec = clouds::tencent(base.nodes);
    spec.gpus_per_node = base.gpus_per_node;
    let ranges = workload_layer_ranges(Workload::Transformer);
    autotune_layers(&ranges, &CommModel::new(spec), &AutotuneConfig::default())
        .fused_compress_reduce()
}

fn cases() -> Vec<Case> {
    let dense = |fusion| {
        let mut cfg = base_cfg(Strategy::DenseTorus);
        cfg.fusion = fusion;
        cfg
    };
    let sparse = |fused| {
        let mut cfg = base_cfg(Strategy::mstopk_default());
        cfg.fused_compress_reduce = fused;
        cfg
    };
    vec![
        Case {
            name: "dense_perlayer",
            cfg: dense(FusionMode::PerLayer),
        },
        Case {
            name: "dense_whole",
            cfg: dense(FusionMode::WholeTensor),
        },
        Case {
            name: "dense_costmodel",
            cfg: dense(FusionMode::CostModel),
        },
        Case {
            name: "mstopk_unfused",
            cfg: sparse(false),
        },
        Case {
            name: "mstopk_fused",
            cfg: sparse(true),
        },
        Case {
            name: "mstopk_autotuned",
            cfg: sparse(autotune_fused_flag()),
        },
    ]
}

fn fusion_label(mode: FusionMode) -> String {
    match mode {
        FusionMode::WholeTensor => "whole-tensor".to_string(),
        FusionMode::PerLayer => "per-layer".to_string(),
        FusionMode::Bucketed { threshold_bytes } => format!("bucketed({threshold_bytes})"),
        FusionMode::CostModel => "cost-model".to_string(),
    }
}

fn steps_per_sec(snapshot: &Snapshot, name: &str) -> Option<f64> {
    snapshot
        .configs
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.steps_per_sec)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_e2e.json".to_string());

    header("End-to-end steps/sec matrix");
    println!(
        "{:>16} {:>14} {:>14} {:>8} {:>12} {:>10} {:>8}",
        "config", "strategy", "fusion", "fused", "best run", "steps/s", "top1"
    );

    let global_steps = {
        let c = base_cfg(Strategy::DenseTorus);
        c.epochs * c.iters_per_epoch
    };
    let mut configs = Vec::new();
    let mut fingerprints = Vec::new();
    for case in cases() {
        let trainer = DistTrainer::new(case.cfg.clone());
        // Fingerprint run: traced, bitwise identical to the timed runs,
        // also yields the bucket counters for the deterministic section.
        let (report, reg) = trainer.run_observed();
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let timed = trainer.run_all_ranks();
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                timed[0].final_top1(),
                report.final_top1(),
                "{}: timed run diverged from fingerprint run",
                case.name
            );
        }
        let record = ConfigRecord {
            name: case.name.to_string(),
            strategy: case.cfg.strategy.label().to_string(),
            fusion: fusion_label(case.cfg.fusion),
            fused_compress_reduce: case.cfg.fused_compress_reduce,
            steps_per_sec: global_steps as f64 / best,
            best_run_s: best,
            final_top1: report.final_top1(),
            buckets: reg.counter("fusion/buckets"),
        };
        println!(
            "{:>16} {:>14} {:>14} {:>8} {:>12} {:>10.1} {:>8.3}",
            record.name,
            record.strategy,
            record.fusion,
            record.fused_compress_reduce,
            fmt_secs(best),
            record.steps_per_sec,
            record.final_top1
        );
        fingerprints.push(format!(
            "{} top1_bits=0x{:08x} loss_bits=0x{:08x} buckets={} messages_saved={}",
            case.name,
            report.final_top1().to_bits(),
            report
                .epochs
                .last()
                .map(|e| e.train_loss.to_bits())
                .unwrap_or(0),
            reg.counter("fusion/buckets"),
            reg.counter("fusion/messages_saved"),
        ));
        configs.push(record);
    }

    let mut snapshot = Snapshot {
        benchmark: "e2e_steps_per_sec".to_string(),
        reps: REPS,
        global_steps,
        configs,
        fusion_speedup: 0.0,
        fused_speedup: 0.0,
        autotune_fused: autotune_fused_flag(),
        autotune_efficiency: 0.0,
        speedup_vs_baseline: 0.0,
    };
    let (dense_opt, dense_base, sparse_opt, sparse_base, sparse_tuned) = {
        let get = |name: &str| {
            // lint:allow(panic_free, reason = "every name queried here is a literal from cases(), so the row always exists")
            steps_per_sec(&snapshot, name).expect("config row missing")
        };
        (
            get("dense_costmodel"),
            get("dense_perlayer"),
            get("mstopk_fused"),
            get("mstopk_unfused"),
            get("mstopk_autotuned"),
        )
    };
    snapshot.fusion_speedup = dense_opt / dense_base;
    snapshot.speedup_vs_baseline = snapshot.fusion_speedup;
    snapshot.fused_speedup = sparse_opt / sparse_base;
    snapshot.autotune_efficiency = sparse_tuned / sparse_opt.max(sparse_base);

    // Deterministic fingerprint section for the CI double-run `cmp`.
    println!("E2E-BEGIN");
    println!("global_steps={global_steps}");
    for line in &fingerprints {
        println!("{line}");
    }
    // Cross-config invariants the matrix proves on every run:
    let bits = |name: &str| {
        snapshot
            .configs
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.final_top1.to_bits())
            .unwrap_or(0)
    };
    println!(
        "fused_matches_unfused_bitwise={}",
        bits("mstopk_fused") == bits("mstopk_unfused")
    );
    println!("autotune_fused={}", snapshot.autotune_fused);
    println!(
        "autotuned_matches_handpicked_bitwise={}",
        bits("mstopk_autotuned") == bits("mstopk_fused")
            && bits("mstopk_autotuned") == bits("mstopk_unfused")
    );
    println!("E2E-END");

    println!(
        "\nfusion buckets speedup (cost-model vs per-layer): {:.2}x",
        snapshot.fusion_speedup
    );
    println!(
        "fused compress-reduce speedup (vs unfused):       {:.2}x",
        snapshot.fused_speedup
    );
    println!(
        "autotuned vs best hand-picked mstopk (fused={}):  {:.2}x (floor: 0.9x)",
        snapshot.autotune_fused, snapshot.autotune_efficiency
    );
    println!(
        "headline speedup (cost-model vs per-layer):       {:.2}x (ceiling: 1.5x)",
        snapshot.speedup_vs_baseline
    );

    match serde_json::to_string(&snapshot) {
        Ok(json) => {
            std::fs::write(&out_path, json + "\n").expect("write snapshot file");
            println!("wrote {out_path}");
        }
        Err(e) => {
            eprintln!("snapshot serialization failed: {e}");
            std::process::exit(1);
        }
    }
}
