//! Cross-crate integration tests: exercise the public API end to end the
//! way the examples and harnesses do, wiring compression + collectives +
//! DNN + optimizer + engine together.

use cloudtrain::compress::exact::SortTopK;
use cloudtrain::prelude::*;
use cloudtrain::simnet::collectives as simc;
use cloudtrain::tensor::{init, ops};

/// End-to-end: a full distributed MSTopK-SGD run learns the synthetic task
/// and keeps every replica synchronised.
#[test]
fn full_mstopk_training_pipeline() {
    let cfg = DistConfig {
        epochs: 3,
        iters_per_epoch: 10,
        ..DistConfig::small(
            Strategy::MsTopKHiTopK {
                rho: 0.05,
                samplings: 30,
            },
            Workload::Mlp,
        )
    };
    let trainer = DistTrainer::new(cfg);
    let reports = trainer.run_all_ranks();
    assert_eq!(reports.len(), 8);
    assert!(
        reports[0].final_top1() > 0.6,
        "final accuracy {} too low",
        reports[0].final_top1()
    );
    for r in &reports {
        assert_eq!(r.final_top1(), reports[0].final_top1());
    }
}

/// The four strategies all converge on the same task; dense converges at
/// least as fast as the sparse ones in epoch 1 (Fig. 10's shape).
#[test]
fn all_strategies_converge_dense_leads_early() {
    let run = |strategy| {
        let cfg = DistConfig {
            epochs: 3,
            iters_per_epoch: 10,
            ..DistConfig::small(strategy, Workload::Mlp)
        };
        DistTrainer::new(cfg).run()
    };
    let dense = run(Strategy::DenseTorus);
    let topk = run(Strategy::TopKNaiveAg { rho: 0.02 });
    let mstopk = run(Strategy::MsTopKHiTopK {
        rho: 0.02,
        samplings: 30,
    });
    for r in [&dense, &topk, &mstopk] {
        assert!(r.final_top1() > 0.5, "{} did not converge", r.strategy);
    }
    let early = |r: &TrainReport| r.epochs[0].val_top1;
    assert!(
        early(&dense) >= early(&topk) - 0.05,
        "dense should lead early: {} vs topk {}",
        early(&dense),
        early(&topk)
    );
    assert!(
        early(&dense) >= early(&mstopk) - 0.05,
        "dense should lead early: {} vs mstopk {}",
        early(&dense),
        early(&mstopk)
    );
}

/// HiTopKComm with the exact selector over real worker threads agrees with
/// a sequential reference built from the public compression API.
#[test]
fn hitopk_distributed_equals_sequential_composition() {
    let (m, n, d, rho) = (2usize, 4usize, 200usize, 0.1f64);
    let grads: Vec<Vec<f32>> = (0..m * n)
        .map(|r| {
            let mut rng = init::rng_from_seed(7000 + r as u64);
            init::gradient_like_tensor(d, &mut rng).into_vec()
        })
        .collect();

    // Sequential reference: per-node dense sums, exact top-k per shard.
    let k = cloudtrain::collectives::hierarchical::shard_k(d, n, rho);
    let mut expect = vec![0.0f32; d];
    for (j, shard) in cloudtrain::tensor::partition::shards(d, n)
        .iter()
        .enumerate()
    {
        let _ = j;
        for node in 0..m {
            let mut node_sum = vec![0.0f32; shard.len()];
            for g in 0..n {
                ops::add_assign(&mut node_sum, shard.slice(&grads[node * n + g]));
            }
            let sel = cloudtrain::compress::exact::topk_sort(&node_sum, k.min(shard.len()));
            sel.add_into(shard.slice_mut(&mut expect));
        }
    }

    let results = run_on_group(m * n, |peer| {
        let mut x = grads[peer.rank()].clone();
        let mut c = SortTopK;
        let mut route = Route::new(m, n, rho);
        let scratch = &mut CommScratch::new();
        hitopk_all_reduce(peer, &mut x, &mut route, None, &mut c, None, scratch, None);
        x
    });
    for x in &results {
        assert!(ops::approx_eq(x, &expect, 1e-4));
    }
}

/// The performance plane reproduces the paper's headline orderings across
/// both the collective simulator and the iteration model.
#[test]
fn performance_plane_headline_orderings() {
    let spec = clouds::tencent(16);

    // Fig. 7 ordering at the two model sizes the paper highlights.
    for d in [25_000_000usize, 110_000_000] {
        let mut sim = NetSim::new(spec);
        let hitopk = simc::sim_hitopk(&mut sim, &spec, d, 2, 0.01, 1e-3).total;
        sim.reset();
        let torus = simc::sim_torus_all_reduce(&mut sim, &spec, d * 2).total;
        sim.reset();
        let tree = simc::sim_tree_all_reduce_hier(&mut sim, &spec, d * 2).total;
        sim.reset();
        let naive = simc::sim_naive_sparse_all_gather(&mut sim, &spec, d / 100).total;
        assert!(hitopk < torus && torus < tree && tree < naive, "d={d}");
    }

    // Table 3's ResNet-96 ordering through the full iteration model.
    let se = |strategy| {
        IterationModel::new(
            spec,
            SystemConfig {
                strategy,
                datacache: true,
                pto: true,
            },
            ModelProfile::resnet50_96(),
        )
        .scaling_efficiency()
    };
    let dense = se(Strategy::DenseTreeAr);
    let torus = se(Strategy::DenseTorus);
    let mstopk = se(Strategy::mstopk_default());
    assert!(mstopk > torus && torus > dense);
}

/// The DataCache and the trainer compose: preload a dataset through the
/// real multi-level cache, then verify the loader's steady state is
/// memory-only while a model trains on equivalent synthetic data.
#[test]
fn datacache_composes_with_training() {
    use cloudtrain::datacache::loader::{LoaderConfig, ServedBy};

    let cfg = LoaderConfig {
        use_disk: false,
        ..LoaderConfig::default()
    };
    let mut loader = CachedLoader::new(SyntheticNfs::new(16 * 16 * 3, 3), None, cfg);
    // Epoch 1 populates the cache.
    for id in 0..32 {
        loader.load(id);
    }
    // Epoch 2 must be all memory hits.
    loader.reset_stats();
    for id in 0..32 {
        let (_, served, _) = loader.load(id);
        assert_eq!(served, ServedBy::Memory);
    }

    let train = DistTrainer::new(DistConfig {
        epochs: 1,
        iters_per_epoch: 5,
        ..DistConfig::small(Strategy::DenseTorus, Workload::Mlp)
    })
    .run();
    assert_eq!(train.epochs.len(), 1);
}

/// DAWNBench schedule sanity through the public API.
#[test]
fn dawnbench_schedule_end_to_end() {
    let r = dawnbench::evaluate_schedule(clouds::tencent(16), &dawnbench::paper_schedule());
    assert_eq!(r.stages.iter().map(|s| s.epochs).sum::<u32>(), 28);
    assert!(r.total_seconds > 60.0 && r.total_seconds < 400.0);
    // Faster than the best published 128-V100 entry (the paper's claim).
    let best = dawnbench::published_leaderboard()
        .iter()
        .map(|e| e.seconds)
        .fold(f64::INFINITY, f64::min);
    assert!(
        r.total_seconds < best * 1.2,
        "not in the leaderboard's league"
    );
}
