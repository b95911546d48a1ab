//! Interactive-ish communication explorer: sweeps message sizes, cluster
//! shapes and densities over the four aggregation schemes on the simulated
//! fabric, and verifies the real (data-moving) collectives against a
//! sequential reference as it goes.
//!
//! ```text
//! cargo run --release --example comm_explorer [nodes] [gpus_per_node]
//! ```

use cloudtrain::compress::exact::SortTopK;
use cloudtrain::prelude::*;
use cloudtrain::simnet::collectives as simc;
use cloudtrain::tensor::{init, ops};

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let gpn: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let spec = cloudtrain::simnet::ClusterSpec {
        nodes,
        gpus_per_node: gpn,
        ..clouds::tencent(nodes)
    };
    println!(
        "cluster: {} nodes x {} GPUs, 25GbE inter / NVLink intra\n",
        nodes, gpn
    );

    // --- Simulated sweep over gradient sizes (FP16 wire, rho = 0.01). ---
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "elements", "NaiveAG", "TreeAR", "2DTAR", "HiTopKComm"
    );
    for d in [1usize << 21, 1 << 23, 25_000_000, 1 << 27] {
        let mut sim = NetSim::new(spec);
        let naive = simc::sim_naive_sparse_all_gather(&mut sim, &spec, d / 100).total;
        sim.reset();
        let tree = simc::sim_tree_all_reduce_hier(&mut sim, &spec, d * 2).total;
        sim.reset();
        let torus = simc::sim_torus_all_reduce(&mut sim, &spec, d * 2).total;
        sim.reset();
        let hitopk = simc::sim_hitopk(&mut sim, &spec, d, 2, 0.01, 1e-3).total;
        println!(
            "{:>10} {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>10.1}ms",
            d,
            naive * 1e3,
            tree * 1e3,
            torus * 1e3,
            hitopk * 1e3
        );
    }

    // --- Density sweep for HiTopKComm. ---
    println!("\nHiTopKComm total vs density (d = 25M, FP32):");
    for rho in [0.001, 0.01, 0.05, 0.1] {
        let mut sim = NetSim::new(spec);
        let t = simc::sim_hitopk(&mut sim, &spec, 25_000_000, 4, rho, 2e-3);
        println!("  rho = {:>5}: {:>8.2} ms", rho, t.total * 1e3);
    }

    // --- Cross-check: the real collectives move real bytes correctly. ---
    let check_world = (nodes.min(4)) * (gpn.min(4));
    let (m, n) = (nodes.min(4), gpn.min(4));
    println!(
        "\ncross-check on {} real worker threads ({}x{}):",
        check_world, m, n
    );
    let d = 10_000;
    let expect: Vec<f32> = {
        let mut acc = vec![0.0; d];
        for r in 0..check_world {
            let mut rng = init::rng_from_seed(900 + r as u64);
            ops::add_assign(
                &mut acc,
                init::uniform_tensor(d, -1.0, 1.0, &mut rng).as_slice(),
            );
        }
        acc
    };
    let results = run_on_group(check_world, |peer| {
        let mut rng = init::rng_from_seed(900 + peer.rank() as u64);
        let mut x = init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec();
        cloudtrain::collectives::torus::torus_all_reduce(peer, &mut x, m, n);
        x
    });
    let max_err = results
        .iter()
        .map(|x| ops::linf_distance(x, &expect))
        .fold(0.0f32, f32::max);
    println!("  2DTAR vs sequential sum: max |err| = {max_err:.2e}");

    let results = run_on_group(check_world, |peer| {
        let mut rng = init::rng_from_seed(900 + peer.rank() as u64);
        let mut x = init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec();
        let mut c = SortTopK;
        let mut route = Route::new(m, n, 0.05);
        let scratch = &mut CommScratch::new();
        let rep = hitopk_all_reduce(peer, &mut x, &mut route, None, &mut c, None, scratch, None);
        (x, rep)
    });
    let all_same = results.windows(2).all(|w| w[0].0 == w[1].0);
    println!(
        "  HiTopKComm: all ranks bitwise identical = {}, k/shard = {}, nonzeros/shard = {}",
        all_same, results[0].1.k_per_shard, results[0].1.shard_nonzeros
    );
}
