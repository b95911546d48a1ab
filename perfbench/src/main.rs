//! `perfbench`: end-to-end and per-layer benchmark of `DistTrainer`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times full `DistTrainer::run_all_ranks` jobs of the
//! workload (closed loop, one job at a time) and reports the end-to-end
//! metrics. With `--trace 1` it alternates untraced `DistTrainer` jobs with
//! runs of the traced step replica and reports the per-layer metrics. Every
//! job's outputs are checked; the last line of standard output is the
//! result object.

mod replica;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cloudtrain_engine::{DistConfig, DistTrainer, TrainReport};

use replica::EpochBits;
use workload::Workload;

/// Span names whose per-step self time is reported as `<name>_ms` and
/// `<name>_p99_ms`.
const LAYER_SPANS: [&str; 10] = [
    "dnn.data",
    "dnn.forward",
    "dnn.backward",
    "compress.ef",
    "compress.select",
    "collectives.allreduce",
    "collectives.inter_ag",
    "tensor.scale",
    "pto.lars_rates",
    "optim.apply",
];

/// Where job logs and traces are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Per-step counters the replica records, reported as their median.
const COUNTERS: [&str; 3] = [
    "compress.k",
    "compress.captured_mass",
    "collectives.inter_bytes",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |key: &str| {
        flags
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let name = get("workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    for key in flags.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Per-rank, per-epoch output bits of one job.
type Fingerprint = Vec<Vec<EpochBits>>;

fn fingerprint(reports: &[TrainReport]) -> Fingerprint {
    reports
        .iter()
        .map(|r| {
            r.epochs
                .iter()
                .map(|e| EpochBits {
                    train_loss: e.train_loss.to_bits(),
                    val_top1: e.val_top1.to_bits(),
                    val_top5: e.val_top5.to_bits(),
                    residual_norm: e.residual_norm.to_bits(),
                })
                .collect()
        })
        .collect()
}

/// Checks one job's own outputs: every rank reports every epoch, the ranks
/// agree on validation accuracy, and every loss is finite.
fn check_job(cfg: &DistConfig, fp: &Fingerprint) -> Result<(), String> {
    if fp.len() != cfg.world() || fp.iter().any(|r| r.len() != cfg.epochs) {
        return Err("a rank reported the wrong number of epochs".into());
    }
    for rank in &fp[1..] {
        for (a, b) in rank.iter().zip(&fp[0]) {
            if (a.val_top1, a.val_top5) != (b.val_top1, b.val_top5) {
                return Err("ranks disagree on validation accuracy".into());
            }
        }
    }
    if fp
        .iter()
        .flatten()
        .any(|e| !f32::from_bits(e.train_loss).is_finite())
    {
        return Err("non-finite training loss".into());
    }
    Ok(())
}

/// Runs one untraced `DistTrainer` job, catching a panic.
fn trainer_job(cfg: &DistConfig) -> Result<(Vec<TrainReport>, Duration), String> {
    let started = Instant::now();
    let reports = catch_unwind(AssertUnwindSafe(|| {
        DistTrainer::new(cfg.clone()).run_all_ranks()
    }))
    .map_err(|_| "DistTrainer panicked".to_string())?;
    let wall = started.elapsed();
    check_job(cfg, &fingerprint(&reports))?;
    Ok((reports, wall))
}

/// Counts attempted and failed jobs, and checks every job against the
/// first one of the same config.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: BTreeMap<String, u64>,
}

impl Ledger {
    fn record<T>(
        &mut self,
        outcome: Result<T, String>,
        fp: impl Fn(&T) -> Fingerprint,
        reference: &mut Option<Fingerprint>,
    ) -> Option<T> {
        self.attempted += 1;
        let checked = outcome.and_then(|v| {
            let got = fp(&v);
            match reference {
                Some(want) if *want != got => Err("outputs differ from the first job".to_string()),
                Some(_) => Ok(v),
                None => {
                    *reference = Some(got);
                    Ok(v)
                }
            }
        });
        match checked {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("perfbench: job failed: {e}");
                self.failed += 1;
                *self.errors.entry(e).or_default() += 1;
                None
            }
        }
    }
}

/// Linear-interpolation quantile of sorted data (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles, p99 and count of a sample.
struct Summary {
    p50: f64,
    q1: f64,
    q3: f64,
    p99: f64,
    n: usize,
}

fn summarize(mut xs: Vec<f64>) -> Summary {
    xs.sort_by(f64::total_cmp);
    Summary {
        p50: quantile(&xs, 0.5),
        q1: quantile(&xs, 0.25),
        q3: quantile(&xs, 0.75),
        p99: quantile(&xs, 0.99),
        n: xs.len(),
    }
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"median\":{},\"q1\":{},\"q3\":{},\"p99\":{},\"n\":{}}}",
        num(s.p50),
        num(s.q1),
        num(s.q3),
        num(s.p99),
        s.n
    )
}

/// A JSON number; a non-finite value (never expected) prints as -1 so the
/// result stays parseable, and `main` marks such a result incorrect.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "-1".into()
    }
}

/// Writes `text` to `path`, creating its directory.
fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    std::fs::write(path, text).map_err(err)
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    detail: Vec<(String, String)>,
    /// Jobs of each kind the metrics were measured over.
    reps: Vec<(&'static str, usize)>,
    ledger: Ledger,
    correct: bool,
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let cfg = args.workload.config(args.seed);
    let mut ledger = Ledger::default();

    // Set-up: what one job launch costs before and around its first step.
    let setup_cfg = DistConfig {
        epochs: 1,
        iters_per_epoch: 1,
        ..cfg.clone()
    };
    // Warm-up job: also the reference every timed job must reproduce.
    let mut reference = None;
    ledger.record(trainer_job(&cfg), |(r, _)| fingerprint(r), &mut reference);

    // Set-up jobs are interleaved with the timed jobs so that both sample
    // the same stretch of wall time.
    let steps = (cfg.epochs * cfg.iters_per_epoch) as f64;
    let mut setup_ref = None;
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut log = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        let job = trainer_job(&setup_cfg);
        if let Some((_, wall)) = ledger.record(job, |(r, _)| fingerprint(r), &mut setup_ref) {
            setup.push(wall.as_secs_f64());
        }
        let at = started.elapsed().as_secs_f64();
        let job = trainer_job(&cfg);
        if let Some((_, wall)) = ledger.record(job, |(r, _)| fingerprint(r), &mut reference) {
            rates.push(steps / wall.as_secs_f64());
            log.push(format!("[{at},{}]", wall.as_secs_f64()));
        }
    }
    let rss = peak_rss_mb()?;
    let path = Path::new(OUT_DIR).join(format!(
        "jobs_{}_seed{}.json",
        args.workload.name(),
        args.seed
    ));
    write_file(
        &path,
        &format!("{{\"timed_jobs_start_and_wall_s\":[{}]}}\n", log.join(",")),
    )?;

    let correct = ledger.failed == 0;
    let reps = vec![("timed_jobs", rates.len()), ("setup_jobs", setup.len())];
    let rate = summarize(rates);
    let setup = summarize(setup);
    let detail = vec![
        ("steps_per_s".to_string(), summary_json(&rate)),
        ("setup_s".to_string(), summary_json(&setup)),
        ("steps_per_job".to_string(), format!("{steps}")),
    ];
    Ok(Outcome {
        metrics: vec![
            ("steps_per_s".into(), rate.p50, "1/s"),
            ("setup_s".into(), setup.p50, "s"),
            ("peak_rss_mb".into(), rss, "MB"),
        ],
        detail,
        reps,
        ledger,
        correct,
    })
}

/// Mean over ranks of the last epoch's training loss.
fn final_loss(reports: &[TrainReport]) -> f64 {
    let sum: f64 = reports
        .iter()
        .map(|r| f64::from(r.epochs.last().map_or(f32::NAN, |e| e.train_loss)))
        .sum();
    sum / reports.len() as f64
}

fn rank_fingerprint(runs: &[replica::RankRun]) -> Fingerprint {
    runs.iter().map(|r| r.epochs.clone()).collect()
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let cfg = args.workload.config(args.seed);
    let mut ledger = Ledger::default();
    let mut reference = None;
    let mut trainer_walls = Vec::new();
    let mut replica_walls = Vec::new();
    let mut scratch_misses = None;
    let mut residual_norm = None;
    let mut loss = None;
    let mut plan_ms = Vec::new();
    // Per-step samples pooled over ranks and replica jobs, by name.
    let mut pool: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut total_step, mut total_children) = (0.0, 0.0);
    let mut replica_runs = 0usize;
    let mut matched_runs = 0usize;

    let started = Instant::now();
    loop {
        let job = trainer_job(&cfg);
        if let Some((reports, wall)) = ledger.record(job, |(r, _)| fingerprint(r), &mut reference) {
            trainer_walls.push(wall.as_secs_f64());
            loss.get_or_insert_with(|| final_loss(&reports));
            scratch_misses.get_or_insert_with(|| {
                reports
                    .iter()
                    .flat_map(|r| &r.epochs)
                    .map(|e| e.scratch_misses as f64)
                    .sum::<f64>()
            });
            residual_norm.get_or_insert_with(|| {
                reports
                    .iter()
                    .flat_map(|r| &r.epochs)
                    .map(|e| f64::from(e.residual_norm))
                    .fold(0.0, f64::max)
            });
        }
        if started.elapsed().as_secs_f64() >= args.seconds && replica_runs > 0 {
            break;
        }

        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| replica::run(&cfg)))
            .map_err(|_| "replica panicked".to_string())
            .and_then(|runs| {
                check_job(&cfg, &rank_fingerprint(&runs))?;
                Ok(runs)
            });
        let wall = t.elapsed().as_secs_f64();
        replica_runs += 1;
        if let Some(runs) = ledger.record(run, |r| rank_fingerprint(r), &mut reference) {
            matched_runs += 1;
            replica_walls.push(wall);
            plan_ms.extend(runs.iter().map(|r| r.plan_ms));
            let recorders: Vec<trace::Recorder> = runs.into_iter().map(|r| r.rec).collect();
            if matched_runs == 1 {
                let path = Path::new(OUT_DIR).join(format!(
                    "trace_{}_seed{}.jsonl",
                    args.workload.name(),
                    args.seed
                ));
                trace::write_jsonl(&path, &recorders)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!(
                    "perfbench: spans of the first traced job written to {}",
                    path.display()
                );
            }
            for row in trace::step_rows(&recorders) {
                let mut push = |name, v| pool.entry(name).or_default().push(v);
                for name in LAYER_SPANS {
                    push(name, row.self_ms.get(name).copied().unwrap_or(0.0));
                }
                for name in COUNTERS {
                    push(name, row.counters.get(name).copied().unwrap_or(0.0));
                }
                push("collectives.calls", row.calls as f64);
                push("collectives.wait", row.wait_ms);
                push(trace::STEP, row.step_ms);
                total_step += row.step_ms;
                total_children += row.children_ms;
            }
        }
    }

    let steps = pool.get(trace::STEP).map_or(0, Vec::len);
    let mut take = |name| summarize(pool.remove(name).unwrap_or_default());
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut detail = Vec::new();
    for name in LAYER_SPANS {
        let s = take(name);
        metrics.push((format!("{name}_ms"), s.p50, "ms"));
        metrics.push((format!("{name}_p99_ms"), s.p99, "ms"));
        detail.push((format!("{name}_ms"), summary_json(&s)));
    }
    metrics.push(("compress.k".into(), take("compress.k").p50, "count"));
    metrics.push((
        "compress.captured_mass".into(),
        take("compress.captured_mass").p50,
        "ratio",
    ));
    metrics.push((
        "collectives.calls".into(),
        take("collectives.calls").p50,
        "count",
    ));
    metrics.push((
        "collectives.inter_bytes".into(),
        take("collectives.inter_bytes").p50,
        "B",
    ));
    let wait = take("collectives.wait");
    metrics.push(("collectives.wait_ms".into(), wait.p50, "ms"));
    metrics.push(("collectives.wait_p99_ms".into(), wait.p99, "ms"));
    detail.push(("collectives.wait_ms".into(), summary_json(&wait)));
    metrics.push((
        "engine.scratch_misses".into(),
        scratch_misses.unwrap_or(0.0),
        "count",
    ));
    let plan = summarize(plan_ms);
    metrics.push(("engine.plan_ms".into(), plan.p50, "ms"));
    detail.push(("engine.plan_ms".into(), summary_json(&plan)));
    // What DistTrainer itself reports: the largest error-feedback residual
    // norm of any rank and epoch (0 when nothing is compressed).
    detail.push((
        "trainer.residual_norm".into(),
        num(residual_norm.unwrap_or(f64::NAN)),
    ));
    let step = take(trace::STEP);
    metrics.push(("engine.step_ms".into(), step.p50, "ms"));
    metrics.push(("engine.step_p99_ms".into(), step.p99, "ms"));
    detail.push(("engine.step_ms".into(), summary_json(&step)));

    let coverage = total_children / total_step.max(f64::MIN_POSITIVE);
    let overhead =
        summarize(replica_walls.clone()).p50 / summarize(trainer_walls.clone()).p50 - 1.0;
    let matches = ledger.failed == 0 && matched_runs > 0;
    metrics.push(("train.final_loss".into(), loss.unwrap_or(f64::NAN), "nats"));
    metrics.push(("trace.steps".into(), steps as f64, "count"));
    metrics.push(("trace.coverage".into(), coverage, "ratio"));
    metrics.push(("trace.overhead".into(), overhead, "ratio"));
    metrics.push((
        "trace.matches_trainer".into(),
        if matches { 1.0 } else { 0.0 },
        "flag",
    ));
    Ok(Outcome {
        metrics,
        detail,
        reps: vec![
            ("trainer_jobs", trainer_walls.len()),
            ("replica_jobs", replica_runs),
        ],
        correct: matches,
        ledger,
    })
}

/// The run's manifest. The benchmark always builds the library crates with
/// their default features, so the build is the scalar lane tier with serial
/// kernels.
fn manifest(args: &Args, cfg: &DistConfig, reps: &[(&str, usize)]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let reps: Vec<String> = reps.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
    format!(
        "{{\"manifest\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"features\":[],\"lane_tier\":\"scalar\",\"available_parallelism\":{cores},\"world\":{},\"nodes\":{},\"gpus_per_node\":{},\"world_exceeds_cores\":{},\"epochs\":{},\"iters_per_epoch\":{},\"repetitions\":{{{}}}}}}}",
        args.workload.name(),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        cfg.world(),
        cfg.nodes,
        cfg.gpus_per_node,
        cfg.world() > cores,
        cfg.epochs,
        cfg.iters_per_epoch,
        reps.join(","),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = args.workload.config(args.seed);
    if cfg.world() > std::thread::available_parallelism().map_or(0, |n| n.get()) {
        eprintln!(
            "perfbench: warning: {} worker threads exceed the core count",
            cfg.world()
        );
    }
    let outcome = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", manifest(&args, &cfg, &outcome.reps));
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let errors: Vec<String> = outcome
        .ledger
        .errors
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"detail\":{{{}}},\"errors\":{{{}}}}}",
        detail.join(","),
        errors.join(",")
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    let all_finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct && all_finite,
        outcome.ledger.attempted,
        outcome.ledger.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
