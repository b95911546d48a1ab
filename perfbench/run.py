#!/usr/bin/env python3
"""Builds and runs the DistTrainer benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck [--seconds <s>]

The first form builds `perfbench` from source with cargo (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload and prints the
run's manifest, its detail line and, as the last line, the result object.
It checks that the printed metrics are exactly those BENCHMARK.json names.

The second form runs the benchmark's self-checks on every workload.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
LAYER_MAP = os.path.join(HERE, "layers.json")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(BENCHMARK) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Builds the release binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def tool_output(cmd, cwd=ROOT):
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_manifest():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_revision": tool_output(["git", "rev-parse", "HEAD"]),
        "rustc": tool_output(["rustc", "--version"]),
        "cargo": tool_output(["cargo", "--version"]),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def expected_metrics(spec, trace):
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def check_layer_map(spec):
    """Every per-layer metric names the end-to-end metric it should move."""
    try:
        with open(LAYER_MAP) as f:
            moves = json.load(f)["moves"]
    except (OSError, ValueError, KeyError) as e:
        return [f"cannot read layers.json: {e}"]
    e2e = {m["name"] for m in spec["end_to_end"]} | {"none"}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    for m in spec["per_layer"]:
        entry = moves.get(m["name"])
        if entry is None:
            problems.append(f"layers.json has no entry for {m['name']}")
        elif entry["metric"] not in e2e or not set(entry["on"]) <= workloads:
            problems.append(f"layers.json entry for {m['name']} names an unknown metric or workload")
    return problems


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs the binary once; returns (result, manifest, other stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"perfbench exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
        others = [json.loads(line) for line in lines[:-1]]
    except ValueError as e:
        fail(f"unparseable output: {e}")
    manifest = next((o["manifest"] for o in others if "manifest" in o), {})
    manifest.update(host_manifest())
    rest = [o for o in others if "manifest" not in o]

    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    want = expected_metrics(spec, trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"extra {extra}, unit mismatch {units}")
    if problems:
        fail("; ".join(problems), code=3)
    return result, manifest, rest


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}", code=2)
    binary = build()
    result, manifest, rest = run_once(binary, spec, args.workload, args.seed,
                                      args.seconds, args.trace)
    if manifest.get("world_exceeds_cores"):
        print("perfbench: warning: world size exceeds the core count", file=sys.stderr)
    for other in rest:
        print(json.dumps(other))
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))


# Values that must repeat exactly for a given seed.
EXACT = ["train.final_loss", "compress.k", "collectives.calls", "collectives.inter_bytes",
         "engine.scratch_misses", "trace.matches_trainer"]
DENSE = ["tf_dense_perlayer"]


def step_share(metrics, prefixes):
    part = sum(v["value"] for k, v in metrics.items()
               if k.endswith("_ms") and not k.endswith("_p99_ms")
               and k.split(".")[0] in prefixes and k != "collectives.wait_ms")
    return part / metrics["engine.step_ms"]["value"]


def cmd_selfcheck(args):
    spec = load_spec()
    problems = check_layer_map(spec)
    binary = build()
    seed = 7
    traced = {}
    residual = {}
    for w in [w["name"] for w in spec["workloads"]]:
        outs = [run_once(binary, spec, w, seed, args.seconds, t) for t in (0, 1, 1)]
        runs = [o[0] for o in outs]
        t = runs[1:]
        residual[w] = next(o["detail"]["trainer.residual_norm"] for o in outs[1][2] if "detail" in o)
        for r in runs:
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: a run was not correct ({r['failed']} failed)")
        for name in EXACT:
            vals = [r["metrics"][name]["value"] for r in t]
            if vals[0] != vals[1]:
                problems.append(f"{w}: {name} differs between invocations: {vals}")
        m = t[0]["metrics"]
        if m["trace.matches_trainer"]["value"] != 1:
            problems.append(f"{w}: the replica does not match DistTrainer")
        if m["trace.coverage"]["value"] < 0.95:
            problems.append(f"{w}: trace.coverage {m['trace.coverage']['value']:.3f} < 0.95")
        traced[w] = m
        print(f"{w}: final_loss {m['train.final_loss']['value']:.6g}, coverage {m['trace.coverage']['value']:.3f}, "
              f"step {m['engine.step_ms']['value']:.3f} ms", file=sys.stderr)
    # DistTrainer's own report: error feedback holds a residual only where
    # the gradient is compressed.
    for w, norm in residual.items():
        if (norm == 0) != (w in DENSE):
            problems.append(f"{w}: DistTrainer's residual norm is {norm}")
    shares = {w: step_share(m, {"collectives"}) for w, m in traced.items()}
    owner = "tf_dense_perlayer"
    if owner in shares and max(shares, key=shares.get) != owner:
        problems.append(f"collectives do not have their largest step share on {owner}: {shares}")
    for p in problems:
        print(f"selfcheck: FAIL: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("selfcheck: all checks passed", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if args.selfcheck:
        if args.seconds is None:
            args.seconds = 2
        cmd_selfcheck(args)
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    cmd_run(args)


if __name__ == "__main__":
    main()
