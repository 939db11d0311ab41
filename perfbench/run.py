"""fusionlab benchmark: every workload pass in fresh worker processes, every
result checked, end-to-end or per-layer metrics on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds nothing and imports
fusionlab from the checkout's src/. One caller, closed loop: passes run one
after another until --seconds have gone by (at least MIN_PASSES of them).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from oracle import Mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 20  # set-up-only workers per run, besides each pass's own
MIN_PASSES = 3
CLI_MIN_SAMPLES = 100  # so the cli tail is always read at p90
SLICE_CALLS = 60  # subprocess calls per run on the library workloads
SESSION_TIMEOUT = 150.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "cli_p50_ms": "ms",
    "cli_tail_ms": "ms",
}


class HarnessError(Exception):
    """The benchmark itself cannot run here."""


def child_env(workload: str, seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).hexdigest()
    env["PYTHONHASHSEED"] = str(int(digest, 16) % 2**32)
    return env


def run_child(argv, env, timeout, start=None):
    """Run argv to completion or until timeout: exit code, stdout, stderr,
    seconds from start, and the child's peak RSS in MiB."""
    start = time.monotonic() if start is None else start
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.monotonic()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    out, err = (b"".join(chunks[p]).decode("utf-8", "replace") for p in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, seconds, usage.ru_maxrss / 1024


def charged(op) -> float:
    """A failed call costs its whole limit, so it misses any limit."""
    return op["limit"] if op["error"] else op["seconds"]


def session(workload, seed, part, trace=False, small=False, inject="-"):
    """One worker process: its set-up time, calls, peak RSS and traces."""
    start = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), part,
            str(int(trace)), str(int(small)), inject, repr(start)]
    code, out, err, _, rss = run_child(argv, child_env(workload, seed), SESSION_TIMEOUT, start)
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not records or "plan" not in records[0]:
        raise HarnessError(f"{part} worker failed before its plan (exit {code}): {err.strip()[-800:]}")
    done = {r["op"]: r for r in records if "op" in r}
    end = records[-1] if "late" in records[-1] else None
    last = err.strip().splitlines()[-1] if err.strip() else ""
    ops = []
    for i, (name, limit) in enumerate(records[0]["plan"]):
        r = done.get(i)
        ops.append({
            "name": name,
            "limit": limit,
            "seconds": r["seconds"] if r else limit,
            "error": r["error"] if r else f"worker ended first (exit {code}) {last}"[:300],
        })
    for i, why in end["late"] if end else ():
        ops[i]["error"] = ops[i]["error"] or why
    return {
        "setup_s": records[0]["setup_s"],
        "ops": ops,
        "rss_mb": end["rss_mb"] if end else rss,
        "layers": end["layers"] if end else None,
    }


def library_pass(workload, seed, trace=False, small=False, inject="-"):
    runs = [session(workload, seed, part, trace, small, inject) for part in workloads.PARTS[workload]]
    ops = [op for r in runs for op in r["ops"]]
    layers = [r["layers"] for r in runs if r["layers"]]
    return {
        "wall": sum(charged(op) for op in ops),
        "rss": max(r["rss_mb"] for r in runs),
        "ops": ops,
        "setups": [r["setup_s"] for r in runs],
        "layers": spans.combine(layers) if layers else None,
    }


def cli_call(argv, check, env):
    code, out, err, seconds, rss = run_child(
        [sys.executable, "-m", "fusionlab.cli", *argv], env, workloads.CLI_LIMIT
    )
    error = None
    if seconds > workloads.CLI_LIMIT:
        error = f"over its {workloads.CLI_LIMIT} s limit"
    elif "Traceback" in err:
        error = f"crashed (exit {code}, {len(out)} bytes of stdout): {err.strip().splitlines()[-1]}"
    else:
        try:
            check(argv, code, out, err)
        except Mismatch as e:
            error = f"wrong output: {e}"
    name = "fusion " + " ".join(argv)
    return {"name": name, "limit": workloads.CLI_LIMIT, "seconds": seconds, "error": error, "rss": rss}


def cli_pass(calls, env):
    ops = [cli_call(argv, check, env) for argv, check in calls]
    return {"wall": sum(charged(op) for op in ops), "rss": max(op["rss"] for op in ops), "ops": ops, "setups": []}


def tail(samples):
    """(percentile, value): the highest listed percentile with at least 10
    samples beyond it, read by nearest rank."""
    n = len(samples)
    p = max((q for q in PERCENTILES if n * (100 - q) / 100 >= 10), default=50)
    return p, sorted(samples)[max(0, math.ceil(p / 100 * n) - 1)]


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def op_medians(passes) -> float:
    """Sum over a pass's calls of each call's median charged time across
    passes; a burst of machine noise then moves one call's sample, not a
    whole pass."""
    return sum(
        statistics.median(charged(p["ops"][i]) for p in passes) for i in range(len(passes[0]["ops"]))
    )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(last-line result, detail record) of one run."""
    env = child_env(workload, seed)
    session(workload, seed, "setup")  # writes bytecode caches; not counted
    rng = random.Random(f"{workload}:{seed}:cli")
    calls = workloads.cli_round(ROOT, rng) if workload == "cli" else workloads.cli_slice(workload, rng)
    setups, extra, passes, traced, spawned = [], [], [], [], []
    detail = {"workload": workload, "env": {**environment(seed), "hashseed": env["PYTHONHASHSEED"]}}
    # set-up samples and CLI latency calls are spread between the passes,
    # so no single stretch of machine noise decides a metric
    jobs = []
    if not trace:
        setup_jobs = [lambda: setups.append(session(workload, seed, "setup")["setup_s"])] * SETUP_SAMPLES
        slice_jobs = [] if workload == "cli" else [
            lambda argv=argv, check=check: extra.append(cli_call(argv, check, env))
            for argv, check in itertools.islice(itertools.cycle(calls), SLICE_CALLS)
        ]
        jobs = [j for pair in itertools.zip_longest(setup_jobs, slice_jobs) for j in pair if j]
    chunk = math.ceil(len(jobs) / MIN_PASSES)

    def enough():
        done = len(traced) >= 2 if trace else len(passes) >= MIN_PASSES
        if workload == "cli" and not trace:
            done = done and len(passes) * len(calls) >= CLI_MIN_SAMPLES
        return done and time.monotonic() >= deadline

    if trace:
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        if workload == "cli":
            spawned = cli_pass(calls, env)["ops"]
    deadline = time.monotonic() + seconds
    while not enough():
        if trace:
            passes.append(library_pass(workload, seed))
            traced.append(library_pass(workload, seed, trace=True))
        else:
            passes.append(cli_pass(calls, env) if workload == "cli" else library_pass(workload, seed))
        for job in jobs[:chunk]:
            job()
        del jobs[:chunk]
    for job in jobs:
        job()

    if trace:
        layer_runs = [p["layers"] for p in traced]
        metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        metrics["trace.wall_s"] = op_medians(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - op_medians(passes)
        metrics["cli.spawn_s"] = 0.0
        if spawned:
            in_process = [op["seconds"] for p in passes for op in p["ops"] if not op["error"]]
            ok_spawned = [op["seconds"] for op in spawned if not op["error"]]
            metrics["cli.spawn_s"] = statistics.median(ok_spawned) - statistics.median(in_process)
        sound = all(p["layers"]["trace.self_sum_s"] <= p["wall"] + 1e-6 for p in traced)
        all_ops = [op for p in passes + traced for op in p["ops"]] + spawned
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        values = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        detail["samples"] = {"traced_passes": len(traced), "untraced_passes": len(passes)}
        detail["self_times_within_wall"] = sound
    else:
        if workload == "cli":
            extra = [cli_call(*workloads.cli_probe(), env)]
            latency_ops = [op for p in passes for op in p["ops"]] + extra
        else:
            latency_ops = extra
        setups += [s for p in passes for s in p["setups"]]
        latencies = [charged(op) * 1000 for op in latency_ops]
        percentile, tail_ms = tail(latencies)
        all_ops = [op for p in passes for op in p["ops"]] + extra
        probe_cost = sum(charged(op) for op in extra) if workload == "cli" else 0.0
        failed = sum(1 for op in all_ops if op["error"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": op_medians(passes) + probe_cost,
            "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            "ok_frac": 1 - failed / len(all_ops),
            "cli_p50_ms": statistics.median(latencies),
            "cli_tail_ms": tail_ms,
        }
        values = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        sound = True
        detail["samples"] = {
            "setup_s": len(setups),
            "wall_s": len(passes),
            "peak_rss_mb": len(passes),
            "ok_frac": len(all_ops),
            "cli_p50_ms": len(latencies),
            "cli_tail_ms": len(latencies),
        }
        detail["cli_tail_percentile"] = percentile
        detail["fail_frac"] = failed / len(all_ops)
    detail["passes"] = [[round(p["wall"], 4), round(p["rss"], 1)] for p in passes]

    failures = sorted({f"{op['name']}: {op['error']}" for op in all_ops if op["error"]})
    wrong = any(op["error"].startswith("wrong") for op in all_ops if op["error"])
    detail["failures"] = failures
    result = {
        "correct": sound and not wrong,
        "attempted": len(all_ops),
        "failed": sum(1 for op in all_ops if op["error"]),
        "metrics": values,
    }
    return result, detail


def report(results: dict, details: dict) -> None:
    """Every metric of every workload, with unit and sample count."""
    for name, res in results.items():
        d = details[name]
        print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        if "fail_frac" in d:
            print(f"   {'fail_frac':<44} {d['fail_frac']:>14.6g} {'ratio':<6} n={res['attempted']}")
        samples = d["samples"]
        for metric, v in res["metrics"].items():
            n = samples.get(metric, samples.get("traced_passes"))
            at = f" at p{d['cli_tail_percentile']}" if metric == "cli_tail_ms" else ""
            print(f"   {metric:<44} {v['value']:>14.6g} {v['unit']:<6} n={n}{at}")
        for line in d["failures"]:
            print(f"   failed: {line[:160]}")
    print(json.dumps(next(iter(details.values()))["env"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/fusionlab/__init__.py", "tests/make_goldens.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a fusionlab checkout: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results, details = {}, {}
    try:
        for name in names:
            results[name], details[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except HarnessError as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        report(results, details)
        print(json.dumps(results))
    else:
        print(json.dumps(details[args.workload]))
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
