"""dynpers benchmark: real CLI requests end to end, module layers by traced calls.

    python3 bench/run.py --workload dense-2d --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --trace 1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (it repeats the untraced passes with spans recorded).  Both
check every output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric with its unit and the run's provenance.  See README.md next to
this file for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.pycache_prefix = str(WORK / "pycache")

import numpy as np  # noqa: E402  (after the thread variables are pinned)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while the benchmark was written; re-check claims on it
SETUP_LAUNCHES = 7
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = (
    ("throughput_vps", "vertices/s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
    ("setup_s", "s"),
)
CLI_COMMANDS = ("segment", "saliency", "curve", "pairs", "filter", "watershed", "verify")
LAYERS = tuple(f"{m}.{f}" for m, fns in spans.TRACED.items() for f in fns) + (
    "grid.ScalarField",
    "grid.neighbor_lists",
)
COUNTS = (
    ("formats.bytes_in", "bytes"),
    ("formats.bytes_out", "bytes"),
    ("grid.vertices", "count"),
    ("grid.edges", "count"),
    ("pairing.minima", "count"),
    ("pairing.merge_events", "count"),
    ("pairing.multiway_saddles", "count"),
    ("pathdyn.dynamics_oracle.calls", "count"),
    ("equivalence.fields", "count"),
    ("morphology.cancelled_pairs", "count"),
    ("morphology.raised_vertices", "count"),
    ("morphology.basin_pairs", "count"),
)


def per_layer_specs():
    """Every per-layer metric as (name, unit), in output order."""
    out = [("cli.self_ms", "ms")]
    out += [(f"cli.{c}.ms", "ms") for c in CLI_COMMANDS]
    out += [(f"{layer}.ms", "ms") for layer in sorted(LAYERS)]
    out += list(COUNTS)
    out += [(f"{layer}.exponent", "slope") for layer in ("cli",) + tuple(sorted(LAYERS))]
    out.append(("trace.overhead_frac", "fraction"))
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> float:
    """Median time from launching a fresh interpreter to dynpers.cli imported and its parser built.

    The child reports when it is ready on the system-wide monotonic clock.
    Timing the parent's wait instead would add interpreter teardown and the
    up to 50 ms that ``subprocess`` sleeps between polls while waiting with a
    timeout, which made the figure jump in 50 ms steps.
    """
    code = "import time, dynpers.cli as c; c.build_parser(); print(time.monotonic())"
    argv = [sys.executable, "-c", code]
    times = []
    for k in range(SETUP_LAUNCHES + 1):  # the first launch only fills the bytecode cache
        t0 = time.monotonic()
        proc = subprocess.run(argv, env=child_env(), check=True, timeout=60,
                              capture_output=True, text=True)
        if k:
            times.append(float(proc.stdout) - t0)
    return statistics.median(times)


def probe_known_defect(seed: int, run_dir: Path) -> dict:
    """Watershed labels are vertex ids, so pgm-2d output fails past 65536 vertices.

    Run once per smooth-2d run, outside the measured passes, on a 257x257
    field: the README documents the cause, and this records whether it still
    reproduces.
    """
    rng = np.random.default_rng([seed, 99])
    fld = workloads.Field("probe-257", (257, 257), "axis", rng.uniform(0.0, 1.0, 257 * 257),
                          "field-nd", "2d-axis")
    workloads.write_input(run_dir / fld.filename, fld)
    code = "import sys, dynpers.cli as c; sys.exit(c.main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "watershed", fld.filename, "--output", "probe.pgm"],
        cwd=run_dir, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    return {"request": "watershed on a 257x257 field", "exit_code": proc.returncode,
            "stderr": proc.stderr.strip()[-300:], "reproduces": proc.returncode != 0}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dynpers").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def exponents(reqs, self_time, passes):
    """Log-log slope of self time per request against vertices per field.

    Between the smallest and the largest input of the family (grid kind) of
    the workload's smallest input; 0 when the layer did no work at either end.
    """
    family = min(reqs, key=lambda r: r.size).family
    sizes = sorted({r.size for r in reqs if r.family == family})
    lo, hi = sizes[0], sizes[-1]
    out = {}
    layers = {name for (_, name) in self_time}
    for layer in layers:
        per_size = {}
        for s in (lo, hi):
            group = [r.rid for r in reqs if r.family == family and r.size == s]
            total = sum(self_time.get((rid, layer), 0.0) for rid in group)
            per_size[s] = total / (len(group) * passes)
        if hi > lo and per_size[lo] > 0 and per_size[hi] > 0:
            out[layer] = math.log(per_size[hi] / per_size[lo]) / math.log(hi / lo)
    return out


def layer_metrics(reqs, worker, passes):
    self_time = {(rid, name): s for rid, name, s in worker["self_time"]}
    counts = {}
    for rid, name, c in worker["counts"]:
        counts[name] = counts.get(name, 0) + c
    ms = {}
    for (rid, name), s in self_time.items():
        key = name if name != spans.ROOT else f"cli.{reqs[rid].cmd}"
        ms[key] = ms.get(key, 0.0) + 1000.0 * s / passes
    slopes = exponents(reqs, self_time, passes)
    untraced = sum(o["latency"] for p in worker["untraced"] for o in p)
    traced = sum(o["latency"] for p in worker["traced"] for o in p)
    metrics = {}
    for name, unit in per_layer_specs():
        if name == "cli.self_ms":
            value = sum(ms.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS)
        elif name.endswith(".ms"):
            value = ms.get(name[:-3], 0.0)
        elif name.endswith(".exponent"):
            value = slopes.get(name[: -len(".exponent")], 0.0)
        elif name == "trace.overhead_frac":
            value = traced / untraced - 1.0
        else:
            value = counts.get(name, 0) / passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def check_outputs(fields, reqs, run_dir: Path) -> dict:
    """Failure message per request id, from the first pass's outputs."""
    out = run_dir / "out" / "first"
    failures = {}
    for fld in fields:
        outputs = {r.rid: (r, out / f"{r.rid}.out") for r in reqs if r.field is fld}
        failures.update(checks.check_field(fld, outputs))
    for r in reqs:
        if r.cmd == "verify":
            msg = checks.check_verify(r, out / f"{r.rid}.out")
            if msg:
                failures[r.rid] = msg
    return failures


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    fields, reqs = workloads.build(name, seed)
    run_dir = WORK / f"run-{name}-{seed}-{os.getpid()}"
    results_dir = WORK / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        for fld in fields:
            workloads.write_input(run_dir / fld.filename, fld)
        setup_s = None if trace else measure_setup()
        plan = {
            "src": str(SRC),
            "seconds": seconds,
            "trace": trace,
            "spans_path": str(results_dir / f"{stem}.spans.json"),
            "requests": [{"rid": r.rid, "argv": r.argv} for r in reqs],
        }
        (run_dir / "plan.json").write_text(json.dumps(plan))
        budget = RUN_LIMIT_S - (time.monotonic() - started) - 15
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "plan.json", "worker.json"],
                cwd=run_dir, env=child_env(), timeout=max(budget, 1),
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"bench: {name}: worker did not finish within {budget:.0f} s")
        if proc.returncode != 0:
            raise SystemExit(f"bench: {name}: worker exited with {proc.returncode}")
        worker = json.loads((run_dir / "worker.json").read_text())
        check_failures = check_outputs(fields, reqs, run_dir)
        defect = probe_known_defect(seed, run_dir) if name == "smooth-2d" else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    def failure(o):
        if o["rc"] != 0:
            return f"exit code {o['rc']}: {o['stderr'].strip()}"
        if not o["same"]:
            return "output differs from the first pass"
        return check_failures.get(o["rid"])

    executions = [o for p in worker["untraced"] + worker.get("traced", []) for o in p]
    failed = [(o["rid"], why) for o in executions if (why := failure(o))]
    passes = worker["untraced"]
    # A request's latency is the fastest of its repetitions, one per pass.
    # The shared host only ever slows the program down, by up to 1.8x for
    # minutes at a time, so the fastest of ~15 repetitions spread over the run
    # is the steadiest estimate of the program's own cost (README.md has the
    # measurements).  Percentiles weigh every request of the list equally.
    typical = [min(p[i]["latency"] for p in passes) for i in range(len(reqs))]
    tail_pct = workloads.TAIL_PERCENTILE[name]
    tail_s = float(np.percentile(typical, tail_pct))
    tail_beyond = len(passes) * sum(1 for m in typical if m > tail_s)
    completed = [all(not failure(p[i]) for p in passes) for i in range(len(reqs))]
    throughput = sum(r.vertices for r, ok in zip(reqs, completed) if ok) / sum(typical)

    if trace:
        metrics = layer_metrics(reqs, worker, len(passes))
    else:
        values = {
            "throughput_vps": throughput,
            "request_p50_ms": 1000.0 * float(np.percentile(typical, 50)),
            "request_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
            "success_rate": 1.0 - len(failed) / len(executions),
            "setup_s": setup_s,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}

    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process, requests are dynpers.cli.main(argv) calls",
        "passes": len(passes),
        "requests_per_pass": len(reqs),
        "requests": len(executions),
        "request_tail": {"percentile": tail_pct, "beyond": tail_beyond,
                         "of": len(passes) * len(reqs)},
        "worker_import_s": worker["import_s"],
        "inputs": [
            {"name": f.name, "shape": list(f.shape), "connectivity": f.connectivity,
             "vertices": f.n, "minima": int(f.facts["minima"].size), "edges": f.facts["edges"]}
            for f in fields
        ],
        "verify": [
            {"shape": r.params["shape"], "trials": r.params["trials"], "seeds": r.params["seeds"]}
            for r in reqs if r.cmd == "verify"
        ],
        "known_defect": defect,
        "failures": [{"request": reqs[rid].label, "reason": why} for rid, why in failed[:20]],
    }
    result = {"correct": not failed, "attempted": len(executions), "failed": len(failed),
              "metrics": metrics}
    latencies = [[o["latency"] for o in p] for p in passes]
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"result": result, "provenance": provenance, "latencies_s": latencies}, indent=1
    ))
    return {"result": result, "provenance": provenance}


def report(name: str, outcome: dict) -> None:
    result, prov = outcome["result"], outcome["provenance"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {prov['seed']}  passes {prov['passes']} x "
          f"{prov['requests_per_pass']} requests  checks: {attempted - failed} passed, "
          f"{failed} failed")
    for key, metric in result["metrics"].items():
        note = ""
        if key == "request_tail_ms":
            t = prov["request_tail"]
            note = f"  (p{t['percentile']}: {t['beyond']} of {t['of']} requests beyond)"
        print(f"  {key:42s} {metric['value']:.6g} {metric['unit']}{note}")
    if not prov["trace"]:
        print(f"  {'error_rate':42s} {failed / attempted:.6g} fraction  ({failed} of {attempted})")
    if prov["known_defect"] is not None:
        d = prov["known_defect"]
        state = "reproduces" if d["reproduces"] else "no longer reproduces"
        print(f"  known defect {state}: {d['request']} exits {d['exit_code']} {d['stderr']}")
    for f in prov["failures"]:
        print(f"  FAILED {f['request']}: {f['reason']}", file=sys.stderr)
    print("provenance " + json.dumps(prov, separators=(",", ":")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=55, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "dynpers" / "cli.py").is_file():
        print(f"bench: no dynpers sources at {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, outcomes[name])
    if len(names) == 1:
        final = outcomes[names[0]]["result"]
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outcomes.values()),
            "attempted": sum(o["result"]["attempted"] for o in outcomes.values()),
            "failed": sum(o["result"]["failed"] for o in outcomes.values()),
            "metrics": {f"{n}.{k}": v for n, o in outcomes.items()
                        for k, v in o["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
