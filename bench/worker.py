"""One benchmark client: a fresh process that sends requests in a closed loop.

Usage: ``python3 worker.py <plan.json> <result.json>``, started by run.py with
``PYTHONPATH`` naming the checkout's ``src`` and its working directory holding
the input files.  Each request is one ``dynpers.cli.main(argv)`` call that
reads its input file and writes its output file as the ``dynpers`` executable
does; the next request starts when the previous one has returned.

The plan's request list is one pass.  Passes repeat while another one still
fits in the time budget (at least one pass).  The first pass keeps its
outputs for run.py to check; every later output must be byte-identical to
the first one of the same request.  With tracing on, the same number of
passes is repeated with spans recorded, after the untraced passes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _digest(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _call(main, argv, stderr):
    """Exit code of one request; an escaped exception is reported, not raised."""
    with contextlib.redirect_stderr(stderr):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the run continues; the failure is counted
            print(f"uncaught {type(exc).__name__}: {exc}", file=stderr)
            return -1


def run_passes(main, requests, budget, passes, first, tracer=None):
    """Closed loop over ``requests``; returns one list of outcomes per pass.

    ``first`` maps request id to the first pass's output digest; it is filled
    in by the first pass when empty.  Runs ``passes`` passes if given,
    otherwise passes while another one is expected to end within ``budget``.
    """
    clock = time.perf_counter
    out_first, out_again = Path("out/first"), Path("out/again")
    out_first.mkdir(parents=True, exist_ok=True)
    out_again.mkdir(parents=True, exist_ok=True)
    results = []
    start = clock()
    last = 0.0
    while True:
        if passes is not None and len(results) == passes:
            break
        if passes is None and results and clock() - start + last > budget:
            break
        pass_start = clock()
        outcomes = []
        for req in requests:
            rid = req["rid"]
            keep = rid not in first
            out = (out_first if keep else out_again) / f"{rid}.out"
            argv = req["argv"] + ["--output", str(out)]
            stderr = io.StringIO()
            gc.collect()
            if tracer is not None:
                tracer.request = rid
            t0 = clock()
            rc = _call(main, argv, stderr)
            latency = clock() - t0
            digest = _digest(out)
            if keep:
                first[rid] = digest
                same = True
            else:
                same = digest == first[rid]
                out.unlink(missing_ok=True)
            outcomes.append({"rid": rid, "latency": latency, "rc": rc, "same": same,
                             "stderr": stderr.getvalue()[-400:]})
        results.append(outcomes)
        last = clock() - pass_start
    return results


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])
    t0 = time.perf_counter()
    import dynpers
    import dynpers.cli

    import_s = time.perf_counter() - t0
    src = Path(plan["src"]).resolve()
    if src not in Path(dynpers.__file__).resolve().parents:
        print(f"worker: dynpers imported from {dynpers.__file__}, not from {src}", file=sys.stderr)
        return 2

    requests = plan["requests"]
    first = {}
    untraced_budget = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    untraced = run_passes(dynpers.cli.main, requests, untraced_budget, None, first)
    result = {"import_s": import_s, "untraced": untraced,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        root = tracer.install()
        result["traced"] = run_passes(root, requests, None, len(untraced), first, tracer)
        result["self_time"] = [[rid, name, s] for (rid, name), s in tracer.self_time.items()]
        result["counts"] = [[rid, name, c] for (rid, name), c in tracer.counts.items()]
        Path(plan["spans_path"]).write_text(json.dumps(tracer.span_dicts()))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
