"""One pass of one workload, run in a fresh child process by run.py.

Usage: python3 worker.py --workload W --seed N --work DIR --result FILE
       [--trace 0|1] [--spawned T] [--setup-only]

Set-up (import of cutoff_lab, numpy and scipy; writing the seed's inputs)
ends at ``ready``; ``--spawned`` is the parent's ``time.monotonic()`` just
before it started this process, so ``ready - spawned`` is the set-up time.
The ops then run one after another, each starting when the previous one
has finished.  The result file holds per-op times, exit codes, errors and
pipeline values, the pass wall time and the peak RSS; with ``--trace 1``
also the per-module metrics, and the spans are written next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cutoff_lab as cl                 # noqa: E402
from cutoff_lab import cli              # noqa: E402

if not cl.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"cutoff_lab imported from {cl.__file__}, not from {ROOT}/src")

import workloads                        # noqa: E402


def pipeline(spec: str) -> dict:
    """The cutoff-ratio experiment on one instance, through the library."""
    inst = cl.parse_family_spec(spec)
    P = inst.matrix
    starts = inst.starts
    pi = cl.stationary(P)
    metric = cl.metric_data(P)
    t_rel = cl.relaxation_time(P).t_rel
    t25 = cl.mixing_time(P, 0.25, starts=starts)
    t75 = cl.mixing_time(P, 0.75, starts=starts)
    d = cl.d_star_at(P, t25, starts=starts, pi=pi)
    v = cl.v_star_at(P, t25, starts=starts, pi=pi)
    return {"n": P.n, "delta": metric.delta, "diam": metric.diameter,
            "pi_max_dev": float(abs(pi.probs - 1.0 / P.n).max()),
            "t_rel": t_rel, "tmix_0.25": t25, "tmix_0.75": t75,
            "d_star": d, "v_star": v, "ratio": t25 / t75,
            "sparse_condition": t25 / (t_rel * math.log(metric.delta)) ** 2}


def _raised_in(exc: BaseException) -> str:
    """Innermost function of the traceback, e.g. ``chain.poisson_weights``."""
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return "?"
    f = frames[-1]
    return f"{os.path.splitext(os.path.basename(f.filename))[0]}.{f.name}"


def run_op(op: dict) -> dict:
    rec = {"name": op["name"], "rc": None, "error": None, "values": None}
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op["kind"] == "cli":
                rec["rc"] = cli.main(op["argv"])
            else:
                rec["values"] = pipeline(op["spec"])
                rec["rc"] = 0
    except Exception as exc:            # noqa: BLE001 - an op failure is data
        rec["error"] = {"type": type(exc).__name__, "message": str(exc),
                        "raised_in": _raised_in(exc)}
    rec["seconds"] = time.perf_counter() - t0
    return rec


def snapshot(op: dict, directory: str):
    """Copy the op's output files, which a later op may overwrite."""
    os.makedirs(directory, exist_ok=True)
    for name in workloads.OUTPUT_FILES:
        path = os.path.join(op.get("out", ""), name)
        if os.path.exists(path):
            shutil.copyfile(path, os.path.join(directory, name))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawned", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; report only setup_s")
    args = ap.parse_args(argv)

    shutil.rmtree(args.work, ignore_errors=True)
    workloads.make_inputs(args.workload, args.seed, args.work)
    op_list = workloads.ops(args.workload, args.seed, args.work)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    setup_s = ready - args.spawned if args.spawned is not None else None
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    records = []
    for i, op in enumerate(op_list):
        records.append(run_op(op))
        snapshot(op, os.path.join(args.work, "snap", str(i)))
    wall = sum(r["seconds"] for r in records)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "wall_s": wall,
              "setup_s": setup_s,
              "peak_rss_mb": peak_kib / 1024.0, "ops": records}
    if tracer is not None:
        tracer.uninstall()
        result["modules"] = tracer.metrics()
        tracer.write(os.path.splitext(args.result)[0] + ".spans.json")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
