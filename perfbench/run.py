"""cutoff-lab benchmark: one workload, closed loop, outputs checked.

    python3 perfbench/run.py --workload general-long --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  A pass runs every op of the workload once,
in order, each op starting when the previous one has finished (one client),
in a fresh worker process (worker.py) so that each pass pays the import and
input set-up a user pays.  Passes repeat until the pass boundary nearest to
``--seconds`` (at least one pass); every op's outputs are checked after
each pass (check.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the passes; each pass is preceded by a worker that only sets up, so
``setup_s`` has two samples per pass.  ``--trace 1`` alternates untraced and traced passes and
reports the per-module metrics of the traced ones (tracing.py), plus
``trace.overhead_s``, the traced minus the untraced median pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Before it come the
environment record, the failure log and, with tracing, the per-module
table.  The full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0          # every run must end within 180 s
BLAS_THREADS = 1             # fixed for the worker; at most nproc

sys.path.insert(0, HERE)


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def environment(seed: int, workload: str, trace: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:                   # noqa: BLE001 - record only
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cutoff_lab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": workload, "seed": seed, "trace": trace}


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        import check
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(STATE, "work", f"{workload}-{os.getpid()}")
        self.checker = check.Checker(seed)
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.attempted = self.failed = 0
        self.correct = True
        self.failures = []
        self.passes = {0: [], 1: []}
        self.setups = []

    def _worker(self, result: str, *extra) -> dict:
        """Run worker.py to completion and return its result file."""
        os.makedirs(self.work, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", os.path.join(self.work, "pass"), "--result", result,
               *extra]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)],
                                env=self.env, stdout=subprocess.DEVNULL)
        try:
            rc = proc.wait(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker exceeded the run's time limit") from None
        finally:
            if proc.poll() is None:     # timeout or interrupt: stop it
                proc.kill()
                proc.wait()
        if rc != 0:
            raise RuntimeError(f"worker exited with code {rc}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def setup_probe(self):
        """One more set-up sample: a worker that stops before the ops."""
        res = self._worker(os.path.join(self.work, "setup.json"),
                           "--setup-only")
        self.setups.append(res["setup_s"])

    def run_pass(self, trace: int) -> dict:
        import workloads
        index = len(self.passes[0]) + len(self.passes[1])
        work = os.path.join(self.work, "pass")
        result = os.path.join(self.work, f"pass-{index}.json")
        res = self._worker(result, "--trace", str(trace))
        if not trace:
            self.setups.append(res["setup_s"])
        spans = os.path.splitext(result)[0] + ".spans.json"
        if trace and not self.passes[1]:
            os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
            shutil.move(spans, os.path.join(
                STATE, "results", f"{self.workload}-seed{self.seed}.spans.json"))
        ops = workloads.ops(self.workload, self.seed, work)
        for i, (op, rec) in enumerate(zip(ops, res["ops"])):
            self._judge(op, rec, os.path.join(work, "snap", str(i)), index)
        self.passes[trace].append(res)
        return res

    def _judge(self, op: dict, rec: dict, snap: str, index: int):
        """An op fails if it raises, exits with a code other than 0 (or 3,
        a failed verdict, for verify), or its outputs fail the check."""
        self.attempted += 1
        entry = {"pass": index, "op": op["name"],
                 "command": op.get("argv") or ["pipeline", op["spec"]]}
        ok_codes = (0, 3) if op.get("argv", [""])[0] == "verify" else (0,)
        if rec["error"] is not None:
            entry.update(rec["error"])
        elif rec["rc"] not in ok_codes:
            entry.update(type="ExitCode", message=f"exit {rec['rc']}",
                         raised_in="cli.main")
        else:
            try:
                problems = self.checker.check(op, rec, snap)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                problems = [f"malformed output: {exc!r}"]
            if not problems:
                return
            self.correct = False
            entry.update(type="OutputMismatch", message="; ".join(problems[:5]),
                         raised_in="check", mismatches=len(problems))
        self.failed += 1
        self.failures.append(entry)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _pass_wall(passes: list) -> float:
    """Wall time of one pass: the sum over ops of each op's median time
    over the passes, so that from three passes on a slow spell of the
    machine during one op of one pass is outvoted."""
    return sum(statistics.median([p["ops"][i]["seconds"] for p in passes])
               for i in range(len(passes[0]["ops"])))


def end_to_end(r: Runner) -> dict:
    p = r.passes[0]
    return {"wall_s": _pass_wall(p),
            "setup_s": statistics.median(r.setups),
            "peak_rss_mb": statistics.median([x["peak_rss_mb"] for x in p]),
            "ok_ratio": (r.attempted - r.failed) / r.attempted}


def per_layer(r: Runner) -> dict:
    traced = r.passes[1]
    out = {}
    for k, first in traced[0]["modules"].items():
        # Counts repeat exactly from pass to pass; times take the median.
        out[k] = first if isinstance(first, int) else statistics.median(
            [x["modules"][k] for x in traced])
    out["trace.overhead_s"] = _pass_wall(traced) - _pass_wall(r.passes[0])
    return out


def print_module_table(m: dict):
    from tracing import MODULES
    print(f"per-module (traced pass; untraced wall_s {m['wall_s']:.3f} s, "
          f"tracing overhead {m['trace.overhead_s']:+.3f} s)")
    print(f"  {'module':<10} {'self_s':>9}  metrics")
    for g in MODULES:
        rest = ", ".join(f"{k.split('.', 1)[1]}={v:.4g}" for k, v in m.items()
                         if k.startswith(g + ".") and k != f"{g}.self_s")
        print(f"  {g:<10} {m[f'{g}.self_s']:>9.3f}  {rest}")


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cutoff_lab", "__init__.py")):
        return _die(f"no cutoff_lab sources under {ROOT}/src")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    e2e_specs, layer_specs = _metric_specs()

    runner = Runner(args.workload, args.seed, started + RUN_LIMIT_S)
    try:
        while True:
            begun = time.monotonic()
            runner.setup_probe()
            runner.run_pass(0)
            if args.trace:
                runner.run_pass(1)
            # Stop at the pass boundary nearest to --seconds, taking the
            # next round to last as long as this one.
            now = time.monotonic()
            if now - started + (now - begun) / 2 >= args.seconds:
                break
    except RuntimeError as exc:
        return _die(str(exc))
    finally:
        runner.cleanup()

    env = environment(args.seed, args.workload, args.trace)
    measured = end_to_end(runner)
    specs = e2e_specs
    if args.trace:
        measured.update(per_layer(runner))
        specs = layer_specs
    metrics = {s["name"]: {"value": measured[s["name"]], "unit": s["unit"]}
               for s in specs}

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stem = os.path.join(STATE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "measured": measured,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "failures": runner.failures,
                   "passes": runner.passes}, fh, indent=1)

    print("environment: " + json.dumps(env))
    print(f"ops: attempted={runner.attempted} failed={runner.failed} "
          f"fail_ratio={runner.failed / runner.attempted:.4g} "
          f"passes={len(runner.passes[0])}+{len(runner.passes[1])} traced")
    for f in runner.failures:
        print(f"FAILED pass {f['pass']} {f['op']}: {f['type']} in "
              f"{f['raised_in']}: {f['message']}  "
              f"[{' '.join(f['command'])[:120]}]")
    if args.trace:
        print_module_table(measured)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.correct,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
