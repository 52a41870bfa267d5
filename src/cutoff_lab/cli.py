"""Command-line front end: analyze single chains, verify the inequality
suite, scan families for cutoff signatures, dump curvature tables, and
generate random Cayley instances.

Exit codes: 0 success, 2 spec error, 3 theorem-verdict failure or failed
certificate, 4 resource cap or an entry below double-precision reach.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import entropy as ent
from . import families as fam
from . import svg
from .cache import HeatKernelCache
from .chain import (StochasticMatrix, _KernelRows, heat_kernel,
                    load_chain_file, save_chain_file, validate)
from .curvature import (bakry_emery_curvature, contraction_check,
                        ollivier_curvature, subcommutativity_check)
from .errors import (CertificateFailed, CutoffLabError, SpecParseError,
                     StateCapExceeded, TimeOutOfRange, UnderflowRisk)
from .verdicts import KAPPA_SLACK

CSV_VERSION = "cutoff-lab-csv-v1"
EXIT_OK, EXIT_SPEC, EXIT_VERDICT, EXIT_CAP = 0, 2, 3, 4
# Most --tgrid steps.  Each grid point costs one heat-kernel evaluation and
# one cache .npy file, and the 800-pixel profile plot shows at most a few
# points per pixel: 10^4 points is a directory of 10^4 files for a curve
# that 1000 would draw as well.
TGRID_STEPS_CAP = 10_000


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {CSV_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------

def _number(kind, flag: str, text: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise SpecParseError(f"bad {flag} value {text!r}") from exc


class Options:
    """The parsed flags, each checked here, before any command runs."""

    def __init__(self, args):
        self.spec = args.spec
        self.chain_file = args.chain_file
        eps = {}
        for e in (_number(float, "--eps", v) for v in args.eps.split(",")):
            # verify and scan also search t_mix(1 - eps).
            ent.check_eps(e)
            ent.check_eps(1.0 - e)
            # Values equal to 12 significant digits (the CSV precision and
            # the key of t_mix) are one column: the first is kept.
            eps.setdefault(_fmt(e), e)
        self.eps = list(eps.values())
        # "auto", or the (a, b, steps) of a:b:steps.
        self.tgrid = args.tgrid
        if args.tgrid != "auto":
            try:
                a, b, steps = args.tgrid.split(":")
                a, b, steps = float(a), float(b), int(steps)
            except ValueError as exc:
                raise SpecParseError(f"bad tgrid {args.tgrid!r}") from exc
            if steps < 1:
                raise SpecParseError(
                    f"tgrid needs at least one step: {args.tgrid!r}")
            if steps > TGRID_STEPS_CAP:
                raise StateCapExceeded(f"tgrid has {steps} steps, more than "
                                       f"the cap {TGRID_STEPS_CAP}")
            if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
                raise SpecParseError(f"tgrid bounds must be finite and >= 0: "
                                     f"{args.tgrid!r}")
            self.tgrid = a, b, steps
        self.seed = _number(int, "--seed", args.seed)
        if self.seed < 0:
            raise SpecParseError(f"--seed must be non-negative: {self.seed}")
        self.out = args.out
        self.cache_enabled = not args.no_cache

    def instance(self) -> fam.ChainInstance:
        if self.spec:
            return fam.parse_family_spec(self.spec)
        if self.chain_file:
            P = load_chain_file(self.chain_file)
            return fam.ChainInstance(P, family="file",
                                     params={"path": self.chain_file})
        raise SpecParseError("need --spec or --chain-file")

    def outdir(self) -> str:
        os.makedirs(self.out, exist_ok=True)
        return self.out

    def kernel_cache(self):
        if not self.cache_enabled:
            return None
        return HeatKernelCache(os.path.join(self.outdir(), "cache"))


def _cached_rows(cache, P, t, starts, rows_at):
    """Kernel rows at t from ``rows_at`` (a _KernelRows(P, starts)), through
    the cache when there is one."""
    def compute():
        return rows_at(t)
    if cache is None:
        return compute()
    # By keyword: perfbench/tracing.py's lookup hook reads it from kwargs.
    return cache.get_or_compute(P, t, starts, compute=compute)


def _t_grid(opts, t_scale):
    if opts.tgrid == "auto":
        return list(np.linspace(0.0, 1.5 * max(t_scale, 1e-6), 25))
    return list(np.linspace(*opts.tgrid))


def _check_valid(P: StochasticMatrix):
    rep = validate(P)
    if not rep.stochastic:
        raise SpecParseError(
            f"matrix is not stochastic (row residual {rep.row_sum_residual})")
    if not rep.irreducible:
        raise SpecParseError("matrix is not irreducible")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _analysis(inst: fam.ChainInstance, eps_list, eps_profile):
    """One chain's analysis as (column, value) pairs: n, Delta, the
    diameter, t_rel, the Ollivier and Bakry-Emery minima over the start
    set, t_mix(eps) for each eps, and d* and V* at t_mix(eps_profile).
    Returns (pairs, t_mix by eps)."""
    P = inst.matrix
    metric, starts = P.metric, inst.starts
    tmix = {e: inst.t_mix(e) for e in eps_list}
    olli = ollivier_curvature(P, starts=starts)
    be = bakry_emery_curvature(P, starts=starts)
    at = inst.entropies(tmix[eps_profile])
    return ([("n", P.n), ("delta", metric.delta), ("diam", metric.diameter),
             ("t_rel", inst.t_rel), ("kappa_ollivier", olli.ollivier_min),
             ("kappa_bakry_emery", be.bakry_emery_min)]
            + [(f"tmix_{_fmt(e)}", tmix[e]) for e in eps_list]
            + [("d_star", at.d_star), ("v_star", at.v_star)]), tmix


def cmd_analyze(opts: Options) -> int:
    inst = opts.instance()
    P = inst.matrix
    _check_valid(P)
    out = opts.outdir()
    cache = opts.kernel_cache()
    eps0 = 0.25 if 0.25 in opts.eps else opts.eps[0]
    cols, tmix = _analysis(inst, opts.eps, eps0)
    header, row = zip(*cols)
    write_csv(os.path.join(out, "analysis.csv"), header, [row])
    grid = _t_grid(opts, max(tmix.values()))
    # One power sequence for the whole grid (see _KernelRows).
    rows_at = _KernelRows(P, inst.starts)
    tv, d_star, _ = ent.worst_profile(
        lambda t: _cached_rows(cache, P, t, inst.starts, rows_at), P.pi, grid)
    svg.line_plot(
        os.path.join(out, "profile.svg"),
        [("worst-case TV", grid, tv.tolist()),
         ("d*_KL", grid, d_star.tolist())],
        title=f"mixing profile ({inst.family}, n={P.n})",
        xlabel="t", ylabel="distance",
        vlines=[(f"tmix({_fmt(e)})", tmix[e]) for e in opts.eps])
    col = dict(cols)
    print(f"analyze: n={P.n} t_rel={inst.t_rel:.6g} "
          f"kappa_olli={col['kappa_ollivier']:.6g} "
          f"kappa_be={col['kappa_bakry_emery']:.6g}")
    for e in opts.eps:
        print(f"  tmix({e}) = {tmix[e]:.6g}")
    return EXIT_OK


def verdict_suite(inst: fam.ChainInstance, eps_list, seed=0):
    """All proved-inequality verdicts for one instance.

    Returns a list of InequalityVerdict.  Semigroup-level checks
    (contraction, sub-commutativity) draw fewer observables per t.
    """
    P = inst.matrix
    olli = ollivier_curvature(P, starts=inst.starts)
    be = bakry_emery_curvature(P, starts=inst.starts)
    kappa_cert = max(olli.ollivier_min, be.bakry_emery_min)
    verdicts = []
    for e in eps_list:
        verdicts.append(ent.entropic_upper_bound(inst, inst.t_mix(0.5), e))
        # Entropic lower bound on the entropy-worst kernel row at tmix(1-e).
        verdicts.append(ent.entropic_lower_bound_check(
            inst.entropies(inst.t_mix(1.0 - e)).worst_row, P.pi, e))
        if e < 0.5:
            verdicts.append(ent.cutoff_window_bound(inst, e))
        verdicts.append(ent.diameter_bound_check(inst, e))
    t_log = max(P.metric.diameter / 4.0, inst.t_mix(0.25))
    verdicts.append(ent.log_gradient_bound_check(inst, t_log))
    concentration = kappa_cert >= -KAPPA_SLACK
    t_sweep = [1.0, inst.t_mix(0.25)] if concentration else []
    t_grid = [0.5, inst.t_mix(0.25)]
    # One full kernel per distinct time, shared by the checks that read it.
    kernels = {t: heat_kernel(P, t) for t in dict.fromkeys(t_sweep + t_grid)}
    if concentration:
        verdicts.append(ent.local_concentration_sweep(
            P, [(t, kernels[t]) for t in t_sweep], max(0.0, kappa_cert),
            seed=seed))
        for e in eps_list:
            verdicts.extend(ent.varentropy_bound_check(
                inst, e, kappa=kappa_cert))
    grid = [(t, kernels[t]) for t in t_grid]
    verdicts.append(contraction_check(
        P, olli.ollivier_min, grid, seed=seed, starts=inst.starts))
    verdicts.append(subcommutativity_check(
        P, be.bakry_emery_min, grid, seed=seed))
    return verdicts


def cmd_verify(opts: Options) -> int:
    inst = opts.instance()
    _check_valid(inst.matrix)
    out = opts.outdir()
    verdicts = verdict_suite(inst, opts.eps, seed=opts.seed)
    rows = []
    failed = False
    for v in verdicts:
        # The context column must stay comma-free inside a CSV row.
        ctx = ";".join(f"{k}={_fmt(val)}" for k, val in sorted(v.context.items()))
        ctx = ctx.replace(",", "/").replace(" ", "")
        rows.append([v.name, ctx, v.lhs, v.rhs, v.slack,
                     "1" if v.passed else "0"])
        print(v)
        if not v.passed:
            failed = True
    write_csv(os.path.join(out, "verdicts.csv"),
              ["name", "context", "lhs", "rhs", "slack", "pass"], rows)
    return EXIT_VERDICT if failed else EXIT_OK


def scan_rows(opts: Options):
    if not opts.spec:
        raise SpecParseError("scan needs --spec with a lo..hi range")
    members = fam.parse_family_range(opts.spec)
    eps_lo = min(opts.eps)
    eps_hi = max(opts.eps)

    def one(value, inst):
        cols, tmix = _analysis(inst, opts.eps, eps_lo)
        t_rel = inst.t_rel
        window = tmix[eps_lo] - tmix[eps_hi]
        ratio = tmix[eps_lo] / tmix[eps_hi] if tmix[eps_hi] > 0 else math.inf
        log_delta = math.log(inst.matrix.metric.delta)
        sparse = (tmix[eps_lo] / (t_rel * log_delta) ** 2
                  if log_delta > 0 else math.inf)
        th1_window = math.sqrt(tmix[0.25] if 0.25 in tmix else tmix[eps_lo]) \
            * t_rel * max(log_delta, 1e-12)
        if eps_lo < 0.5:
            th2_bound = ent.cutoff_window_bound(inst, eps_lo).rhs
        else:
            th2_bound = math.nan
        return ([("param", value)] + cols[:-2]
                + [("window", window), ("ratio", ratio)] + cols[-2:]
                + [("concentration_ratio",
                    ent.entropic_concentration_ratio(inst, eps_lo)),
                   ("sparse_condition", sparse),
                   ("th1_window_scale", th1_window),
                   ("th2_window_bound", th2_bound)])

    tables = [one(value, inst) for value, inst in members]
    header = [c for c, _ in tables[0]]
    return header, [[v for _, v in cols] for cols in tables]


def cmd_scan(opts: Options) -> int:
    header, rows = scan_rows(opts)
    out = opts.outdir()
    write_csv(os.path.join(out, "scan.csv"), header, rows)
    params = [r[0] for r in rows]
    i_ratio = header.index("ratio")
    i_window = header.index("window")
    i_th1 = header.index("th1_window_scale")
    svg.line_plot(os.path.join(out, "cutoff_ratio.svg"),
                  [("tmix ratio", params, [r[i_ratio] for r in rows])],
                  title=f"cutoff ratio scan: {opts.spec}",
                  xlabel="family parameter", ylabel="tmix ratio")
    svg.line_plot(os.path.join(out, "window.svg"),
                  [("window", params, [r[i_window] for r in rows]),
                   ("sqrt(tmix) t_rel logD", params,
                    [r[i_th1] for r in rows])],
                  title=f"window scan: {opts.spec}",
                  xlabel="family parameter", ylabel="time")
    for row in rows:
        print(" ".join(f"{h}={_fmt(v)}" for h, v in zip(header, row)))
    return EXIT_OK


def cmd_curvature(opts: Options) -> int:
    inst = opts.instance()
    P = inst.matrix
    _check_valid(P)
    # A per-edge and per-vertex table: every edge and vertex, not ``starts``.
    olli = ollivier_curvature(P)
    be = bakry_emery_curvature(P)
    rows = [["edge", x, y, k] for (x, y), k in sorted(olli.ollivier_edges.items())]
    rows += [["vertex", x, "", k]
             for x, k in sorted(be.bakry_emery_vertices.items())]
    write_csv(os.path.join(opts.outdir(), "curvature.csv"),
              ["kind", "x", "y", "kappa"], rows)
    print(f"ollivier_min={olli.ollivier_min:.12g} "
          f"bakry_emery_min={be.bakry_emery_min:.12g}")
    return EXIT_OK


def cmd_random_cayley(opts: Options) -> int:
    inst = opts.instance()
    if inst.family != "cayley-random":
        raise SpecParseError("random-cayley needs a cayley-random spec")
    out = opts.outdir()
    path = os.path.join(out, "chain.txt")
    save_chain_file(inst.matrix, path)
    print(f"n={inst.matrix.n} d={inst.params['d']} seed={inst.params['seed']} "
          f"draws={list(inst.params['draws'])} -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutoff-lab",
        description="mixing, curvature and entropic cutoff diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "verify", "scan", "curvature", "random-cayley"):
        p = sub.add_parser(name)
        p.add_argument("--spec")
        p.add_argument("--chain-file")
        p.add_argument("--eps", default=",".join(map(str, ent.EPS_GRID)))
        p.add_argument("--tgrid", default="auto")
        p.add_argument("--seed", default="0")
        p.add_argument("--out", default="out")
        p.add_argument("--no-cache", action="store_true")
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "curvature": cmd_curvature,
    "random-cayley": cmd_random_cayley,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = Options(args)
        return COMMANDS[args.command](opts)
    except (StateCapExceeded, TimeOutOfRange, UnderflowRisk) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificateFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (CutoffLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
