"""Command-line front end: analyze single chains, verify the inequality
suite, scan families for cutoff signatures, dump curvature tables, and
generate random Cayley instances.

Exit codes: 0 success, 2 spec error, 3 theorem-verdict failure,
4 resource cap.
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
from .chain import (_MASS_TOL, Distribution, StochasticMatrix, kernel_rows,
                    load_chain_file, save_chain_file, validate)
from .curvature import (bakry_emery_curvature, contraction_check,
                        ollivier_curvature, subcommutativity_check)
from .errors import (CertificateFailed, CutoffLabError, SpecParseError,
                     StateCapExceeded, TimeOutOfRange)
from .verdicts import KAPPA_SLACK

CSV_VERSION = "cutoff-lab-csv-v1"
EXIT_OK, EXIT_SPEC, EXIT_VERDICT, EXIT_CAP = 0, 2, 3, 4

# Every option a config file may set, with its default.
DEFAULTS = {
    "spec": None,
    "chain-file": None,
    "eps": "0.05,0.1,0.25,0.5,0.75,0.9,0.95",
    "tgrid": "auto",
    "seed": "0",
    "out": "out",
    "cache": "1",
}


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

def load_config(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SpecParseError(f"bad config line {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _number(kind, flag: str, text: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise SpecParseError(f"bad {flag} value {text!r}") from exc


class Options:
    """Merged options: CLI flags > config file > defaults."""

    def __init__(self, args):
        cfg = load_config(args.config) if args.config else {}
        for key in cfg:
            if key not in DEFAULTS:
                raise SpecParseError(f"unknown config key {key!r}; known: "
                                     f"{', '.join(DEFAULTS)}")

        def pick(name, flag_value):
            if flag_value is not None:
                return str(flag_value)
            return cfg.get(name, DEFAULTS[name])

        self.spec = pick("spec", args.spec)
        self.chain_file = pick("chain-file", args.chain_file)
        self.eps = [_number(float, "--eps", v)
                    for v in pick("eps", args.eps).split(",")]
        for e in self.eps:
            # verify and scan also search t_mix(1 - eps).
            ent.check_eps(e)
            ent.check_eps(1.0 - e)
        self.tgrid = pick("tgrid", args.tgrid)
        self.seed = _number(int, "--seed", pick("seed", args.seed))
        if self.seed < 0:
            raise SpecParseError(f"--seed must be non-negative: {self.seed}")
        self.out = pick("out", args.out)
        no_cache = getattr(args, "no_cache", False)
        self.cache_enabled = (not no_cache) and pick("cache", None) != "0"

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


def _cached_rows(cache, P, t, starts):
    def compute():
        return kernel_rows(P, t, starts)
    if cache is None:
        return compute()
    return cache.get_or_compute(P, t, _MASS_TOL, starts, compute)


def _t_grid(opts, t_scale):
    if opts.tgrid == "auto":
        return list(np.linspace(0.0, 1.5 * max(t_scale, 1e-6), 25))
    try:
        a, b, steps = opts.tgrid.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError as exc:
        raise SpecParseError(f"bad tgrid {opts.tgrid!r}") from exc
    if steps < 1:
        raise SpecParseError(f"tgrid needs at least one step: {opts.tgrid!r}")
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise SpecParseError(f"tgrid bounds must be finite and >= 0: "
                             f"{opts.tgrid!r}")
    return list(np.linspace(a, b, steps))


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

def cmd_analyze(opts: Options) -> int:
    inst = opts.instance()
    P = inst.matrix
    _check_valid(P)
    out = opts.outdir()
    cache = opts.kernel_cache()
    metric, pi, starts = P.metric, P.pi, inst.starts
    tmix = {e: inst.t_mix(e) for e in opts.eps}
    olli = ollivier_curvature(P)
    be = bakry_emery_curvature(P, samples=0)
    eps0 = 0.25 if 0.25 in opts.eps else opts.eps[0]
    prof = ent.entropy_profile(P, [tmix[eps0]], starts)
    d0, v0 = prof.d_star[0], prof.v_star[0]
    header = (["n", "delta", "diam", "t_rel", "kappa_ollivier",
               "kappa_bakry_emery"]
              + [f"tmix_{_fmt(e)}" for e in opts.eps]
              + ["d_star", "v_star"])
    row = ([P.n, metric.delta, metric.diameter, inst.t_rel,
            olli.ollivier_min, be.bakry_emery_min]
           + [tmix[e] for e in opts.eps] + [d0, v0])
    write_csv(os.path.join(out, "analysis.csv"), header, [row])

    grid = _t_grid(opts, max(tmix.values()))

    def profile_point(t):
        rows = _cached_rows(cache, P, t, starts)
        tv = float(0.5 * np.abs(rows - pi.probs[None, :]).sum(axis=1).max())
        d = max(ent.kl_divergence(r, pi) for r in rows)
        return tv, d
    points = [profile_point(t) for t in grid]
    svg.line_plot(
        os.path.join(out, "profile.svg"),
        [("worst-case TV", grid, [p[0] for p in points]),
         ("d*_KL", grid, [p[1] for p in points])],
        title=f"mixing profile ({inst.family}, n={P.n})",
        xlabel="t", ylabel="distance",
        vlines=[(f"tmix({_fmt(e)})", tmix[e]) for e in opts.eps])
    print(f"analyze: n={P.n} t_rel={inst.t_rel:.6g} "
          f"kappa_olli={olli.ollivier_min:.6g} "
          f"kappa_be={be.bakry_emery_min:.6g}")
    for e in opts.eps:
        print(f"  tmix({e}) = {tmix[e]:.6g}")
    return EXIT_OK


def verdict_suite(inst: fam.ChainInstance, eps_list, seed=0, n_f=100,
                  semigroup_checks=True):
    """All proved-inequality verdicts for one instance.

    Returns a list of InequalityVerdict.  Semigroup-level checks
    (contraction, sub-commutativity) use a reduced observable count.
    """
    P = inst.matrix
    pi = P.pi
    olli = ollivier_curvature(P)
    be = bakry_emery_curvature(P, samples=0)
    kappa_cert = max(olli.ollivier_min, be.bakry_emery_min)
    verdicts = []
    t_half = inst.t_mix(0.5)
    for e in eps_list:
        verdicts.append(ent.entropic_upper_bound(inst, t_half, e))
        # Entropic lower bound on the entropy-worst kernel row at tmix(1-e).
        rows = kernel_rows(P, inst.t_mix(1.0 - e), inst.starts)
        worst = max(rows, key=lambda r: ent.kl_divergence(r, pi))
        verdicts.append(ent.entropic_lower_bound_check(
            Distribution(worst), pi, e))
        if e < 0.5:
            verdicts.append(ent.cutoff_window_bound(inst, e))
        verdicts.append(ent.diameter_bound_check(inst, e))
    t_log = max(P.metric.diameter / 4.0, inst.t_mix(0.25))
    verdicts.append(ent.log_gradient_bound_check(inst, t_log))
    kappa_cc = max(0.0, kappa_cert)
    if kappa_cert >= -KAPPA_SLACK:
        verdicts.append(ent.local_concentration_sweep(
            P, [1.0, inst.t_mix(0.25)], kappa_cc, n_f=n_f, seed=seed))
        for e in eps_list:
            verdicts.extend(ent.varentropy_bound_check(
                inst, e, kappa=kappa_cert))
    if semigroup_checks:
        t_grid = [0.5, inst.t_mix(0.25)]
        verdicts.append(contraction_check(
            P, olli.ollivier_min, t_grid, seed=seed, n_f=min(n_f, 20)))
        verdicts.append(subcommutativity_check(
            P, be.bakry_emery_min, t_grid, seed=seed, n_f=min(n_f, 20)))
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
        P = inst.matrix
        metric, starts = P.metric, inst.starts
        t_rel = inst.t_rel
        tmix = {e: inst.t_mix(e) for e in opts.eps}
        olli = ollivier_curvature(P)
        be = bakry_emery_curvature(P, samples=0)
        prof = ent.entropy_profile(P, [tmix[eps_lo]], starts)
        d0, v0 = prof.d_star[0], prof.v_star[0]
        window = tmix[eps_lo] - tmix[eps_hi]
        ratio = tmix[eps_lo] / tmix[eps_hi] if tmix[eps_hi] > 0 else math.inf
        conc = ((1.0 + math.sqrt(v0)) * t_rel / tmix[eps_lo]
                if tmix[eps_lo] > 0 else math.inf)
        log_delta = math.log(metric.delta)
        sparse = (tmix[eps_lo] / (t_rel * log_delta) ** 2
                  if log_delta > 0 else math.inf)
        th1_window = math.sqrt(tmix[0.25] if 0.25 in tmix else tmix[eps_lo]) \
            * t_rel * max(log_delta, 1e-12)
        if eps_lo < 0.5:
            th2_bound = ent.cutoff_window_bound(inst, eps_lo).rhs
        else:
            th2_bound = math.nan
        return ([value, P.n, metric.delta, metric.diameter, t_rel,
                 olli.ollivier_min, be.bakry_emery_min]
                + [tmix[e] for e in opts.eps]
                + [window, ratio, d0, v0, conc, sparse, th1_window,
                   th2_bound])

    rows = [one(value, inst) for value, inst in members]
    header = (["param", "n", "delta", "diam", "t_rel", "kappa_ollivier",
               "kappa_bakry_emery"]
              + [f"tmix_{_fmt(e)}" for e in opts.eps]
              + ["window", "ratio", "d_star", "v_star",
                 "concentration_ratio", "sparse_condition",
                 "th1_window_scale", "th2_window_bound"])
    return header, rows


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
    olli = ollivier_curvature(P)
    be = bakry_emery_curvature(P, samples=0)
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
        p.add_argument("--spec", default=None)
        p.add_argument("--chain-file", default=None)
        p.add_argument("--eps", default=None)
        p.add_argument("--tgrid", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--config", default=None)
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
    except (StateCapExceeded, TimeOutOfRange) as exc:
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
