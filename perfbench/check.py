"""Output checks: each op's outputs against closed forms where they exist,
and against reference values recorded from the seed code otherwise.

Imports numpy only, never ``cutoff_lab``.  ``Checker.check`` returns the
list of mismatches of one op (empty when it passes).

Tolerances:

- mixing times: the library's bisection tolerance ``tol_t`` (exact.py);
- Delta and diameters: 1e-9 relative (12-digit CSV values);
- relaxation times and d*, V*: the accuracy of the exact model
  (``RTOL_T_REL``, ``RTOL_ENTROPY`` in exact.py);
- recorded reference values: 1e-10 relative or 1e-12 absolute, i.e. the
  12 significant digits of the CSVs up to last-digit rounding.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import exact
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
REF_RTOL, REF_ATOL = 1e-10, 1e-12


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def read_outputs(directory: str) -> dict:
    """The op's output files: CSV rows (header first) and SVG digests."""
    out = {}
    for name in workloads.OUTPUT_FILES:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        if name.endswith(".csv"):
            lines = data.decode("utf-8").splitlines()
            out[name] = [line.split(",") for line in lines[1:]]
        else:
            out[name] = hashlib.sha256(data).hexdigest()
    return out


def _num(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def _same(got, want, where: str, problems: list):
    """Field-wise comparison: numbers to REF_RTOL, text exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: keys differ")
            return
        for k in want:
            _same(got[k], want[k], f"{where}.{k}", problems)
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]", problems)
        return
    if isinstance(want, str) and ";" in want and "=" in want:
        _same(_context(got), _context(want), where, problems)
        return
    g, w = (_num(got), _num(want)) if isinstance(want, str) else (got, want)
    if isinstance(w, (int, float)) and isinstance(g, (int, float)):
        if not _close(float(g), float(w), REF_RTOL, REF_ATOL):
            problems.append(f"{where}: {got} != reference {want}")
    elif got != want:
        problems.append(f"{where}: {got!r} != reference {want!r}")


def _context(text: str) -> dict:
    out = {}
    for part in text.split(";"):
        k, _, v = part.partition("=")
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# Closed forms and exact values for the workloads' chains
# ---------------------------------------------------------------------------

def _kv(spec: str) -> dict:
    return dict(p.split("=", 1) for p in spec.split(":") if "=" in p)


def _z2_rank(vectors) -> int:
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def cayley_walk(spec: str) -> exact.AbelianWalk:
    """The abelian walk a ``hypercube``/``cycle``/``cayley-random:Z2^k``
    spec names.  Random draws follow the spec's definition: ``d`` uniform
    draws from ``numpy.random.default_rng(seed)``, redrawn until they
    generate, each paired with its inverse."""
    kv = _kv(spec)
    if spec.startswith("hypercube:"):
        d = int(kv["d"])
        basis = [2 ** (d - 1 - i) for i in range(d)]
        return exact.AbelianWalk((2,) * d, basis * 2)
    if spec.startswith("cycle:"):
        n = int(kv["n"])
        return exact.AbelianWalk((n,), [1, n - 1])
    if spec.startswith("cayley-random:Z2^"):
        k = int(spec.split(":")[1][len("Z2^"):])
        rng = np.random.default_rng(int(kv["seed"]))
        for _ in range(100):
            draws = [int(g) for g in rng.integers(0, 2 ** k, size=int(kv["d"]))]
            if _z2_rank(draws) == k:
                return exact.AbelianWalk((2,) * k, draws * 2)
        raise ValueError(f"no generating draw for {spec}")
    raise ValueError(f"no closed form for {spec}")


class Exact:
    """Lazily computed exact values of one chain (t_mix per eps, ...)."""

    def __init__(self, model, hypercube_d=None):
        self.model = model
        self.hypercube_d = hypercube_d
        self._tmix = {}

    def tmix(self, eps: float, product_formula: bool = False) -> float:
        key = (eps, product_formula)
        if key not in self._tmix:
            tv = self.model.tv
            if product_formula:
                d = self.hypercube_d
                tv = lambda t: exact.hypercube_tv(d, t)      # noqa: E731
            self._tmix[key] = exact.crossing(tv, eps)
        return self._tmix[key]

    def check_tmix(self, got: float, eps: float, where: str, problems: list):
        want = self.tmix(eps)
        if abs(got - want) > exact.bisection_tol(want):
            problems.append(f"{where}: t_mix({eps}) = {got!r}, exact {want!r}")
        if self.hypercube_d is not None:
            # The product formula gives the same crossing independently.
            pf = self.tmix(eps, product_formula=True)
            if abs(got - pf) > exact.bisection_tol(pf):
                problems.append(f"{where}: t_mix({eps}) = {got!r}, "
                                f"product formula {pf!r}")

    @staticmethod
    def check_rel(got, want, rtol, where, problems, atol=0.0):
        if not _close(float(got), float(want), rtol, atol):
            problems.append(f"{where}: {got!r}, expected {want!r}")


def _check_verdicts(rows: list, ex: Exact, problems: list):
    """Mixing times, relaxation time, diameter and V* inside verdicts.csv."""
    header, body = rows[0], rows[1:]
    col = {h: i for i, h in enumerate(header)}
    for row in body:
        name = row[col["name"]]
        ctx = {k: _num(v) for k, v in _context(row[col["context"]]).items()}
        lhs, rhs = float(row[col["lhs"]]), float(row[col["rhs"]])
        eps = ctx.get("eps")
        where = f"verdicts.csv {name} eps={eps}"
        if name == "entropic-upper-bound":
            ex.check_tmix(lhs, eps, where, problems)
            ex.check_tmix(ctx["t"], 0.5, where, problems)
        elif name == "cutoff-window-bound":
            ex.check_tmix(ctx["t_mix_eps"], eps, where, problems)
            ex.check_tmix(ctx["t_mix_1meps"], 1.0 - eps, where, problems)
            t_rel = rhs * eps ** 2 / (2.0 * (1.0 + math.sqrt(ctx["v_star"])))
            ex.check_rel(t_rel, ex.model.t_rel, ex.model.RTOL_T_REL,
                         where + " t_rel", problems)
        elif name == "diameter-bound":
            ex.check_tmix(ctx["t_mix"], eps, where, problems)
            ex.check_rel(lhs, ex.model.diameter, 0.0, where + " diam",
                         problems)
        elif name == "varentropy-bound-18":
            ex.check_tmix(ctx["t_mix"], eps, where, problems)
            _, v = ex.model.kl_var(ctx["t_mix"])
            ex.check_rel(lhs, v, ex.model.RTOL_ENTROPY, where + " V*",
                         problems, atol=1e-9)
        elif name == "log-gradient-bound":
            ex.check_rel(ctx["delta"], ex.model.delta, 1e-9,
                         where + " delta", problems)


def _check_analysis(rows: list, ex: Exact, problems: list, n: int):
    header, values = rows[0], rows[1]
    got = {h: float(v) for h, v in zip(header, values)}
    m = ex.model
    ex.check_rel(got["n"], n, 0.0, "analysis.csv n", problems)
    ex.check_rel(got["delta"], m.delta, 1e-9, "analysis.csv delta", problems)
    ex.check_rel(got["diam"], m.diameter, 0.0, "analysis.csv diam", problems)
    ex.check_rel(got["t_rel"], m.t_rel, m.RTOL_T_REL, "analysis.csv t_rel",
                 problems)
    eps_list = [float(h[len("tmix_"):]) for h in header if h.startswith("tmix_")]
    for e in eps_list:
        ex.check_tmix(got[f"tmix_{e:.12g}"], e, "analysis.csv", problems)
    # d* and V* are taken at t_mix(0.25) when 0.25 is among the eps values.
    t0 = got["tmix_0.25"] if 0.25 in eps_list else got[f"tmix_{eps_list[0]:.12g}"]
    d, v = m.kl_var(t0)
    rtol = m.RTOL_ENTROPY
    ex.check_rel(got["d_star"], d, rtol, "analysis.csv d_star", problems, 1e-9)
    ex.check_rel(got["v_star"], v, rtol, "analysis.csv v_star", problems, 1e-9)
    return got


class Checker:
    """Checks every op of one seed's workload; exact values are computed
    once per run and shared by its passes."""

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = load_reference()
        self._exact = {}
        self._outputs = {}

    def _model(self, key, build):
        if key not in self._exact:
            self._exact[key] = build()
        return self._exact[key]

    def check(self, op: dict, rec: dict, snapshot: str) -> list:
        """Mismatches of one op; ``snapshot`` holds its output files."""
        problems = []
        chk = op["check"]
        outputs = read_outputs(snapshot) if op["kind"] == "cli" else None
        self._outputs[op["name"]] = outputs
        ref = self.reference.get(op["name"]) if op["reference"] else None
        if ref is not None:
            _same(outputs if outputs is not None else rec["values"], ref,
                  op["name"], problems)
        if "same_as" in chk and outputs != self._outputs.get(chk["same_as"]):
            problems.append(f"outputs differ from {chk['same_as']}")

        if chk["kind"] == "cayley":
            spec = op["spec"]
            hyper = int(_kv(spec)["d"]) if spec.startswith("hypercube:") else None
            ex = self._model(spec, lambda: Exact(cayley_walk(spec), hyper))
            if op["kind"] == "pipeline":
                self._check_pipeline(rec["values"], ex, problems)
            else:
                _check_verdicts(outputs["verdicts.csv"], ex, problems)
        elif chk["kind"] == "random-chain":
            ex = self._model("random", lambda: Exact(self._random_chain()))
            _check_analysis(outputs["analysis.csv"], ex, problems,
                            workloads.RANDOM_CHAIN_N)
        elif chk["kind"] == "bd":
            p, q = chk["p"]
            n = workloads.BD_STATES
            ex = self._model(("bd", p, q),
                             lambda: Exact(exact.birth_death(p, q, n)))
            if "analysis.csv" in outputs:
                got = _check_analysis(outputs["analysis.csv"], ex, problems, n)
                ex.check_rel(got["kappa_ollivier"],
                             exact.path_ollivier_min(ex.model.P), 0.0,
                             "analysis.csv kappa_ollivier", problems, 1e-9)
            else:
                _check_verdicts(outputs["verdicts.csv"], ex, problems)
        return problems

    def _random_chain(self) -> exact.ReversibleChain:
        W = workloads.random_chain_weights(self.seed)
        P = W / W.sum(axis=1, keepdims=True)
        return exact.ReversibleChain(P, W.sum(axis=1) / W.sum())

    @staticmethod
    def _check_pipeline(values: dict, ex: Exact, problems: list):
        m = ex.model
        ex.check_rel(values["n"], m.N, 0.0, "n", problems)
        ex.check_rel(values["delta"], m.delta, 1e-9, "delta", problems)
        ex.check_rel(values["diam"], m.diameter, 0.0, "diam", problems)
        ex.check_rel(values["pi_max_dev"], 0.0, 0.0, "pi", problems, 1e-12)
        ex.check_rel(values["t_rel"], m.t_rel, m.RTOL_T_REL, "t_rel", problems)
        ex.check_tmix(values["tmix_0.25"], 0.25, "pipeline", problems)
        ex.check_tmix(values["tmix_0.75"], 0.75, "pipeline", problems)
        d, v = m.kl_var(values["tmix_0.25"])
        rtol = m.RTOL_ENTROPY
        ex.check_rel(values["d_star"], d, rtol, "d_star", problems, 1e-9)
        ex.check_rel(values["v_star"], v, rtol, "v_star", problems, 1e-9)
