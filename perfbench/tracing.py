"""Spans around calls into cutoff_lab's modules, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``cutoff_lab`` module namespace that holds it (``chain.heat_kernel_row``
is also ``entropy.heat_kernel_row`` and ``cutoff_lab.heat_kernel_row``;
scipy's ``linprog`` is traced as ``curvature.linprog``), and in
module-level dicts such as ``cli.COMMANDS``.  A span records its name,
parent, start and end; spans stay in memory until ``write``.  Nothing under
``src/`` is edited.

A module's self time is the summed duration of its spans minus the time
their child spans cover.  ``svg.line_plot`` counts as ``cli``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time

MODULES = ("families", "chain", "spectral", "curvature", "entropy", "cache",
           "cli")

_VERDICTS = ("entropic_upper_bound", "entropic_lower_bound_check",
             "cutoff_window_bound", "entropic_concentration_ratio",
             "cutoff_time_equation", "log_gradient_bound_check",
             "local_concentration_sweep", "local_concentration_check",
             "varentropy_bound_check", "diameter_bound_check")

# (module, attribute path) of every traced callable.
TARGETS = (
    [("families", f) for f in (
        "parse_family_spec", "parse_family_range", "abelian_cayley",
        "random_abelian_cayley", "hypercube", "cycle", "complete_graph",
        "birth_death", "perturb_toward_uniform", "conjugacy_walk",
        "_generating")]
    + [("chain", f) for f in (
        "stationary", "metric_data", "validate", "poisson_weights",
        "heat_kernel_row", "heat_kernel", "heat_kernel_apply",
        "load_chain_file", "save_chain_file")]
    + [("spectral", f) for f in ("relaxation_time", "reversibilization")]
    + [("curvature", f) for f in (
        "linprog", "_w1_restricted", "wasserstein1", "ollivier_curvature",
        "bakry_emery_vertex", "bakry_emery_curvature",
        "full_curvature_report", "contraction_check",
        "subcommutativity_check")]
    + [("entropy", f) for f in (
        "tv_distance", "kl_divergence", "varentropy", "worst_tv",
        "mixing_profile", "mixing_time", "entropy_profile", "d_star_at",
        "v_star_at", "log_density_lip_norm") + _VERDICTS]
    + [("cache", "matrix_digest"), ("cache", "HeatKernelCache.get_or_compute")]
    + [("cli", f) for f in (
        "main", "cmd_analyze", "cmd_verify", "cmd_scan", "cmd_curvature",
        "cmd_random_cayley", "verdict_suite", "scan_rows", "write_csv",
        "_cached_rows")]
    + [("svg", "line_plot")]
)

_KERNELS = {"chain.heat_kernel_row": 1, "chain.heat_kernel": None,
            "chain.heat_kernel_apply": 1}


def _group(name: str) -> str:
    head = name.split(".", 1)[0]
    return "cli" if head == "svg" else head


def _dir_bytes(path: str) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except FileNotFoundError:
        return 0


class Tracer:
    """Span recorder.  A span is ``[name, parent, start, end, attrs]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, call=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                if call is None:
                    result = fn(*args, **kwargs)
                else:
                    result, span[4] = call(fn, args, kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            return result
        return wrapper

    @staticmethod
    def _calls():
        """Call hooks that keep what the metrics need on the span."""
        def terms(fn, args, kwargs):
            q = fn(*args, **kwargs)
            return q, {"terms": len(q)}

        def first_n(fn, args, kwargs):
            return fn(*args, **kwargs), {"n": args[0].n}

        def mixing(fn, args, kwargs):
            eps = args[1] if len(args) > 1 else kwargs["eps"]
            return fn(*args, **kwargs), {"P": args[0], "eps": eps}

        def lookup(fn, args, kwargs):
            cache, rest = args[0], list(args[1:])
            # get_or_compute(P, t, tol, starts, compute)
            compute = rest.pop() if len(rest) == 5 else kwargs.pop("compute")
            missed = []

            def flagged():
                missed.append(True)
                return compute()
            before = _dir_bytes(cache.directory)
            rows = fn(cache, *rest, flagged, **kwargs)
            written = _dir_bytes(cache.directory) - before if missed else 0
            return rows, {"hit": not missed, "bytes": written}

        calls = {"chain.poisson_weights": terms,
                 "entropy.mixing_time": mixing,
                 "cache.HeatKernelCache.get_or_compute": lookup}
        for name in _KERNELS:
            calls[name] = first_n
        return calls

    def install(self):
        import cutoff_lab.cli           # noqa: F401 - not imported by the package
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "cutoff_lab" or k.startswith("cutoff_lab.")]
        calls = self._calls()
        for module, path in TARGETS:
            owner = sys.modules[f"cutoff_lab.{module}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, attr)
            name = f"{module}.{path}"
            wrapped = self._wrap(orig, name, calls.get(name))
            if cls:
                self._patch(owner, attr, orig, wrapped)
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapped)
                    elif isinstance(value, dict):
                        for k2, v2 in list(value.items()):
                            if v2 is orig:
                                self._patch(value, k2, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped):
        self._patches.append((owner, key, orig))
        if isinstance(owner, dict):
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child_time[s[1]] += dur[i]
                children[s[1]].append(i)

        def attrs(i):
            # None when the call raised before its hook could record.
            return spans[i][4] or {}

        def named(name):
            return [i for i, s in enumerate(spans) if s[0] == name]

        def total(*names):
            return sum(dur[i] for n in names for i in named(n))

        def count(*names):
            return sum(len(named(n)) for n in names)

        m = {}
        for g in MODULES:
            m[f"{g}.self_s"] = sum(dur[i] - child_time[i]
                                   for i, s in enumerate(spans)
                                   if _group(s[0]) == g)
        outer_fam = [i for i, s in enumerate(spans) if _group(s[0]) == "families"
                     and (s[1] < 0 or _group(spans[s[1]][0]) != "families")]
        m["families.build_s"] = sum(dur[i] for i in outer_fam)
        m["families.builds"] = len(outer_fam)

        m["chain.stationary_calls"] = count("chain.stationary")
        m["chain.stationary_s"] = total("chain.stationary")
        m["chain.metric_data_s"] = total("chain.metric_data")
        m["chain.kernel_row_calls"] = count("chain.heat_kernel_row")
        m["chain.kernel_full_calls"] = count("chain.heat_kernel")
        m["chain.kernel_apply_calls"] = count("chain.heat_kernel_apply")
        m["chain.poisson_terms"] = sum(attrs(i).get("terms", 0) for i in
                                       named("chain.poisson_weights"))
        m["chain.heat_kernel_s"] = total(*_KERNELS)
        flops = 0
        for name, per_term in _KERNELS.items():
            for i in named(name):
                n = attrs(i).get("n", 0)
                terms = sum(attrs(c).get("terms", 0) for c in children[i]
                            if spans[c][0] == "chain.poisson_weights")
                # One vector-matrix product (2 n^2 flops) per Poisson term
                # after the first; the full kernel does n of them per term.
                flops += 2 * n * n * max(terms - 1, 0) * (per_term or n)
        m["chain.kernel_flops"] = flops

        m["spectral.relaxation_time_calls"] = count("spectral.relaxation_time")
        m["spectral.relaxation_time_s"] = total("spectral.relaxation_time")

        m["curvature.w1_lps"] = count("curvature.linprog")
        m["curvature.w1_s"] = total("curvature._w1_restricted")
        m["curvature.ollivier_s"] = total("curvature.ollivier_curvature")
        m["curvature.be_vertices"] = count("curvature.bakry_emery_vertex")
        m["curvature.be_s"] = total("curvature.bakry_emery_curvature")
        m["curvature.semigroup_s"] = total("curvature.contraction_check",
                                           "curvature.subcommutativity_check")

        mix = named("entropy.mixing_time")
        digests = {}

        def chain_key(P):
            if id(P) not in digests:
                digests[id(P)] = hashlib.sha1(P.entries.tobytes()).hexdigest()
            return digests[id(P)]
        distinct = {(chain_key(attrs(i)["P"]), attrs(i)["eps"])
                    for i in mix if attrs(i)}
        m["entropy.mixing_time_calls"] = len(mix)
        m["entropy.mixing_time_distinct"] = len(distinct)
        m["entropy.mixing_time_useful_ratio"] = (len(distinct) / len(mix)
                                                 if mix else 0.0)
        m["entropy.worst_tv_evals"] = sum(
            1 for i in named("entropy.worst_tv")
            if spans[i][1] >= 0 and spans[spans[i][1]][0] == "entropy.mixing_time")
        m["entropy.mixing_time_s"] = total("entropy.mixing_time")
        verdict_names = {f"entropy.{v}" for v in _VERDICTS}
        m["entropy.verdicts_s"] = sum(
            dur[i] for i, s in enumerate(spans) if s[0] in verdict_names
            and (s[1] < 0 or spans[s[1]][0] not in verdict_names))

        looks = [attrs(i) for i in named("cache.HeatKernelCache.get_or_compute")
                 if attrs(i)]
        hits = sum(1 for a in looks if a["hit"])
        m["cache.lookups"] = len(looks)
        m["cache.hits"] = hits
        m["cache.hit_ratio"] = hits / len(looks) if looks else 0.0
        m["cache.digest_s"] = total("cache.matrix_digest")
        m["cache.bytes_written"] = sum(a["bytes"] for a in looks)

        m["cli.io_s"] = total("cli.write_csv", "svg.line_plot")
        m["trace.spans"] = len(spans)
        return m

    def write(self, path: str):
        t0 = self.spans[0][2] if self.spans else 0.0
        out = [{"name": s[0], "parent": s[1], "start": s[2] - t0,
                "end": s[3] - t0,
                **({k: v for k, v in s[4].items() if k != "P"}
                   if s[4] else {})}
               for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
