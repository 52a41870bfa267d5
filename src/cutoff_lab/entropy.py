"""Mixing profiles, KL divergence, varentropy, and the quantitative
inequalities relating them: entropic upper/lower bounds, the cutoff window
bound, the varentropy estimate, the logarithmic gradient estimate, the
local concentration inequality and the diameter bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
import numpy.random  # noqa: F401  (lazy in numpy 2: load it at import)

from .chain import (_MASS_TOL, Distribution, StochasticMatrix, _KernelRows,
                    _poisson_pmf, heat_kernel_apply, kernel_rows)
from .errors import (CurvatureHypothesisFailed, DimensionMismatch,
                     EpsilonOutOfRange, HypothesisViolation, NoCrossing,
                     NotIrreducible, UnderflowRisk, UnsupportedState)
from .verdicts import KAPPA_SLACK, InequalityVerdict, make_verdict

if TYPE_CHECKING:
    from .families import ChainInstance

EPS_GRID = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
_LOG_FLOOR = 1e-300
# Standard normal observables per t in local_concentration_sweep.
_CONCENTRATION_DRAWS = 100
# Worst TV carries the kernel's truncation error (chain._MASS_TOL = 1e-13),
# which moves t_mix(eps) by about 1e-13 t_rel/eps: that stays under the
# bisection tolerance 1e-4 t_mix only for eps >~ 1e-10.
EPS_MIN = 1e3 * _MASS_TOL


def check_eps(eps: float) -> None:
    """Refuse an eps below EPS_MIN or not below 1."""
    if not (EPS_MIN <= eps < 1.0):
        raise EpsilonOutOfRange(f"eps must lie in [{EPS_MIN:g}, 1): {eps!r}")


@dataclass(frozen=True)
class MixingProfile:
    """Sampled map t -> worst-case TV distance to pi."""

    times: np.ndarray
    worst_tv: np.ndarray


@dataclass(frozen=True)
class EntropyProfile:
    """Worst-case relative entropy d* and varentropy V* along a time grid."""

    times: np.ndarray
    d_star: np.ndarray
    v_star: np.ndarray


# ---------------------------------------------------------------------------
# Distances and entropies
# ---------------------------------------------------------------------------

def _probs(mu) -> np.ndarray:
    return mu.probs if isinstance(mu, Distribution) else np.asarray(mu, float)


def tv_distance(mu, nu) -> float:
    """Total-variation distance 1/2 sum |mu - nu|."""
    a, b = _probs(mu), _probs(nu)
    if a.shape != b.shape:
        raise DimensionMismatch("distributions of different length")
    return 0.5 * float(np.abs(a - b).sum())


def _row_entropies(rows: np.ndarray, pi) -> tuple[np.ndarray, np.ndarray]:
    """Relative entropy sum_y w log(w/pi) and varentropy, the variance of
    log(w/pi) under w, of each row w of ``rows`` (0 log 0 = 0).

    One logarithm per charged entry, taken in place in the one temporary
    the size of ``rows``, which is then reused for the squared deviations.
    """
    p = _probs(pi)
    if rows.ndim != 2 or rows.shape[1:] != p.shape:
        raise DimensionMismatch("distributions of different length")
    if np.any(rows[:, p <= 0] > 0):
        raise UnsupportedState("mu charges a state outside the support of pi")
    charged = rows > 0
    logr = np.divide(rows, p, out=np.ones_like(rows), where=charged)
    np.log(logr, out=logr)
    # Batched row dot products: einsum sums each row in sequence, 1e-14
    # off a hypercube:d=11 row's KL against 1e-15 for a dot product.
    kl = (rows[:, None, :] @ logr[:, :, None])[:, 0, 0]
    logr -= kl[:, None]
    np.square(logr, out=logr)
    return kl, (rows[:, None, :] @ logr[:, :, None])[:, 0, 0]


def kl_divergence(mu, pi) -> float:
    """Relative entropy sum mu log(mu/pi), with 0 log 0 = 0."""
    return float(_row_entropies(_probs(mu)[None], pi)[0][0])


def varentropy(mu, pi) -> float:
    """Variance of log(mu/pi) under mu."""
    return float(_row_entropies(_probs(mu)[None], pi)[1][0])


# ---------------------------------------------------------------------------
# Worst-case profiles and mixing times
# ---------------------------------------------------------------------------

def _row_tvs(rows: np.ndarray, pi: Distribution) -> np.ndarray:
    """||row - pi||_TV for each row (one temporary the size of ``rows``)."""
    dev = rows - pi.probs[None, :]
    return 0.5 * np.abs(dev, out=dev).sum(axis=1)


def worst_tv(P: StochasticMatrix, t: float,
             starts: Optional[Sequence[int]] = None) -> float:
    """max over starting states of ||P_t(x,.) - pi||_TV."""
    return float(_row_tvs(kernel_rows(P, t, starts), P.pi).max())


def worst_profile(rows_at, pi: Distribution, times) -> np.ndarray:
    """Worst TV, d*_KL and V*_KL over the rows ``rows_at(t)`` at each t of
    ``times``: the rows of a (3, len(times)) array, each row block read and
    scored once.  ``rows_at`` is a _KernelRows(P, starts) or any callable
    t -> rows (the CLI's cached rows)."""
    table = np.empty((3, len(times)))
    for j, t in enumerate(times):
        rows = rows_at(t)
        table[0, j] = _row_tvs(rows, pi).max()
        table[1:, j] = [a.max() for a in _row_entropies(rows, pi)]
    return table


def mixing_profile(P: StochasticMatrix, t_grid,
                   starts: Optional[Sequence[int]] = None) -> MixingProfile:
    times = np.asarray(sorted(t_grid), dtype=float)
    return MixingProfile(times=times, worst_tv=worst_profile(
        _KernelRows(P, starts), P.pi, times)[0])


def _first_time(below) -> float:
    """Smallest t > 0 with below(t), for a predicate that stays true once it
    holds: double t from 1 until below(t), then bisect the last bracket
    [lo, hi] to within 1e-4 max(1, hi) and return its midpoint."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        if below(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoCrossing("no crossing found while doubling t to 2^64")
    tol = 1e-4 * max(1.0, hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def mixing_time(P: StochasticMatrix, eps: float, *,
                starts: Optional[Sequence[int]] = None) -> float:
    """Smallest t with worst-case TV <= eps, by doubling then bisection.

    Uses monotonicity of the worst-case TV in t; the answer is within
    1e-4 times the bracket scale of the true crossing (see _first_time).
    A start set keeps one power sequence for the whole search; over full
    kernels each doubling step is one squaring of a dyadic rung and each
    bisection step one product K_lo P_delta (see chain._KernelRows).
    """
    check_eps(eps)
    if not P.irreducible:
        raise NotIrreducible("mixing time requires an irreducible chain")
    rows_at = _KernelRows(P, starts)

    def below(t):
        return _row_tvs(rows_at(t), P.pi).max() <= eps
    if below(0.0):
        return 0.0
    return _first_time(below)


def entropy_profile(P: StochasticMatrix, t_grid,
                    starts: Optional[Sequence[int]] = None) -> EntropyProfile:
    """d*_KL and V*_KL over a time grid (max over the given start set)."""
    times = np.asarray(sorted(t_grid), dtype=float)
    _, d_star, v_star = worst_profile(_KernelRows(P, starts), P.pi, times)
    return EntropyProfile(times=times, d_star=d_star, v_star=v_star)


def d_star_at(P, t, starts=None, pi=None) -> float:
    rows = kernel_rows(P, t, starts)
    return float(_row_entropies(rows, P.pi if pi is None else pi)[0].max())


def v_star_at(P, t, starts=None, pi=None) -> float:
    rows = kernel_rows(P, t, starts)
    return float(_row_entropies(rows, P.pi if pi is None else pi)[1].max())


# ---------------------------------------------------------------------------
# Inequality verdicts
# ---------------------------------------------------------------------------

def entropic_upper_bound(inst: ChainInstance, t: float,
                         eps: float) -> InequalityVerdict:
    """t_mix(eps) <= t + (t_rel/eps) (1 + d*_KL(t))."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    lhs = inst.t_mix(eps)
    rhs = t + (inst.t_rel / eps) * (1.0 + inst.entropies(t).d_star)
    return make_verdict("entropic-upper-bound", lhs, rhs, eps=eps, t=t)


def entropic_lower_bound_check(mu, pi, eps: float) -> InequalityVerdict:
    """If ||mu - pi||_TV <= 1 - eps then d_KL <= (1 + sqrt(V_KL)) / eps."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    tv = tv_distance(mu, pi)
    kl, var = _row_entropies(_probs(mu)[None], pi)
    lhs = float(kl[0])
    rhs = (1.0 + math.sqrt(var[0])) / eps
    if tv > 1.0 - eps:
        # Hypothesis gate fails: vacuous pass, recorded as such.
        return make_verdict("entropic-lower-bound", 0.0, 0.0, eps=eps, tv=tv,
                            vacuous=True, d_kl=lhs)
    return make_verdict("entropic-lower-bound", lhs, rhs, eps=eps, tv=tv,
                        vacuous=False)


def cutoff_window_bound(inst: ChainInstance, eps: float) -> InequalityVerdict:
    """t_mix(eps) - t_mix(1-eps) <= (2 t_rel/eps^2)(1 + sqrt(V*(t_mix(1-eps))))."""
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    t_hi = inst.t_mix(eps)
    t_lo = inst.t_mix(1.0 - eps)
    v = inst.entropies(t_lo).v_star
    lhs = t_hi - t_lo
    rhs = (2.0 * inst.t_rel / eps ** 2) * (1.0 + math.sqrt(v))
    return make_verdict("cutoff-window-bound", lhs, rhs, eps=eps,
                        t_mix_eps=t_hi, t_mix_1meps=t_lo, v_star=v)


def entropic_concentration_ratio(inst: ChainInstance, eps: float) -> float:
    """[1 + sqrt(V*(t_mix(eps)))] * t_rel / t_mix(eps); small values certify
    the cutoff criterion.  inf when t_mix(eps) = 0."""
    t_mix = inst.t_mix(eps)
    if t_mix <= 0.0:
        return math.inf
    v = inst.entropies(t_mix).v_star
    return (1.0 + math.sqrt(v)) * inst.t_rel / t_mix


def cutoff_time_equation(P: StochasticMatrix, c: float = 1.0, *,
                         starts=None) -> float:
    """Solve d*_KL(t) = c (1 + sqrt(V*_KL(t))) by doubling and bisection.

    Uses the monotone decay of d* to bracket the crossing (see _first_time);
    raises NoCrossing when even t=0 falls below the target.
    """
    if c <= 0.0:
        raise ValueError("prefactor c must be positive")
    rows_at = _KernelRows(P, starts)

    def g(t):
        _, d, v = worst_profile(rows_at, P.pi, [t])[:, 0]
        return d - c * (1.0 + math.sqrt(v))

    if g(0.0) < 0.0:
        raise NoCrossing("d*(0) already below c (1 + sqrt(V*(0)))")
    return _first_time(lambda t: g(t) < 0.0)


# ---------------------------------------------------------------------------
# Log-gradient, local concentration, varentropy and diameter bounds
# ---------------------------------------------------------------------------

def log_density_lip_norm(inst: ChainInstance, o: int, t: float) -> float:
    """Lipschitz norm of log(P_t(o,.)/pi) over support edges."""
    return _max_log_lip(inst.matrix, t, [o])


def _max_log_lip(P: StochasticMatrix, t: float,
                 starts: Optional[Sequence[int]]) -> float:
    """max over o in ``starts`` of ||log(P_t(o,.)/pi)||_Lip; over every
    state, all rows from one full kernel, when ``starts`` is None."""
    if not P.symmetric_support:
        raise HypothesisViolation("log-gradient requires symmetric support")
    # The truncated series must reach every state: entries at graph distance
    # k first appear at order k of the Poisson mixture.
    reach = P.metric.diameter + 16
    rows_at = _KernelRows(P, starts)
    rows = rows_at(t, min_terms=reach)
    if np.any(rows < _LOG_FLOOR):
        raise UnderflowRisk(
            f"heat-kernel entry below {_LOG_FLOOR} at t={t}; increase t")
    if starts is not None:
        # Entries fall short by up to the Poisson tail left out: extend the
        # series until that is below 1e-12 of the smallest entry.
        q, _ = _poisson_pmf(t, 1e-12 * rows.min(), reach)
        rows = rows_at(t, min_terms=len(q) - 1)
    return float(P.lip_norms(np.log(rows) - np.log(P.pi.probs)).max())


def log_gradient_bound_check(inst: ChainInstance,
                             t: float) -> InequalityVerdict:
    """max_o ||log(P_t(o,.)/pi)||_Lip <= 3 (1 + log Delta) for t >= diam/4."""
    metric = inst.matrix.metric
    if t < metric.diameter / 4.0:
        raise HypothesisViolation(
            f"t={t} below diam/4 = {metric.diameter / 4.0}")
    lhs = inst.log_lip(t)
    rhs = 3.0 * (1.0 + math.log(metric.delta))
    return make_verdict("log-gradient-bound", lhs, rhs, t=t,
                        delta=metric.delta)


def _lip_rhs(t: float, kappa: float) -> float:
    if kappa == 0.0:
        return 2.0 * t
    # expm1 keeps 2t to full precision where 2 t kappa is tiny.
    return -math.expm1(-2.0 * t * kappa) / kappa


def _concentration_verdict(P: StochasticMatrix, f: np.ndarray,
                           var: np.ndarray, t: float,
                           kappa: float) -> InequalityVerdict:
    """Verdict at the state where var = P_t(f^2) - (P_t f)^2 peaks."""
    i = int(np.argmax(var))
    rhs = _lip_rhs(t, kappa) * P.lip_norm(f) ** 2
    return make_verdict("local-concentration", float(var[i]), rhs,
                        t=t, kappa=kappa, state=i)


def local_concentration_check(P: StochasticMatrix, f: np.ndarray, t: float,
                              kappa: float) -> InequalityVerdict:
    """Pointwise P_t(f^2) - (P_t f)^2 <= ((1-e^{-2 t kappa})/kappa) ||f||_Lip^2,
    with the kappa = 0 limit 2t ||f||_Lip^2."""
    if kappa < 0.0:
        raise CurvatureHypothesisFailed("local concentration needs kappa >= 0")
    f = np.asarray(f, dtype=np.float64)
    var = heat_kernel_apply(P, f * f, t) - heat_kernel_apply(P, f, t) ** 2
    return _concentration_verdict(P, f, var, t, kappa)


def local_concentration_sweep(P: StochasticMatrix, kernels, kappa: float,
                              seed: int = 0) -> InequalityVerdict:
    """Worst verdict over random Lipschitz observables and times.

    The verdict of a loop of local_concentration_check over the same
    observables (_CONCENTRATION_DRAWS standard normal draws per t, in
    order; the first of equal slacks wins), with P_t applied to all of
    them through the full kernel K of each (t, K = heat_kernel(P, t)) of
    ``kernels``.  Each t takes the draws' Lipschitz norms in one block and
    their slacks in the Python floats of _concentration_verdict; only the
    worst verdict is built.
    """
    if kappa < 0.0:
        raise CurvatureHypothesisFailed("local concentration needs kappa >= 0")
    rng = np.random.default_rng(seed)
    worst = None
    for t, K in kernels:
        F = rng.standard_normal((_CONCENTRATION_DRAWS, P.n))
        moments = np.concatenate([F * F, F]) @ K.T
        var = moments[:len(F)] - moments[len(F):] ** 2
        peaks = var[np.arange(len(F)), np.argmax(var, axis=1)]
        rate = _lip_rhs(t, kappa)
        slacks = [rate * lip ** 2 - peak for lip, peak in
                  zip(P.lip_norms(F).tolist(), peaks.tolist())]
        i = int(np.argmin(slacks))
        if worst is None or slacks[i] < worst.slack:
            worst = _concentration_verdict(P, F[i], var[i], t, kappa)
    return worst


def varentropy_bound_check(inst: ChainInstance, eps: float, kappa: float):
    """Both forms of the varentropy estimate at t = t_mix(eps):

    1. V*_KL <= 18 t (1 + log Delta)^2;
    2. V*_KL <= 2 t (max_o ||log(P_t(o,.)/pi)||_Lip)^2.

    Returns a list of two verdicts.  Requires a non-negatively curved chain:
    ``kappa`` is the certified curvature (max of the two curvature minima).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    if kappa < -KAPPA_SLACK:
        raise CurvatureHypothesisFailed(
            f"chain not certified non-negatively curved (kappa={kappa})")
    P = inst.matrix
    t = inst.t_mix(eps)
    if t == 0.0:
        # Point masses have zero varentropy; both bounds hold as 0 <= 0.
        v, lip = 0.0, 0.0
    else:
        v = inst.entropies(t).v_star
        lip = inst.log_lip(t)
    v18 = make_verdict("varentropy-bound-18", v,
                       18.0 * t * (1.0 + math.log(P.metric.delta)) ** 2,
                       eps=eps, t_mix=t)
    vcomp = make_verdict("varentropy-bound-composition", v,
                         2.0 * t * lip ** 2, eps=eps, t_mix=t, log_lip=lip)
    return [v18, vcomp]


def diameter_bound_check(inst: ChainInstance,
                         eps: float) -> InequalityVerdict:
    """diam <= 2 t_mix(eps) + sqrt(8 t_mix(eps)/(1-eps)) + sqrt(8 t_rel/(1-eps))."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    t = inst.t_mix(eps)
    rhs = 2.0 * t + math.sqrt(8.0 * t / (1.0 - eps)) \
        + math.sqrt(8.0 * inst.t_rel / (1.0 - eps))
    return make_verdict("diameter-bound", float(inst.matrix.metric.diameter),
                        rhs, eps=eps, t_mix=t)
