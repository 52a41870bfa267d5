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

from .chain import (Distribution, StochasticMatrix, heat_kernel_apply,
                    heat_kernel_row, kernel_rows)
from .errors import (CurvatureHypothesisFailed, DimensionMismatch,
                     EpsilonOutOfRange, HypothesisViolation, NoCrossing,
                     NotIrreducible, UnderflowRisk, UnsupportedState)
from .verdicts import KAPPA_SLACK, InequalityVerdict, make_verdict

if TYPE_CHECKING:
    from .families import ChainInstance

EPS_GRID = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
_LOG_FLOOR = 1e-300
# Worst TV carries the heat kernel's truncation error (up to chain._MASS_TOL
# = 1e-13), so it cannot resolve an eps near that: on complete:n=10 a search
# at eps = 1e-15 ends at t = 75.5 against the exact 31.0.
EPS_MIN = 1e-12


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

def tv_distance(mu, nu) -> float:
    """Total-variation distance 1/2 sum |mu - nu|."""
    a = mu.probs if isinstance(mu, Distribution) else np.asarray(mu, float)
    b = nu.probs if isinstance(nu, Distribution) else np.asarray(nu, float)
    if a.shape != b.shape:
        raise DimensionMismatch("distributions of different length")
    return 0.5 * float(np.abs(a - b).sum())


def _ratio_terms(mu, pi):
    a = mu.probs if isinstance(mu, Distribution) else np.asarray(mu, float)
    p = pi.probs if isinstance(pi, Distribution) else np.asarray(pi, float)
    if a.shape != p.shape:
        raise DimensionMismatch("distributions of different length")
    if np.any((a > 0) & (p <= 0)):
        raise UnsupportedState("mu charges a state outside the support of pi")
    mask = a > 0
    return a[mask], np.log(a[mask] / p[mask])


def kl_divergence(mu, pi) -> float:
    """Relative entropy sum mu log(mu/pi), with 0 log 0 = 0."""
    w, logr = _ratio_terms(mu, pi)
    return float(w @ logr)


def varentropy(mu, pi) -> float:
    """Variance of log(mu/pi) under mu."""
    w, logr = _ratio_terms(mu, pi)
    mean = w @ logr
    return float(w @ (logr - mean) ** 2)


# ---------------------------------------------------------------------------
# Worst-case profiles and mixing times
# ---------------------------------------------------------------------------

def worst_tv(P: StochasticMatrix, t: float,
             starts: Optional[Sequence[int]] = None) -> float:
    """max over starting states of ||P_t(x,.) - pi||_TV."""
    rows = kernel_rows(P, t, starts)
    return float(0.5 * np.abs(rows - P.pi.probs[None, :]).sum(axis=1).max())


def mixing_profile(P: StochasticMatrix, t_grid,
                   starts: Optional[Sequence[int]] = None) -> MixingProfile:
    pi = P.pi
    times = np.asarray(sorted(t_grid), dtype=float)
    table = []
    for t in times:
        rows = kernel_rows(P, t, starts)
        table.append(0.5 * np.abs(rows - pi.probs[None, :]).sum(axis=1))
    return MixingProfile(times=times, worst_tv=np.array(table).max(axis=1))


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
    """
    check_eps(eps)
    if not P.irreducible:
        raise NotIrreducible("mixing time requires an irreducible chain")
    if worst_tv(P, 0.0, starts) <= eps:
        return 0.0
    return _first_time(lambda t: worst_tv(P, t, starts) <= eps)


def entropy_profile(P: StochasticMatrix, t_grid,
                    starts: Optional[Sequence[int]] = None) -> EntropyProfile:
    """d*_KL and V*_KL over a time grid (max over the given start set)."""
    pi = P.pi
    times = np.asarray(sorted(t_grid), dtype=float)
    d_star, v_star = [], []
    for t in times:
        rows = kernel_rows(P, t, starts)
        d_star.append(max(kl_divergence(row, pi) for row in rows))
        v_star.append(max(varentropy(row, pi) for row in rows))
    return EntropyProfile(times=times, d_star=np.array(d_star),
                          v_star=np.array(v_star))


def d_star_at(P, t, starts=None, pi=None) -> float:
    if pi is None:
        pi = P.pi
    rows = kernel_rows(P, t, starts)
    return max(kl_divergence(row, pi) for row in rows)


def v_star_at(P, t, starts=None, pi=None) -> float:
    if pi is None:
        pi = P.pi
    rows = kernel_rows(P, t, starts)
    return max(varentropy(row, pi) for row in rows)


# ---------------------------------------------------------------------------
# Inequality verdicts
# ---------------------------------------------------------------------------

def entropic_upper_bound(inst: ChainInstance, t: float,
                         eps: float) -> InequalityVerdict:
    """t_mix(eps) <= t + (t_rel/eps) (1 + d*_KL(t))."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    lhs = inst.t_mix(eps)
    d = d_star_at(inst.matrix, t, starts=inst.starts)
    rhs = t + (inst.t_rel / eps) * (1.0 + d)
    return make_verdict("entropic-upper-bound", lhs, rhs, eps=eps, t=t)


def entropic_lower_bound_check(mu, pi, eps: float) -> InequalityVerdict:
    """If ||mu - pi||_TV <= 1 - eps then d_KL <= (1 + sqrt(V_KL)) / eps."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0,1)")
    tv = tv_distance(mu, pi)
    lhs = kl_divergence(mu, pi)
    rhs = (1.0 + math.sqrt(varentropy(mu, pi))) / eps
    if tv > 1.0 - eps:
        # Hypothesis gate fails: vacuous pass, recorded as such.
        return make_verdict("entropic-lower-bound", 0.0, 0.0, eps=eps, tv=tv,
                            vacuous=True, d_kl=lhs)
    return make_verdict("entropic-lower-bound", lhs, rhs, eps=eps, tv=tv,
                        vacuous=False)


def cutoff_window_bound(inst: ChainInstance,
                        eps: float) -> InequalityVerdict:
    """t_mix(eps) - t_mix(1-eps) <= (2 t_rel/eps^2)(1 + sqrt(V*(t_mix(1-eps))))."""
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    t_hi = inst.t_mix(eps)
    t_lo = inst.t_mix(1.0 - eps)
    v = v_star_at(inst.matrix, t_lo, starts=inst.starts)
    lhs = t_hi - t_lo
    rhs = (2.0 * inst.t_rel / eps ** 2) * (1.0 + math.sqrt(v))
    return make_verdict("cutoff-window-bound", lhs, rhs, eps=eps,
                        t_mix_eps=t_hi, t_mix_1meps=t_lo, v_star=v)


def entropic_concentration_ratio(inst: ChainInstance, eps: float) -> float:
    """[1 + sqrt(V*(t_mix(eps)))] * t_rel / t_mix(eps); small values certify
    the cutoff criterion."""
    t_mix = inst.t_mix(eps)
    if t_mix <= 0.0:
        raise ValueError("degenerate chain: t_mix(eps) = 0")
    v = v_star_at(inst.matrix, t_mix, starts=inst.starts)
    return (1.0 + math.sqrt(v)) * inst.t_rel / t_mix


def cutoff_time_equation(P: StochasticMatrix, c: float = 1.0, *,
                         starts=None) -> float:
    """Solve d*_KL(t) = c (1 + sqrt(V*_KL(t))) by doubling and bisection.

    Uses the monotone decay of d* to bracket the crossing (see _first_time);
    raises NoCrossing when even t=0 falls below the target.
    """
    if c <= 0.0:
        raise ValueError("prefactor c must be positive")
    pi = P.pi

    def g(t):
        rows = kernel_rows(P, t, starts)
        d = max(kl_divergence(row, pi) for row in rows)
        v = max(varentropy(row, pi) for row in rows)
        return d - c * (1.0 + math.sqrt(v))

    if g(0.0) < 0.0:
        raise NoCrossing("d*(0) already below c (1 + sqrt(V*(0)))")
    return _first_time(lambda t: g(t) < 0.0)


# ---------------------------------------------------------------------------
# Log-gradient, local concentration, varentropy and diameter bounds
# ---------------------------------------------------------------------------

def log_density_lip_norm(inst: ChainInstance, o: int, t: float) -> float:
    """Lipschitz norm of log(P_t(o,.)/pi) over support edges."""
    P = inst.matrix
    if not P.symmetric_support:
        raise HypothesisViolation("log-gradient requires symmetric support")
    # The truncated series must reach every state: entries at graph distance
    # k first appear at order k of the Poisson mixture.
    row = heat_kernel_row(P, o, t, min_terms=P.metric.diameter + 16).probs
    if np.any(row < _LOG_FLOOR):
        raise UnderflowRisk(
            f"heat-kernel entry below {_LOG_FLOOR} at t={t}; increase t")
    return P.lip_norm(np.log(row) - np.log(P.pi.probs))


def log_gradient_bound_check(inst: ChainInstance,
                             t: float) -> InequalityVerdict:
    """max_o ||log(P_t(o,.)/pi)||_Lip <= 3 (1 + log Delta) for t >= diam/4."""
    metric = inst.matrix.metric
    if t < metric.diameter / 4.0:
        raise HypothesisViolation(
            f"t={t} below diam/4 = {metric.diameter / 4.0}")
    olist = range(inst.matrix.n) if inst.starts is None else inst.starts
    lhs = max(log_density_lip_norm(inst, o, t) for o in olist)
    rhs = 3.0 * (1.0 + math.log(metric.delta))
    return make_verdict("log-gradient-bound", lhs, rhs, t=t,
                        delta=metric.delta)


def _lip_rhs(t: float, kappa: float) -> float:
    if kappa == 0.0:
        return 2.0 * t
    # expm1 keeps 2t to full precision where 2 t kappa is tiny.
    return -math.expm1(-2.0 * t * kappa) / kappa


def local_concentration_check(P: StochasticMatrix, f: np.ndarray, t: float,
                              kappa: float) -> InequalityVerdict:
    """Pointwise P_t(f^2) - (P_t f)^2 <= ((1-e^{-2 t kappa})/kappa) ||f||_Lip^2,
    with the kappa = 0 limit 2t ||f||_Lip^2."""
    if kappa < 0.0:
        raise CurvatureHypothesisFailed("local concentration needs kappa >= 0")
    f = np.asarray(f, dtype=np.float64)
    lip2 = P.lip_norm(f) ** 2
    var = heat_kernel_apply(P, f * f, t) - heat_kernel_apply(P, f, t) ** 2
    i = int(np.argmax(var))
    rhs = _lip_rhs(t, kappa) * lip2
    return make_verdict("local-concentration", float(var[i]), rhs,
                        t=t, kappa=kappa, state=i)


def local_concentration_sweep(P: StochasticMatrix, t_list, kappa: float,
                              n_f: int = 100,
                              seed: int = 0) -> InequalityVerdict:
    """Worst verdict over random Lipschitz observables and times."""
    rng = np.random.default_rng(seed)
    worst = None
    for t in t_list:
        for _ in range(n_f):
            f = rng.standard_normal(P.n)
            v = local_concentration_check(P, f, t, kappa)
            if worst is None or v.slack < worst.slack:
                worst = v
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
        v = v_star_at(P, t, starts=inst.starts)
        olist = range(P.n) if inst.starts is None else inst.starts
        lip = max(log_density_lip_norm(inst, o, t) for o in olist)
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
