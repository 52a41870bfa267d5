"""Ollivier-Ricci curvature via exact W1 transport with dual certificates,
and Bakry-Emery curvature via one Schur complement per vertex.

The Ollivier value reported is the one-step edge minimum, which lower-bounds
the semigroup-level constant by convexity of W1 and the triangle inequality.
The Bakry-Emery value at a vertex x is the exact infimum of
Gamma2(f,f)(x) / Gamma(f,f)(x); both forms only see f on the 2-ball of x
and ignore constants.  With f(x) = 0, Gamma(x) is diagonal on the
out-neighbours of x (the 1-sphere) and zero beyond, where Gamma2 is
diagonal, so minimizing over the outer values leaves a Schur complement on
the 1-sphere whose least eigenvalue is the infimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .chain import Distribution, MetricData, StochasticMatrix, heat_kernel
from .errors import (AsymmetricSupport, CertificateFailed, DimensionMismatch,
                     NotIrreducible)
from .spectral import gamma_form
from .verdicts import InequalityVerdict, make_verdict

DUALITY_TOL = 1e-8
# Transport variables per shared LP in ollivier_curvature: large enough to
# amortize the solver set-up, small enough that a batch stays cheap.
_LP_VARS = 1024


@dataclass(frozen=True)
class TransportPlan:
    """Exact optimal transport plan for W1 with a dual certificate.

    ``plan`` is a sparse list of (x, y, mass) moves; ``dual_potential`` is a
    1-Lipschitz Kantorovich potential f with <f, mu - nu> = value.
    """

    plan: list
    value: float
    dual_potential: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Per-edge Ollivier values and/or per-vertex Bakry-Emery values."""

    ollivier_edges: Optional[dict] = None
    ollivier_min: Optional[float] = None
    bakry_emery_vertices: Optional[dict] = None
    bakry_emery_min: Optional[float] = None


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------

def _w1_restricted(pairs, dist: np.ndarray):
    """Solve the transportation LPs of several (mu, nu) pairs together, as
    one block-diagonal LP on their restricted supports.

    Block b has the rows of its mu marginals, then of its nu marginals, and
    the columns i*k + j (mass from sup_mu[i] to sup_nu[j]).  Returns one
    (value, plan, dual_u, dual_v, sup_mu, sup_nu) per pair, where ``plan``
    is the m x k optimal transport matrix, ``value`` the sequential sum of
    cost times plan, and the duals satisfy u_i + v_j <= dist(i,j) and
    mu.u + nu.v = value within DUALITY_TOL.
    """
    blocks, costs, rows, cols, marginals = [], [], [], [], []
    n_rows = n_vars = 0
    for mu, nu in pairs:
        sup_mu = np.nonzero(mu > 0)[0]
        sup_nu = np.nonzero(nu > 0)[0]
        m, k = len(sup_mu), len(sup_nu)
        var = n_vars + np.arange(m * k)
        costs.append(dist[np.ix_(sup_mu, sup_nu)].astype(np.float64).ravel())
        rows += [n_rows + np.repeat(np.arange(m), k),
                 n_rows + m + np.tile(np.arange(k), m)]
        cols += [var, var]
        marginals += [mu[sup_mu], nu[sup_nu]]
        blocks.append((n_vars, n_rows, sup_mu, sup_nu))
        n_rows += m + k
        n_vars += m * k
    c = np.concatenate(costs)
    b = np.concatenate(marginals)
    A = csr_matrix((np.ones(2 * n_vars), (np.concatenate(rows),
                                          np.concatenate(cols))),
                   shape=(n_rows, n_vars))
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        # HiGHS can declare a feasible transport LP infeasible at its default
        # 1e-7 primal feasibility tolerance (full-support heat-kernel rows).
        res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-9})
    if not res.success:
        raise CertificateFailed(f"transport LP failed: {res.message}")
    duals = np.asarray(res.eqlin.marginals)
    out = []
    for v0, r0, sup_mu, sup_nu in blocks:
        m, k = len(sup_mu), len(sup_nu)
        x = res.x[v0:v0 + m * k]
        value = float(np.cumsum(c[v0:v0 + m * k] * x)[-1])
        b_b, y = b[r0:r0 + m + k], duals[r0:r0 + m + k]
        if abs(b_b @ y - value) > abs(b_b @ (-y) - value):
            y = -y
        gap = abs(b_b @ y - value)
        if gap > DUALITY_TOL:
            raise CertificateFailed(f"transport LP duality gap {gap:.3g}")
        out.append((value, x.reshape(m, k), y[:m], y[m:], sup_mu, sup_nu))
    return out


def wasserstein1(mu: Distribution, nu: Distribution,
                 metric: MetricData) -> TransportPlan:
    """Exact W1 between mu and nu w.r.t. the support-graph metric.

    The dual potential is extended to all states by the McShane formula
    f(z) = min_j (dist(z, y_j) - v(y_j)), which is 1-Lipschitz and attains
    the primal value, closing the duality gap exactly.
    """
    if mu.n != nu.n or mu.n != metric.dist.shape[0]:
        raise DimensionMismatch("mu, nu and metric must share the state set")
    [(value, x, _, v, sup_mu, sup_nu)] = _w1_restricted(
        [(mu.probs, nu.probs)], metric.dist)
    plan = [(int(sup_mu[i]), int(sup_nu[j]), float(x[i, j]))
            for i, j in zip(*np.nonzero(x > 1e-14))]
    potential = np.min(metric.dist[:, sup_nu] - v[None, :], axis=1)
    return TransportPlan(plan=plan, value=value, dual_potential=potential)


def ollivier_curvature(P: StochasticMatrix) -> CurvatureReport:
    """One-step Ollivier curvature kappa(x,y) = 1 - W1(P(x,.), P(y,.)) on
    every support edge; global value is the edge minimum.

    The edge LPs are solved in shared LPs of at most ``_LP_VARS`` transport
    variables each (a larger single edge gets an LP of its own).
    """
    if not P.symmetric_support:
        raise AsymmetricSupport("Ollivier curvature requires symmetric support")
    if not P.irreducible:
        raise NotIrreducible("Ollivier curvature requires irreducibility")
    dist = P.metric.dist
    E = P.entries
    sizes = np.diff(P.adjacency.indptr) + (np.diagonal(E) > 0)
    batches, n_vars = [[]], 0
    for (x, y) in P.edges():
        size = int(sizes[x] * sizes[y])
        if batches[-1] and n_vars + size > _LP_VARS:
            batches.append([])
            n_vars = 0
        batches[-1].append((x, y))
        n_vars += size
    kappas = {}
    for batch in batches:
        blocks = _w1_restricted([(E[x], E[y]) for x, y in batch], dist)
        for edge, (value, *_) in zip(batch, blocks):
            kappas[edge] = 1.0 - value
    return CurvatureReport(ollivier_edges=kappas,
                           ollivier_min=min(kappas.values()))


# ---------------------------------------------------------------------------
# Bakry-Emery
# ---------------------------------------------------------------------------

def generator_apply(P: StochasticMatrix, f: np.ndarray) -> np.ndarray:
    """Generator action (Lf)(x) = sum_y P(x,y)(f(y) - f(x))."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (P.n,):
        raise DimensionMismatch("observable length does not match state count")
    return P.entries @ f - f


def gamma2_form(P: StochasticMatrix, f: np.ndarray) -> np.ndarray:
    """Iterated form Gamma2(f,f) = 1/2 L Gamma(f,f) - Gamma(f, Lf)."""
    g = gamma_form(P, f, f)
    return 0.5 * generator_apply(P, g) - gamma_form(P, f, generator_apply(P, f))


def _local_quadratic_forms(P: StochasticMatrix, x: int):
    """Matrices (A, B, ball) of the local forms Gamma2(.,.)(x) and
    Gamma(.,.)(x) for observables restricted to the 2-ball of x.

    On the ball, with p_y the off-diagonal row of P at y (complete for y in
    the 1-ball), Gamma(.,.)(y) has the matrix
    G_y = 1/2 (diag p_y - p_y e_y^T - e_y p_y^T + |p_y| e_y e_y^T), and
    Gamma(., L.)(x) the matrix C = 1/2 sum_y P(x,y)(e_y - e_x)(L_y - L_x)^T
    with L_y the generator row at y.  B = G_x and
    A = 1/2 sum_{y != x} P(x,y) G_y - 1/2 G_x - 1/2 (C + C^T).  The holding
    term 1/2 P(x,x) G_x of 1/2 L Gamma(x) is not in A, so on a lazy chain
    kappa(x) is the exact infimum minus P(x,x)/2, a lower bound.
    """
    adj = P.adjacency
    n1 = adj.indices[adj.indptr[x]:adj.indptr[x + 1]]
    ball = np.unique(np.concatenate(([x], n1, adj[n1].indices)))
    ix = int(np.searchsorted(ball, x))
    S = P.entries[np.ix_(ball, ball)]
    W = S - np.diag(np.diag(S))
    dL = S - np.eye(len(ball))
    dL -= dL[ix]                         # rows L_y - L_x

    def gamma_sum(c):
        # Matrix of sum_y c_y Gamma(.,.)(y).
        D = c[:, None] * W
        return 0.5 * (np.diag(c @ W + D.sum(axis=1)) - (D + D.T))

    w = W[ix]
    B = gamma_sum(np.eye(len(ball))[ix])
    C = w[:, None] * dL
    C[ix] -= w @ dL
    A = 0.5 * gamma_sum(w) - 0.5 * B - 0.25 * (C + C.T)
    return A, B, ball


def bakry_emery_vertex(P: StochasticMatrix, x: int):
    """Exact kappa(x) = inf_f Gamma2(f,f)(x) / Gamma(f,f)(x), plus a
    minimizing observable (length n, supported on the 2-ball).

    Both forms ignore constants, so f(x) = 0.  On the out-neighbours y of x
    (near), Gamma(.,.)(x) is D = diag(P(x,y)/2); it is zero on the rest of
    the 2-ball (far), where the Gamma2 block is diagonal with entries
    a_z = 1/4 sum_y P(x,y) P(y,z) > 0.  Minimizing over f_far leaves
    f_far = -A_fn f_near / a and the Schur complement
    S = A_nn - A_nf diag(a)^-1 A_fn, so
    kappa(x) = lambda_min(D^-1/2 S D^-1/2) and f_near = D^-1/2 v.
    """
    A, _, ball = _local_quadratic_forms(P, x)
    adj = P.adjacency
    lo, hi = adj.indptr[x], adj.indptr[x + 1]
    if lo == hi:
        raise NotIrreducible(f"state {x} has no out-neighbour")
    near = np.searchsorted(ball, adj.indices[lo:hi])
    far = np.setdiff1d(np.arange(len(ball)),
                       np.append(near, np.searchsorted(ball, x)))
    A_nf = A[np.ix_(near, far)]
    a = np.diagonal(A)[far]
    S = A[np.ix_(near, near)] - (A_nf / a) @ A_nf.T
    r = 1.0 / np.sqrt(0.5 * adj.data[lo:hi])
    evals, evecs = np.linalg.eigh(r[:, None] * S * r[None, :])
    f_near = r * evecs[:, 0]
    f = np.zeros(P.n)
    f[ball[near]] = f_near
    f[ball[far]] = -(f_near @ A_nf) / a
    return float(evals[0]), f


def bakry_emery_curvature(P: StochasticMatrix, samples: int = 1000,
                          seed: int = 0) -> CurvatureReport:
    """Per-vertex Bakry-Emery curvature with random-sampling validation.

    For each vertex, ``samples`` random local observables must have Rayleigh
    quotient >= kappa(x) - 1e-8 whenever Gamma(f,f)(x) > 1e-12.
    """
    if not P.irreducible:
        raise NotIrreducible("Bakry-Emery curvature requires irreducibility")
    rng = np.random.default_rng(seed)
    kappas = {}
    for x in range(P.n):
        kappa, _ = bakry_emery_vertex(P, x)
        kappas[x] = kappa
        if samples > 0:
            A, B, ball = _local_quadratic_forms(P, x)
            F = rng.standard_normal((len(ball), samples))
            num = np.einsum("im,ij,jm->m", F, A, F)
            den = np.einsum("im,ij,jm->m", F, B, F)
            ok = den > 1e-12
            if np.any(num[ok] / den[ok] < kappa - 1e-8):
                raise CertificateFailed(
                    f"sampled Rayleigh quotient below kappa({x})={kappa}")
    return CurvatureReport(bakry_emery_vertices=kappas,
                           bakry_emery_min=min(kappas.values()))


def full_curvature_report(P: StochasticMatrix, samples: int = 1000,
                          seed: int = 0) -> CurvatureReport:
    """Both curvature notions in one report."""
    olli = ollivier_curvature(P)
    be = bakry_emery_curvature(P, samples=samples, seed=seed)
    return CurvatureReport(ollivier_edges=olli.ollivier_edges,
                           ollivier_min=olli.ollivier_min,
                           bakry_emery_vertices=be.bakry_emery_vertices,
                           bakry_emery_min=be.bakry_emery_min)


# ---------------------------------------------------------------------------
# Semigroup-level checks
# ---------------------------------------------------------------------------

def contraction_check(P: StochasticMatrix, kappa: float, t_grid,
                      seed: int = 0, n_f: int = 100) -> InequalityVerdict:
    """Lipschitz contraction ||P_t f||_Lip <= e^{-kappa t} ||f||_Lip on
    random Lipschitz-normalized f, plus the W1 form on adjacent pairs on
    chains of at most 128 states (one dense LP per edge is too slow above)."""
    dist = P.metric.dist
    edges = P.edges()
    rng = np.random.default_rng(seed)
    worst = None
    for t in t_grid:
        K = heat_kernel(P, t)
        decay = float(np.exp(-kappa * t))
        for _ in range(n_f):
            f = rng.standard_normal(P.n)
            lip = P.lip_norm(f)
            if lip == 0.0:
                continue
            f = f / lip
            lhs = P.lip_norm(K @ f)
            cand = make_verdict("lipschitz-contraction", lhs, decay,
                                t=t, kappa=kappa)
            if worst is None or cand.slack < worst.slack:
                worst = cand
        if P.n <= 128:
            # One LP per edge: in a shared LP, HiGHS's 1e-7 primal
            # feasibility tolerance moves W1 between these full-support
            # rows by up to 3e-7, so the per-edge values would drift.
            for (x, y) in edges:
                [(value, *_)] = _w1_restricted([(K[x], K[y])], dist)
                cand = make_verdict("w1-contraction", value, decay,
                                    t=t, kappa=kappa, edge=(x, y))
                if worst is None or cand.slack < worst.slack:
                    worst = cand
    return worst


def subcommutativity_check(P: StochasticMatrix, kappa: float, t_grid,
                           seed: int = 0, n_f: int = 100) -> InequalityVerdict:
    """Pointwise Gamma(P_t f, P_t f) <= e^{-2 kappa t} P_t Gamma(f,f)."""
    rng = np.random.default_rng(seed)
    worst = None
    for t in t_grid:
        K = heat_kernel(P, t)
        decay = float(np.exp(-2.0 * kappa * t))
        for _ in range(n_f):
            f = rng.standard_normal(P.n)
            g = K @ f
            lhs_vec = gamma_form(P, g, g)
            rhs_vec = decay * (K @ gamma_form(P, f, f))
            i = int(np.argmax(lhs_vec - rhs_vec))
            cand = make_verdict("subcommutativity", float(lhs_vec[i]),
                                float(rhs_vec[i]), t=t, kappa=kappa, state=i)
            if worst is None or cand.slack < worst.slack:
                worst = cand
    return worst
