"""Ollivier-Ricci curvature via W1 transport LPs solved by HiGHS, each value
checked against its dual objective to DUALITY_TOL, and Bakry-Emery
curvature via one Schur complement per vertex.

The LPs go to the HiGHS binding that scipy bundles,
``scipy.optimize._highspy._core``, which this module loads at import as
that one extension module (chain._load_bundled): scipy.optimize's package
init (linprog, shgo, scipy.spatial, scipy.special) is never run for it.  If
scipy moves or renames the binding, importing this module raises
ImportError.

The LP value is HiGHS's (see ``linprog``), not exact W1: HiGHS works to its
feasibility tolerances, and on a drifting birth-death chain its value was
measured up to 2.2e-5 relative below W1 (ROADMAP D13).

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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.random  # noqa: F401  (lazy in numpy 2: load it at import)

from .chain import Distribution, MetricData, StochasticMatrix, _load_bundled
from .errors import (AsymmetricSupport, CertificateFailed, DimensionMismatch,
                     NotIrreducible)
from .spectral import gamma_form
from .verdicts import VERDICT_TOL, InequalityVerdict, make_verdict


highs = _load_bundled("scipy.optimize._highspy._core")
# Sorted sets of states come from np.bincount: np.unique without
# return_index, and np.setdiff1d, import numpy.ma on first use (16 ms).

DUALITY_TOL = 1e-8
# Slack kept below the tree bound before contraction_check skips an edge's
# LP.  A returned LP value v is within DUALITY_TOL of its dual objective
# <b, y>, and <b, y> exceeds W1 by at most HiGHS's 1e-7 dual feasibility
# tolerance times the transported mass 1, so v <= W1 + 1.1e-7 <= U + 1.1e-7
# for the tree bound U >= W1; 1e-6 leaves 9x headroom over that.
_SCREEN_MARGIN = 1e-6
# Transport variables per shared LP in ollivier_curvature: large enough to
# amortize the solver set-up, small enough that a batch stays cheap.
_LP_VARS = 1024
_OPTIMAL = highs.HighsModelStatus.kOptimal
_DUAL_SIMPLEX = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual


@dataclass(frozen=True)
class TransportPlan:
    """Optimal transport plan for W1 with a dual potential.

    ``plan`` is a sparse list of (x, y, mass) moves; ``dual_potential`` is
    a 1-Lipschitz f, so <f, mu - nu> <= W1(mu, nu).
    """

    plan: list
    value: float
    dual_potential: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Per-edge Ollivier values and/or per-vertex Bakry-Emery values.

    ``ollivier_edges`` maps each edge (x, y) to its kappa and
    ``bakry_emery_vertices`` each vertex x to its kappa; when the report was
    computed with a start set, they hold only the edges with an endpoint in
    it, or only its vertices, and the minima are taken over those.
    """

    ollivier_edges: Optional[dict] = None
    ollivier_min: Optional[float] = None
    bakry_emery_vertices: Optional[dict] = None
    bakry_emery_min: Optional[float] = None


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------

def linprog(c: np.ndarray, index: np.ndarray, b: np.ndarray,
            primal_tol: Optional[float] = None):
    """Solve min c.x s.t. A x = b, x >= 0 with HiGHS, where column j of A
    has unit entries in rows index[2j] < index[2j+1] and no others.

    The model goes straight to the HiGHS binding that scipy bundles, with
    the options ``scipy.optimize.linprog(method="highs")`` sets (dual
    simplex, presolve on), so the solution is bit for bit that wrapper's.
    ``primal_tol`` overrides the 1e-7 primal feasibility tolerance.
    Returns (model status, x, row duals); x and the duals are None unless
    the status is optimal.
    """
    # The binding copies Python lists into HiGHS's vectors about twice as
    # fast as it iterates numpy arrays.
    n = len(c)
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(b)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = list(range(0, 2 * n + 1, 2))
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = [1.0] * (2 * n)
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [math.inf] * n
    lp.row_lower_ = lp.row_upper_ = b.tolist()
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _DUAL_SIMPLEX
    options.output_flag = options.log_to_console = False
    if primal_tol is not None:
        options.primal_feasibility_tolerance = primal_tol
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != _OPTIMAL:
        return status, None, None
    solution = solver.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_dual)


def _w1_restricted(pairs, metric: MetricData):
    """Solve the transportation LPs of several (mu, nu) pairs together, as
    one block-diagonal LP on their restricted supports.

    Block b has the rows of its mu marginals, then of its nu marginals, and
    the columns i*k + j (mass from sup_mu[i] to sup_nu[j]).  Returns one
    (value, plan, dual_u, dual_v, sup_mu, sup_nu) per pair, where ``plan``
    is the m x k optimal transport matrix, ``value`` the sequential sum of
    cost times plan, and the duals satisfy u_i + v_j <= dist(i,j) and
    mu.u + nu.v = value within DUALITY_TOL.  The costs are the metric's
    block on sup_mu x sup_nu.
    """
    blocks, costs, index, marginals = [], [], [], []
    n_rows = n_vars = 0
    for mu, nu in pairs:
        sup_mu = np.nonzero(mu > 0)[0]
        sup_nu = np.nonzero(nu > 0)[0]
        m, k = len(sup_mu), len(sup_nu)
        costs.append(metric.block(sup_mu, sup_nu).astype(np.float64).ravel())
        index.append(np.stack([n_rows + np.repeat(np.arange(m), k),
                               n_rows + m + np.tile(np.arange(k), m)],
                              axis=1).ravel())
        marginals += [mu[sup_mu], nu[sup_nu]]
        blocks.append((n_vars, n_rows, sup_mu, sup_nu))
        n_rows += m + k
        n_vars += m * k
    c = np.concatenate(costs)
    index = np.concatenate(index)
    b = np.concatenate(marginals)
    status, x_all, duals = linprog(c, index, b)
    if status != _OPTIMAL:
        # HiGHS can declare a feasible transport LP infeasible at its default
        # 1e-7 primal feasibility tolerance (full-support heat-kernel rows).
        status, x_all, duals = linprog(c, index, b, primal_tol=1e-9)
    if status != _OPTIMAL:
        raise CertificateFailed(
            f"transport LP failed: HiGHS model status {status.name}")
    out = []
    for v0, r0, sup_mu, sup_nu in blocks:
        m, k = len(sup_mu), len(sup_nu)
        x = x_all[v0:v0 + m * k]
        value = float(np.cumsum(c[v0:v0 + m * k] * x)[-1])
        y = duals[r0:r0 + m + k]
        gap = abs(b[r0:r0 + m + k] @ y - value)
        if gap > DUALITY_TOL:
            raise CertificateFailed(f"transport LP duality gap {gap:.3g}")
        out.append((value, x.reshape(m, k), y[:m], y[m:], sup_mu, sup_nu))
    return out


def wasserstein1(mu: Distribution, nu: Distribution,
                 metric: MetricData) -> TransportPlan:
    """W1 between mu and nu w.r.t. the support-graph metric, by an LP.

    The dual potential is extended to all states by the McShane formula
    f(z) = min_j (dist(z, y_j) - v(y_j)), which is 1-Lipschitz, so
    <f, mu - nu> is a lower bound on W1; it need not equal ``value``.
    """
    if mu.n != nu.n or mu.n != metric.n:
        raise DimensionMismatch("mu, nu and metric must share the state set")
    [(value, x, _, v, sup_mu, sup_nu)] = _w1_restricted(
        [(mu.probs, nu.probs)], metric)
    plan = [(int(sup_mu[i]), int(sup_nu[j]), float(x[i, j]))
            for i, j in zip(*np.nonzero(x > 1e-14))]
    potential = np.min(metric.block(np.arange(mu.n), sup_nu) - v[None, :],
                       axis=1)
    return TransportPlan(plan=plan, value=value, dual_potential=potential)


def _tree_w1_bounds(P: StochasticMatrix, K: np.ndarray, pairs) -> np.ndarray:
    """Upper bounds U >= W1(K[x], K[y]) for each (x, y) of ``pairs``: W1 for
    the metric of a BFS spanning tree from state 0, which dominates the
    graph metric.

    The parent of v is its first out-neighbour one step closer to 0, by
    the metric's BFS row from 0.  On a tree W1 is the sum over tree edges
    (v, parent) of |mass of mu - nu on the root side of the edge|, outside
    the subtree of v, so U is one product of the row differences with the
    (n, n - 1) root-side indicator.  On a path this is
    sum |cumsum(mu - nu)|, exact.
    """
    depth = P.metric.rows[0]
    adj = P.adjacency
    row = adj.row
    closer = depth[adj.indices] == depth[row] - 1
    kids, first = np.unique(row[closer], return_index=True)
    parent = np.zeros(P.n, dtype=np.int64)
    parent[kids] = adj.indices[closer][first]
    # root_side[w, v] = 0 when v is w or one of its ancestors below 0.
    root_side = np.ones((P.n, P.n))
    w, v = np.arange(P.n), np.arange(P.n)
    while np.any(v):
        root_side[w, v] = 0.0
        v = parent[v]
    xs, ys = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return np.abs((K[xs] - K[ys]) @ root_side[:, 1:]).sum(axis=1)


def _vertices(P: StochasticMatrix, starts) -> list:
    """The vertices of ``starts``; every vertex when it is None."""
    if starts is None:
        return list(range(P.n))
    if len(starts) == 0 or not all(0 <= x < P.n for x in starts):
        raise DimensionMismatch(f"bad start set {list(starts)} for {P.n} "
                                f"states")
    return list(starts)


def _edges_at(P: StochasticMatrix, starts) -> list:
    """Support edges with an endpoint in ``starts``, in P.edges() order;
    every edge when ``starts`` is None."""
    keep = set(_vertices(P, starts))
    return [(x, y) for x, y in P.edges() if x in keep or y in keep]


def ollivier_curvature(P: StochasticMatrix, starts=None) -> CurvatureReport:
    """One-step Ollivier curvature kappa(x,y) = 1 - W1(P(x,.), P(y,.)) on
    every support edge, or on the edges with an endpoint in ``starts``;
    global value is the edge minimum.

    On a vertex-transitive chain an automorphism of P carries every edge
    onto an edge at a start vertex, so the start set's minimum is the
    global one.  The edge LPs are solved in shared LPs of at most
    ``_LP_VARS`` transport variables each (a larger single edge gets an LP
    of its own).
    """
    if not P.symmetric_support:
        raise AsymmetricSupport("Ollivier curvature requires symmetric support")
    if not P.irreducible:
        raise NotIrreducible("Ollivier curvature requires irreducibility")
    metric = P.metric
    edges = _edges_at(P, starts)
    ends = np.flatnonzero(np.bincount(np.ravel(edges)))
    E = dict(zip(ends.tolist(), P.csr.dense_rows(ends)))     # rows P(x, .)
    sizes = {x: np.count_nonzero(row > 0) for x, row in E.items()}
    batches, n_vars = [[]], 0
    for (x, y) in edges:
        size = int(sizes[x] * sizes[y])
        if batches[-1] and n_vars + size > _LP_VARS:
            batches.append([])
            n_vars = 0
        batches[-1].append((x, y))
        n_vars += size
    kappas = {}
    for batch in batches:
        blocks = _w1_restricted([(E[x], E[y]) for x, y in batch], metric)
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


def _ball_block(P: StochasticMatrix, ball: np.ndarray) -> np.ndarray:
    """The dense P[ball, ball] for sorted ``ball``, from its CSR rows."""
    ind = P.csr.indices
    at, counts = P.csr.gather(ball)
    j = np.searchsorted(ball, ind[at])
    hit = ball[np.minimum(j, len(ball) - 1)] == ind[at]
    S = np.zeros((len(ball), len(ball)))
    rows = np.repeat(np.arange(len(ball)), counts)
    S[rows[hit], j[hit]] = P.csr.data[at[hit]]
    return S


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
    ind, ptr = P.adjacency.indices, P.adjacency.indptr
    n1 = ind[ptr[x]:ptr[x + 1]]
    ball = np.flatnonzero(np.bincount(np.concatenate(
        [[x], n1] + [ind[ptr[y]:ptr[y + 1]] for y in n1])))
    ix = int(np.searchsorted(ball, x))
    S = _ball_block(P, ball)
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
    far = np.delete(np.arange(len(ball)),
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


def bakry_emery_curvature(P: StochasticMatrix, starts=None) -> CurvatureReport:
    """Per-vertex Bakry-Emery curvature kappa(x) of bakry_emery_vertex, at
    every vertex or at the vertices of ``starts`` (on a vertex-transitive
    chain, kappa(x) is the same at every x); global value is the minimum.
    """
    if not P.irreducible:
        raise NotIrreducible("Bakry-Emery curvature requires irreducibility")
    kappas = {x: bakry_emery_vertex(P, x)[0] for x in _vertices(P, starts)}
    return CurvatureReport(bakry_emery_vertices=kappas,
                           bakry_emery_min=min(kappas.values()))


def full_curvature_report(P: StochasticMatrix) -> CurvatureReport:
    """Both curvature notions in one report."""
    olli = ollivier_curvature(P)
    be = bakry_emery_curvature(P)
    return CurvatureReport(ollivier_edges=olli.ollivier_edges,
                           ollivier_min=olli.ollivier_min,
                           bakry_emery_vertices=be.bakry_emery_vertices,
                           bakry_emery_min=be.bakry_emery_min)


# ---------------------------------------------------------------------------
# Semigroup-level checks
# ---------------------------------------------------------------------------

def contraction_check(P: StochasticMatrix, kappa: float, kernels,
                      seed: int = 0, n_f: int = 100,
                      starts=None) -> InequalityVerdict:
    """Lipschitz contraction ||P_t f||_Lip <= e^{-kappa t} ||f||_Lip at each
    (t, K = heat_kernel(P, t)) of ``kernels``, on n_f random
    Lipschitz-normalized f per t, plus the W1 form on adjacent pairs on
    chains of at most 128 states: every edge, or the edges with an endpoint
    in ``starts``, which on a vertex-transitive chain attain the worst W1
    (an automorphism of P also preserves P_t and the metric).

    Each edge's W1 is first bounded above by the spanning-tree bound of
    _tree_w1_bounds; the edge's dense LP runs only when that bound, less
    _SCREEN_MARGIN, leaves the edge able to be the worst verdict, so the
    report is the one every LP would give and a skipped edge is certified
    by the bound."""
    metric = P.metric
    edges = _edges_at(P, starts)
    rng = np.random.default_rng(seed)
    worst = None
    for t, K in kernels:
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
            # Edges that a symmetry of the chain maps onto each other tie,
            # up to the rounding of K and of the LP (3e-16 on cycle:n=32 at
            # t = 0.5): a later edge must be worse by more than VERDICT_TOL,
            # so the first of tied edges is reported.  The edges at vertex 0
            # come first in P.edges(), so a start set [0] reports the same
            # edge as the full list.  An edge whose LP value v <= U + margin
            # would still leave more slack than the worst so far is skipped:
            # its LP could not replace the worst under that rule.
            bounds = _tree_w1_bounds(P, K, edges)
            for (x, y), bound in zip(edges, bounds):
                if (worst is not None
                        and decay - bound - _SCREEN_MARGIN > worst.slack):
                    continue
                [(value, *_)] = _w1_restricted([(K[x], K[y])], metric)
                cand = make_verdict("w1-contraction", value, decay,
                                    t=t, kappa=kappa, edge=(x, y))
                if worst is None or cand.slack < worst.slack - VERDICT_TOL:
                    worst = cand
    return worst


def subcommutativity_check(P: StochasticMatrix, kappa: float, kernels,
                           seed: int = 0, n_f: int = 100) -> InequalityVerdict:
    """Pointwise Gamma(P_t f, P_t f) <= e^{-2 kappa t} P_t Gamma(f,f) at each
    (t, K = heat_kernel(P, t)) of ``kernels``, on n_f random f per t."""
    rng = np.random.default_rng(seed)
    worst = None
    for t, K in kernels:
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
