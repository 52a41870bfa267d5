"""Ollivier-Ricci curvature via W1 transport LPs solved by HiGHS, each value
checked against its dual objective to DUALITY_TOL, and Bakry-Emery
curvature via one Schur complement per vertex, both as array programs: the
edge LPs run on the reduced supports of P(x,.) - P(y,.), read for all
edges at once, and the vertices' Schur complements are built in batches of
one form shape, with one eigvalsh per batch.

The LPs go to the HiGHS binding that scipy bundles,
``scipy.optimize._highspy._core``, which the first LP loads as that one
extension module (chain._load_bundled): scipy.optimize's package init
(linprog, shgo, scipy.spatial, scipy.special) is never run for it.  If
scipy moves or renames the binding, that first LP raises ImportError.

The LP value is HiGHS's (see ``linprog``), not exact W1: HiGHS works to its
feasibility tolerances, and on a drifting birth-death chain its value was
measured up to 2.2e-5 relative below W1 (ROADMAP D13).  Where P has entries
below the 1e-7 primal feasibility tolerance, an LP may leave that mass
unmoved: on random chains with entries from 1e-12 to 1e-3, one-step W1
values came out up to 1.9e-7 off the exact ones, on full rows and on the
reduced supports alike.

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
# amortize the solver set-up, small enough that a batch stays cheap.  On the
# reduced blocks, 512 to 2048 tie and 256 or 4096 are up to 1.5x slower.
_LP_VARS = 1024
# Entries of the stacked arrays held at once (4 MiB of float64): a run of
# ollivier_curvature's edges gathers at most this many CSR entries; in
# bakry_emery_curvature, _FORM_ARRAYS times a run's 2-ball states, or a
# batch's ball x ball entries or CSR entries, is at most this many.
_BE_ENTRIES = 2 ** 19
# About how many arrays of a run's or batch's size _two_balls and
# _schur_forms hold at once.
_FORM_ARRAYS = 8
# Standard normal observables per t of the two semigroup-level checks.
_SEMIGROUP_DRAWS = 20


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
            primal_tol: Optional[float] = None, presolve: bool = True):
    """Solve min c.x s.t. A x = b, x >= 0 with HiGHS, where column j of A
    has unit entries in rows index[2j] < index[2j+1] and no others.

    The model goes straight to the HiGHS binding that scipy bundles, with
    the options ``scipy.optimize.linprog(method="highs")`` sets (dual
    simplex, presolve on unless ``presolve`` is False), so the solution is
    bit for bit that wrapper's at the same ``presolve`` option.  Presolve
    is off for ollivier_curvature's small reduced blocks, which it only
    slows, and on for every other LP.  ``primal_tol`` overrides the 1e-7
    primal feasibility tolerance.
    Returns (model status, x, row duals); x and the duals are None unless
    the status is optimal.  The first call loads the binding.
    """
    highs = _load_bundled("scipy.optimize._highspy._core")
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
    options.presolve = "on" if presolve else "off"
    options.simplex_strategy = \
        highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    if primal_tol is not None:
        options.primal_feasibility_tolerance = primal_tol
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    solution = solver.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_dual)


def _support(v: np.ndarray):
    """The positive entries of a dense vector, as a batch of one."""
    states = np.flatnonzero(v > 0)
    return np.array([0, len(states)]), states, v[states]


def _w1_restricted(mu, nu, metric: MetricData, presolve: bool = True):
    """Solve the transportation LPs of a batch of (mu, nu) pairs together,
    as one block-diagonal LP on their supports.

    ``mu`` and ``nu`` are batches (ptr, states, masses) of sparse vectors,
    vector b holding the masses at states[ptr[b]:ptr[b + 1]], and pair b is
    their vectors b.  Block b has the rows of its mu marginals, then of its
    nu marginals, and the columns i*k + j (mass from mu's i-th state to
    nu's j-th); costs, index and marginals of all blocks are built at
    once, with the metric read elementwise.  Returns (values, x, duals):
    block b's ``value`` is the sequential sum of cost times plan over its
    columns, and its duals u_i + v_j <= dist(i,j) satisfy
    mu.u + nu.v = value within DUALITY_TOL.
    """
    (mp, ms, mw), (npt, ns, nw) = mu, nu
    m, k = np.diff(mp), np.diff(npt)
    size = m * k
    var0 = np.cumsum(size) - size
    row0 = np.cumsum(m + k) - m - k
    blk = np.repeat(np.arange(len(m)), size)
    local = np.arange(size.sum()) - var0[blk]        # i*k + j in the block
    i, j = np.divmod(local, k[blk])
    c = metric.at(ms[mp[blk] + i], ns[npt[blk] + j]).astype(np.float64)
    index = np.stack([row0[blk] + i, row0[blk] + m[blk] + j], axis=1).ravel()
    b = np.empty(len(mw) + len(nw))
    b[np.arange(len(mw)) + np.repeat(row0 - mp[:-1], m)] = mw
    b[np.arange(len(nw)) + np.repeat(row0 + m - npt[:-1], k)] = nw
    status, x, duals = linprog(c, index, b, presolve=presolve)
    if x is None:
        # HiGHS can declare a feasible transport LP infeasible at its default
        # 1e-7 primal feasibility tolerance (full-support heat-kernel rows).
        status, x, duals = linprog(c, index, b, primal_tol=1e-9,
                                   presolve=presolve)
    if x is None:
        raise CertificateFailed(
            f"transport LP failed: HiGHS model status {status.name}")
    # Each block's cost times plan, left-aligned in a zero-padded row: the
    # row's running sum ends at the block's sequential sum.
    terms = np.zeros((len(m), int(size.max())))
    terms[blk, local] = c * x
    values = np.cumsum(terms, axis=1)[:, -1]
    gaps = np.abs(np.add.reduceat(b * duals, row0) - values)
    if np.any(gaps > DUALITY_TOL):
        raise CertificateFailed(
            f"transport LP duality gap {gaps.max():.3g}")
    return values, x, duals


def wasserstein1(mu: Distribution, nu: Distribution,
                 metric: MetricData) -> TransportPlan:
    """W1 between mu and nu w.r.t. the support-graph metric, by an LP.

    The dual potential is extended to all states by the McShane formula
    f(z) = min_j (dist(z, y_j) - v(y_j)), which is 1-Lipschitz, so
    <f, mu - nu> is a lower bound on W1; it need not equal ``value``.
    """
    if mu.n != nu.n or mu.n != metric.n:
        raise DimensionMismatch("mu, nu and metric must share the state set")
    batch_mu, batch_nu = _support(mu.probs), _support(nu.probs)
    [value], x, duals = _w1_restricted(batch_mu, batch_nu, metric)
    sup_mu, sup_nu = batch_mu[1], batch_nu[1]
    x = x.reshape(len(sup_mu), len(sup_nu))
    plan = [(int(sup_mu[i]), int(sup_nu[j]), float(x[i, j]))
            for i, j in zip(*np.nonzero(x > 1e-14))]
    potential = np.min(metric.block(np.arange(mu.n), sup_nu)
                       - duals[len(sup_mu):][None, :], axis=1)
    return TransportPlan(plan=plan, value=float(value),
                         dual_potential=potential)


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
    every edge when ``starts`` is None.  The edges at a start set are read
    from its states' rows of P.adjacency."""
    if starts is None:
        return P.edges()
    xs = np.asarray(_vertices(P, starts), dtype=np.int64)
    if not P.symmetric_support:
        raise AsymmetricSupport("edge list needs symmetric support")
    adj = P.adjacency
    at, counts = adj.gather(xs)
    ys = adj.indices[at]
    xs = np.repeat(xs, counts)
    key = np.sort(np.minimum(xs, ys) * P.n + np.maximum(xs, ys))
    key = key[np.diff(key, prepend=-1) != 0]
    return list(zip(*(v.tolist() for v in np.divmod(key, P.n))))


def _differences(P: StochasticMatrix, xs: np.ndarray, ys: np.ndarray):
    """The positive and negative parts of P(x,.) - P(y,.) for each pair
    (x, y) = (xs[e], ys[e]), from the CSR rows.

    Returns (live, pos, neg): the pairs whose difference has both parts,
    and those parts of the live pairs, in order, as batches (see
    _w1_restricted).  Each entry is P(x,z) - P(y,z) rounded once.  A pair
    that is not live has equal rows, or rows that differ on one side only,
    by the rounding of their sums."""
    A, n = P.csr, P.n
    at_x, count_x = A.gather(xs)
    at_y, count_y = A.gather(ys)
    owner = np.concatenate([np.repeat(np.arange(len(xs)), count_x),
                            np.repeat(np.arange(len(ys)), count_y)])
    key = owner * np.int64(n) + np.concatenate([A.indices[at_x],
                                                A.indices[at_y]])
    order = np.argsort(key, kind="stable")        # P(x,z) before -P(y,z)
    key = key[order]
    first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    diff = np.add.reduceat(np.concatenate([A.data[at_x],
                                           -A.data[at_y]])[order], first)
    owner, state = np.divmod(key[first], n)
    sides = (diff > 0, diff < 0)
    live = np.ones(len(xs), dtype=bool)
    for side in sides:
        live &= np.bincount(owner[side], minlength=len(xs)) > 0
    rank = np.cumsum(live) - 1
    parts = []
    for side in sides:
        side &= live[owner]
        parts.append((np.searchsorted(rank[owner[side]],
                                      np.arange(live.sum() + 1)),
                      state[side], np.abs(diff[side])))
    return np.flatnonzero(live), *parts


def _runs(sizes: list, budget: int) -> list:
    """(lo, hi) ranges that cut ``sizes`` into runs of consecutive items
    whose sizes sum to at most ``budget``; a larger item is a run alone."""
    cuts, total = [0], 0
    for i, size in enumerate(sizes):
        if i > cuts[-1] and total + size > budget:
            cuts.append(i)
            total = 0
        total += size
    return list(zip(cuts, cuts[1:] + [len(sizes)])) if sizes else []


def _rows(batch, lo: int, hi: int):
    """Vectors lo..hi-1 of a batch (ptr, states, masses)."""
    ptr, states, masses = batch
    return (ptr[lo:hi + 1] - ptr[lo], states[ptr[lo]:ptr[hi]],
            masses[ptr[lo]:ptr[hi]])


def ollivier_curvature(P: StochasticMatrix, starts=None) -> CurvatureReport:
    """One-step Ollivier curvature kappa(x,y) = 1 - W1(P(x,.), P(y,.)) on
    every support edge, or on the edges with an endpoint in ``starts``;
    global value is the edge minimum.

    On a vertex-transitive chain an automorphism of P carries every edge
    onto an edge at a start vertex, so the start set's minimum is the
    global one.  By Kantorovich-Rubinstein duality W1(mu, nu) depends only
    on mu - nu, so each edge's LP transports the positive part of
    P(x,.) - P(y,.) onto its negative part, on their disjoint supports;
    an edge whose rows are equal (see _differences) moves nothing and has
    kappa = 1.  The edges go in runs whose two CSR rows per edge stay
    within ``_BE_ENTRIES`` entries, each run's differences read at once;
    within a run, the edge LPs are solved with presolve off, in shared LPs
    of at most ``_LP_VARS`` transport variables each (a larger single edge
    gets an LP of its own).
    """
    if not P.symmetric_support:
        raise AsymmetricSupport("Ollivier curvature requires symmetric support")
    if not P.irreducible:
        raise NotIrreducible("Ollivier curvature requires irreducibility")
    edges = _edges_at(P, starts)
    xs, ys = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    rowlen = np.diff(P.csr.indptr)
    w1 = np.zeros(len(edges))
    for lo, hi in _runs((rowlen[xs] + rowlen[ys]).tolist(), _BE_ENTRIES):
        live, pos, neg = _differences(P, xs[lo:hi], ys[lo:hi])
        sizes = (np.diff(pos[0]) * np.diff(neg[0])).tolist()
        for a, b in _runs(sizes, _LP_VARS):
            w1[lo + live[a:b]] = _w1_restricted(_rows(pos, a, b),
                                                _rows(neg, a, b), P.metric,
                                                presolve=False)[0]
    kappas = dict(zip(edges, (1.0 - w1).tolist()))
    return CurvatureReport(ollivier_edges=kappas,
                           ollivier_min=min(kappas.values()))


# ---------------------------------------------------------------------------
# Bakry-Emery
# ---------------------------------------------------------------------------

def generator_apply(P: StochasticMatrix, f: np.ndarray) -> np.ndarray:
    """Generator action (Lf)(x) = sum_y P(x,y)(f(y) - f(x)), by P.apply."""
    f = np.asarray(f, dtype=np.float64)
    return P.apply(f) - f


def gamma2_form(P: StochasticMatrix, f: np.ndarray) -> np.ndarray:
    """Iterated form Gamma2(f,f) = 1/2 L Gamma(f,f) - Gamma(f, Lf)."""
    g = gamma_form(P, f, f)
    return 0.5 * generator_apply(P, g) - gamma_form(P, f, generator_apply(P, f))


def _two_balls(P: StochasticMatrix, xs: np.ndarray):
    """The support 2-balls of the states ``xs``, sorted, as a batch
    (ptr, states): x's ball is states[ptr[i]:ptr[i + 1]] for x = xs[i]."""
    adj, n = P.adjacency, P.n
    at, counts = adj.gather(xs)
    ring = adj.indices[at]
    at2, counts2 = adj.gather(ring)
    own = np.repeat(np.arange(len(xs)), counts)      # the x of each y
    key = np.sort(np.concatenate([np.arange(len(xs)), own,
                                  np.repeat(own, counts2)]) * np.int64(n)
                  + np.concatenate([xs, ring, adj.indices[at2]]))
    owner, states = np.divmod(key[np.append(True, key[1:] != key[:-1])], n)
    return np.searchsorted(owner, np.arange(len(xs) + 1)), states


def _schur_forms(P: StochasticMatrix, xs: np.ndarray, balls: np.ndarray):
    """The scaled Schur complements of bakry_emery_vertex at the states
    ``xs`` (G,), whose sorted 2-balls ``balls`` (G, b) all have b states
    and whose out-degrees are all d; each vertex's arithmetic is the same
    whichever others share its batch.

    On the ball, with p_y the off-diagonal row of P at y (complete for y in
    the 1-ball), Gamma(.,.)(y) has the matrix
    G_y = 1/2 (diag p_y - p_y e_y^T - e_y p_y^T + |p_y| e_y e_y^T), and
    Gamma(., L.)(x) the matrix C = 1/2 sum_y P(x,y)(e_y - e_x)(L_y - L_x)^T
    with L_y the generator row at y.  Gamma(.,.)(x) has B = G_x and
    Gamma2(.,.)(x) has A = 1/2 sum_{y != x} P(x,y) G_y - 1/2 G_x
    - 1/2 (C + C^T).  The holding term 1/2 P(x,x) G_x of 1/2 L Gamma(x) is
    not in A, so on a lazy chain kappa(x) is the exact infimum minus
    P(x,x)/2, a lower bound.

    Returns (M, r, A_nf, a, near, far): near (G, d) and far (G, f) are the
    ball positions of the out-neighbours of x and of the rest of the ball
    but x, a (G, f) the diagonal of A on far, A_nf (G, d, f) its near x far
    block, r = (P(x, near)/2)^-1/2 and M = r S r for the Schur complement
    S = A_nn - A_nf diag(a)^-1 A_fn.
    """
    G, b = balls.shape
    g = np.arange(G)
    rows = np.repeat(g, b)
    key = rows * np.int64(P.n) + balls.ravel()       # ascending
    adj = P.adjacency
    at, counts = adj.gather(xs)
    near = (np.searchsorted(key, np.repeat(g, counts) * np.int64(P.n)
                            + adj.indices[at]) % b).reshape(G, -1)
    ix = np.searchsorted(key, g * np.int64(P.n) + xs) % b
    r = 1.0 / np.sqrt(0.5 * adj.data[at].reshape(G, -1))
    outside = np.ones((G, b), dtype=bool)
    outside[g[:, None], near] = outside[g, ix] = False
    far = np.nonzero(outside)[1].reshape(G, -1)
    # P[ball, ball] from the CSR rows of each ball's states.
    at, counts = P.csr.gather(balls.ravel())
    cols = np.repeat(rows, counts) * np.int64(P.n) + P.csr.indices[at]
    j = np.minimum(np.searchsorted(key, cols), G * b - 1)
    hit = key[j] == cols
    S = np.zeros(G * b * b)
    S[(np.repeat(np.arange(G * b), counts) * b + j % b)[hit]] = \
        P.csr.data[at[hit]]
    S = S.reshape(G, b, b)
    diag = np.arange(b)
    W = S.copy()
    W[:, diag, diag] = 0.0
    dL = S - np.eye(b)
    dL -= dL[g, ix][:, None, :]                      # rows L_y - L_x

    def gamma_sum(c):
        # Matrices of sum_y c_y Gamma(.,.)(y), for c of shape (G, b).
        D = c[:, :, None] * W
        out = np.zeros((G, b, b))
        out[:, diag, diag] = (c[:, None, :] @ W)[:, 0] + D.sum(axis=2)
        out -= D + D.transpose(0, 2, 1)
        return 0.5 * out

    w = W[g, ix]
    e = np.zeros((G, b))
    e[g, ix] = 1.0
    B = gamma_sum(e)
    C = w[:, :, None] * dL
    C[g, ix] -= (w[:, None, :] @ dL)[:, 0]
    A = 0.5 * gamma_sum(w) - 0.5 * B - 0.25 * (C + C.transpose(0, 2, 1))
    g = g[:, None, None]
    A_nf = A[g, near[:, :, None], far[:, None, :]]
    a = A[g[:, 0], far, far]
    S = A[g, near[:, :, None], near[:, None, :]] \
        - (A_nf / a[:, None, :]) @ A_nf.transpose(0, 2, 1)
    return r[:, :, None] * S * r[:, None, :], r, A_nf, a, near, far


def bakry_emery_vertex(P: StochasticMatrix, x: int):
    """Exact kappa(x) = inf_f Gamma2(f,f)(x) / Gamma(f,f)(x), plus a
    minimizing observable (length n, supported on the 2-ball): the batch
    of one of bakry_emery_curvature, so kappa(x) is its value bit for bit.

    Both forms ignore constants, so f(x) = 0.  On the out-neighbours y of x
    (near), Gamma(.,.)(x) is D = diag(P(x,y)/2); it is zero on the rest of
    the 2-ball (far), where the Gamma2 block is diagonal with entries
    a_z = 1/4 sum_y P(x,y) P(y,z) > 0.  Minimizing over f_far leaves
    f_far = -A_fn f_near / a and the Schur complement
    S = A_nn - A_nf diag(a)^-1 A_fn (see _schur_forms), so
    kappa(x) = lambda_min(D^-1/2 S D^-1/2) and f_near = D^-1/2 v.
    """
    adj = P.adjacency
    if adj.indptr[x] == adj.indptr[x + 1]:
        raise NotIrreducible(f"state {x} has no out-neighbour")
    xs = np.array([x])
    ball = _two_balls(P, xs)[1]
    M, r, A_nf, a, near, far = _schur_forms(P, xs, ball[None, :])
    f_near = r[0] * np.linalg.eigh(M[0])[1][:, 0]
    f = np.zeros(P.n)
    f[ball[near[0]]] = f_near
    f[ball[far[0]]] = -(f_near @ A_nf[0]) / a[0]
    return float(np.linalg.eigvalsh(M)[0, 0]), f


def bakry_emery_curvature(P: StochasticMatrix, starts=None) -> CurvatureReport:
    """Per-vertex Bakry-Emery curvature kappa(x) of bakry_emery_vertex, at
    every vertex or at the vertices of ``starts`` (on a vertex-transitive
    chain, kappa(x) is the same at every x); global value is the minimum.

    The vertices go in runs whose 2-ball gathers, _FORM_ARRAYS at once,
    stay within ``_BE_ENTRIES`` entries; in a run, the vertices whose
    2-ball size and out-degree agree share each stacked step of
    _schur_forms and one eigvalsh, in batches whose ball x ball forms (or
    CSR gathers), _FORM_ARRAYS at once, stay within ``_BE_ENTRIES``
    entries.
    """
    if not P.irreducible:
        raise NotIrreducible("Bakry-Emery curvature requires irreducibility")
    xs = np.array(_vertices(P, starts), dtype=np.int64)
    adj, rowlen = P.adjacency, np.diff(P.csr.indptr)
    degree = np.diff(adj.indptr)
    # 1 + d(x) + sum of d(y) over the out-neighbours y: the 2-ball gather.
    ends = np.cumsum(np.append(0, degree[adj.indices]))[adj.indptr]
    reach = 1 + degree + np.diff(ends)
    kappa = np.empty(len(xs))
    for lo, hi in _runs((_FORM_ARRAYS * reach[xs]).tolist(), _BE_ENTRIES):
        ptr, states = _two_balls(P, xs[lo:hi])
        size, d = np.diff(ptr), degree[xs[lo:hi]]
        ends = np.cumsum(np.append(0, rowlen[states]))[ptr]
        cost = _FORM_ARRAYS * np.maximum(size * size, np.diff(ends))
        order = np.lexsort((d, size))
        shape = np.stack([size[order], d[order]])
        bounds = np.flatnonzero(np.any(shape[:, 1:] != shape[:, :-1], axis=0))
        for group in np.split(order, bounds + 1):
            b = int(size[group[0]])
            for glo, ghi in _runs(cost[group].tolist(), _BE_ENTRIES):
                members = group[glo:ghi]
                balls = states[ptr[members][:, None] + np.arange(b)]
                M = _schur_forms(P, xs[lo + members], balls)[0]
                kappa[lo + members] = np.linalg.eigvalsh(M)[:, 0]
    kappas = dict(zip(xs.tolist(), kappa.tolist()))
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

def _decay(rate: float) -> float:
    """e^{-rate}: np.exp's value where it is finite, and inf without
    numpy's overflow warning past the float range (a negative kappa at a
    long t)."""
    with np.errstate(over="ignore"):
        return float(np.exp(-rate))


def contraction_check(P: StochasticMatrix, kappa: float, kernels,
                      seed: int = 0, starts=None) -> InequalityVerdict:
    """Lipschitz contraction ||P_t f||_Lip <= e^{-kappa t} ||f||_Lip at each
    (t, K = heat_kernel(P, t)) of ``kernels``, on _SEMIGROUP_DRAWS random
    Lipschitz-normalized f per t, plus the W1 form on adjacent pairs on
    chains of at most 128 states: every edge, or the edges with an endpoint
    in ``starts``, which on a vertex-transitive chain attain the worst W1
    (an automorphism of P also preserves P_t and the metric).

    Each t's f are the rows of one standard normal block from
    default_rng(seed), less any with ||f||_Lip = 0, taken through P_t at
    once; the first of their least slacks is the t's candidate.

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
        decay = _decay(kappa * t)
        F = rng.standard_normal((_SEMIGROUP_DRAWS, P.n))
        lips = P.lip_norms(F)
        F = F[lips > 0.0] / lips[lips > 0.0, None]
        lhs = P.lip_norms(F @ K.T)
        if lhs.size:
            i = int(np.argmin(decay - lhs))
            if worst is None or decay - lhs[i] < worst.slack:
                worst = make_verdict("lipschitz-contraction", lhs[i], decay,
                                     t=t, kappa=kappa)
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
                [value], _, _ = _w1_restricted(_support(K[x]),
                                               _support(K[y]), metric)
                cand = make_verdict("w1-contraction", value, decay,
                                    t=t, kappa=kappa, edge=(x, y))
                if worst is None or cand.slack < worst.slack - VERDICT_TOL:
                    worst = cand
    return worst


def subcommutativity_check(P: StochasticMatrix, kappa: float, kernels,
                           seed: int = 0) -> InequalityVerdict:
    """Pointwise Gamma(P_t f, P_t f) <= e^{-2 kappa t} P_t Gamma(f,f) at each
    (t, K = heat_kernel(P, t)) of ``kernels``, on _SEMIGROUP_DRAWS random f
    per t, the columns of one standard normal block from default_rng(seed):
    the t's candidate is the first worst f at its first worst state."""
    rng = np.random.default_rng(seed)
    worst = None
    for t, K in kernels:
        decay = _decay(2.0 * kappa * t)
        F = rng.standard_normal((_SEMIGROUP_DRAWS, P.n)).T
        G = K @ F
        lhs = gamma_form(P, G, G)
        rhs = decay * (K @ gamma_form(P, F, F))
        gap = lhs - rhs
        k = int(np.argmax(gap.max(axis=0)))
        i = int(np.argmax(gap[:, k]))
        cand = make_verdict("subcommutativity", lhs[i, k], rhs[i, k], t=t,
                            kappa=kappa, state=i)
        if worst is None or cand.slack < worst.slack:
            worst = cand
    return worst
