"""Core chain representation: transition matrix, stationary law, support
metric and heat kernel.

The heat kernel is the continuous-time semigroup e^{t(P-I)}, evaluated as a
Poisson mixture of matrix powers with certified truncation error: row by row
for a start set, and by scaling and squaring a short mixture for the full
kernel.

P is held once, as CSR.  A random walk on an abelian group is declared by
its step law (StochasticMatrix.walk); its stationary law and metric are
then read off the law in closed form, and every other chain takes the
dense paths, which build the dense P on first use.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix, triu
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import (AsymmetricSupport, CertificateFailed, DimensionMismatch,
                     NotIrreducible, SpecParseError, StateCapExceeded,
                     TimeOutOfRange, UnderflowRisk)

if TYPE_CHECKING:
    from .families import StepLaw

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic kernel P, held once as the read-only CSR matrix
    ``csr``, with its support-graph structure.

    ``kernel``, a dense array or a scipy sparse matrix (StepLaw.matrix's
    canonical CSR is not re-sorted), is consumed into ``csr``: sorted, no
    stored zeros.  Products go through ``csr``; the dense ``entries`` is
    built from it on first use.  ``adjacency`` is the off-diagonal support
    graph (int32 indices, data P(x, y)), read by ``irreducible`` and
    ``symmetric_support``.  ``pi`` and ``metric`` are solved on first use
    and kept.  Construction does not reject broken rows; see validate.

    ``step_law`` is the law of a walk declared by :meth:`walk`, and None
    on every other matrix (``dataclasses.replace`` included).
    """

    kernel: InitVar[object]
    labels: Optional[tuple] = None
    step_law: Optional[StepLaw] = field(default=None, init=False, repr=False)

    def __post_init__(self, kernel):
        shape = np.shape(kernel)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
            raise DimensionMismatch(f"expected n x n with n >= 2, got {shape}")
        n = shape[0]
        A = csr_matrix(kernel, dtype=np.float64, copy=True)
        A.sum_duplicates()              # a no-op on a canonical kernel
        A.eliminate_zeros()
        if not np.all(np.isfinite(A.data)):
            raise ValueError("non-finite entries in transition matrix")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise DimensionMismatch("label count does not match state count")
            object.__setattr__(self, "labels", labels)
        edge = ((A.indices != np.repeat(np.arange(n), np.diff(A.indptr)))
                & (A.data > 0))
        adj = csr_matrix((A.data[edge], A.indices[edge],
                          np.append(0, np.cumsum(edge))[A.indptr]),
                         shape=A.shape)
        for a in (A.data, A.indices, A.indptr, adj.data, adj.indices,
                  adj.indptr):
            a.setflags(write=False)
        object.__setattr__(self, "csr", A)
        # The same arrays read as P^T (CSC), for row-vector products.
        object.__setattr__(self, "_transpose", A.T)
        object.__setattr__(self, "adjacency", adj)
        n_comp, _ = connected_components(adj, directed=True,
                                         connection="strong")
        object.__setattr__(self, "irreducible", bool(n_comp == 1))
        pattern = adj.astype(bool)
        object.__setattr__(self, "symmetric_support",
                           (pattern != pattern.T).nnz == 0)

    @classmethod
    def walk(cls, law: StepLaw) -> StochasticMatrix:
        """The random walk P(x, y) = mu(y - x) of a step law
        (families.StepLaw): the CSR of ``law.matrix()``, and the law."""
        P = cls(law.matrix())
        object.__setattr__(P, "step_law", law)
        return P

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense P, read-only, built from ``csr`` on first use (full
        kernels, the LU pi, eigvalsh, gamma_form, chain files)."""
        return _readonly(self.csr.toarray())

    @cached_property
    def pi(self) -> Distribution:
        """Stationary law, see :func:`_solve_stationary`."""
        return _solve_stationary(self)

    @cached_property
    def metric(self) -> MetricData:
        """Support-graph metric, see :func:`_support_metric`."""
        return _support_metric(self)

    def row_times(self, v: np.ndarray) -> np.ndarray:
        """Row-vector product v P, by ``csr`` read as P^T."""
        return self._transpose @ v

    def apply(self, X: np.ndarray) -> np.ndarray:
        """P X, for an observable or an (n, m) block of them, by ``csr``."""
        return self.csr @ X

    def edges(self):
        """Off-diagonal support edges as ordered pairs (x, y) with x < y.

        Requires symmetric support so that each undirected edge is listed once.
        """
        if not self.symmetric_support:
            raise AsymmetricSupport("edge list needs symmetric support")
        upper = triu(self.adjacency, k=1, format="coo")
        return list(zip(upper.row.tolist(), upper.col.tolist()))

    def lip_norm(self, f: np.ndarray) -> float:
        """Edge-Lipschitz seminorm max |f(x) - f(y)| over the off-diagonal
        support pairs x -> y; 0 when there are none."""
        adj = self.adjacency
        if adj.nnz == 0:
            return 0.0
        return float(np.max(np.abs(
            f[adj.indices] - np.repeat(f, np.diff(adj.indptr)))))


@dataclass(frozen=True)
class Distribution:
    """Probability vector over states."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise DimensionMismatch("distribution must be a vector")
        if np.any(p < -1e-15):
            raise ValueError(f"negative probability: min={p.min()}")
        total = p.sum()
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", _readonly(np.clip(p, 0.0, None)))

    @property
    def n(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class MetricData:
    """Graph distance on the support graph, diameter and sparsity Delta."""

    dist: np.ndarray       # (n, n) integer distances
    diameter: int
    delta: float           # max over adjacent pairs of 1/P(x,y)


@dataclass(frozen=True)
class ValidationReport:
    n: int
    row_sum_residual: float       # max_x |sum_y P(x,y) - 1|
    min_entry: float
    irreducible: bool
    symmetric_support: bool
    nondegenerate: bool           # n >= 3

    @property
    def stochastic(self) -> bool:
        return self.row_sum_residual <= ROW_SUM_TOL and self.min_entry >= 0.0


def validate(P: StochasticMatrix) -> ValidationReport:
    """Pure diagnostics from ``P.csr``: row sums (bit for bit those of
    ``P.entries``, 2^20 floats at a time), positivity, irreducibility,
    support symmetry."""
    A = P.csr
    step = max(1, 2 ** 20 // P.n)
    sums = np.concatenate([A[i:i + step].toarray().sum(axis=1)
                           for i in range(0, P.n, step)])
    return ValidationReport(
        n=P.n,
        row_sum_residual=float(np.max(np.abs(sums - 1.0))),
        min_entry=float(A.min()),
        irreducible=P.irreducible,
        symmetric_support=P.symmetric_support,
        nondegenerate=P.n >= 3,
    )


def stationary(P: StochasticMatrix) -> Distribution:
    """Unique invariant law pi = pi P of an irreducible chain: ``P.pi``,
    solved once per matrix on first use."""
    return P.pi


def _solve_stationary(P: StochasticMatrix) -> Distribution:
    """The uniform law for a declared group walk, whose columns sum like
    its rows; otherwise solves the singular linear system directly,
    replacing the last equation with the normalization sum(pi) = 1.  A
    failed solve or a residual max|pi P - pi| above STATIONARY_TOL raises
    CertificateFailed; an entry <= 0, which no irreducible chain has,
    raises UnderflowRisk."""
    if not P.irreducible:
        raise NotIrreducible("stationary law requires an irreducible chain")
    n = P.n
    if P.step_law is not None:
        pi = np.full(n, 1.0 / n)
    else:
        A = P.entries.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise CertificateFailed(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(P.row_times(pi) - pi)))
    if not residual <= STATIONARY_TOL:         # NaN included
        raise CertificateFailed(f"stationary solve leaves residual {residual}")
    if pi.min() <= 0.0:
        raise UnderflowRisk(
            f"stationary law has an entry {pi.min()} <= 0: its small "
            f"entries are below the accuracy of the solve")
    return Distribution(pi if P.step_law is not None else pi / pi.sum())


def metric_data(P: StochasticMatrix) -> MetricData:
    """Support-graph metric ``P.metric``, computed once per matrix on first
    use."""
    return P.metric


def _support_metric(P: StochasticMatrix) -> MetricData:
    """BFS distance on the support graph, diameter and sparsity.

    A declared group walk takes one BFS from 0 and d(x, y) = d(0, x - y),
    translation and negation being automorphisms of its symmetric support;
    every other chain takes a BFS from each state.  The support is
    symmetric, so the directed search gives the undirected distances."""
    if not P.symmetric_support:
        raise AsymmetricSupport("graph metric requires symmetric support")
    adj = P.adjacency
    law = P.step_law
    d = shortest_path(adj, method="D", unweighted=True,
                      indices=None if law is None else 0)
    if np.any(np.isinf(d)):
        raise NotIrreducible("support graph is disconnected")
    if law is not None:
        d = d.astype(np.int64)[law.group.sums(law.group.neg(np.arange(P.n)))]
    dist = _readonly(d, np.int64)
    delta = float(np.max(1.0 / adj.data)) if adj.nnz else 1.0
    return MetricData(dist=dist, diameter=int(dist.max()), delta=delta)


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------

# Poisson tail mass left out of every kernel: small enough that kernel rows
# remain valid Distributions (sum to 1 within 1e-12) without renormalizing.
_MASS_TOL = 1e-13
_POWERS_CAP = 2 ** 24          # floats (128 MiB) in a start set's powers
# Dyadic rungs P_{2^i} of the full-kernel time engine (see _KernelRows):
# from a Poisson base at 2^_RUNG_LOW, below every bisection step at t >= 1,
# up to 2^_RUNG_HIGH, the top of a search's doubling.
_RUNG_LOW = -16
_RUNG_HIGH = 64
# Rungs kept below the top one: a search's bisection steps are no finer than
# 2^-15 of its top (see entropy._first_time), so older rungs are dropped.
_RUNG_WINDOW = 16


def _poisson_pmf(t: float, tol: float,
                 min_terms: int = 0) -> tuple[np.ndarray, float]:
    """Poisson(t) pmf q_0..q_K and a bound ``tail`` <= ``tol`` on the mass
    beyond K.

    Anchored at the mode m = floor(t) (Fox & Glynn, CACM 1988): q_m from
    lgamma, then q_{k-1} = q_k k/t down and q_{k+1} = q_k t/(k+1) up, so
    no finite t is out of range; weights below the float range come out 0.
    K is the first K >= max(m, min_terms) with q_{K+1}/(1 - t/(K+2)) <=
    tol, a direct bound (the ratios q_{k+1}/q_k fall below t/(K+2) < 1)
    where 1 - sum(q) could not resolve a tol near the spacing of doubles
    at 1.  The weights are scaled to sum to 1 - tail, which also removes
    the rounding of q_m.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not math.isfinite(t):
        raise TimeOutOfRange(f"heat kernel time {t!r} is not finite")
    if t == 0.0:
        return np.array([1.0]), 0.0
    m = math.floor(t)
    down = [math.exp(m * math.log(t) - t - math.lgamma(m + 1))]
    while len(down) <= m and down[-1] > 0.0:
        down.append(down[-1] * (m + 1 - len(down)) / t)
    up = [down[0]]
    while True:
        k = m + len(up)                 # K + 1 > t
        nxt = up[-1] * t / k
        tail = nxt / (1.0 - t / (k + 1))
        if k > min_terms and tail <= tol:
            break
        up.append(nxt)
    q = np.concatenate([np.zeros(m + 1 - len(down)), down[:0:-1], up])
    return q * ((1.0 - tail) / q.sum()), tail


def poisson_weights(t: float, *, min_terms: int = 0) -> np.ndarray:
    """Poisson(t) pmf q_0..q_K with tail mass at most ``_MASS_TOL`` and K >=
    ``min_terms`` (see _poisson_pmf): the weights of start-set rows and
    :func:`heat_kernel_apply`."""
    return _poisson_pmf(t, _MASS_TOL, min_terms)[0]


def _poisson_series(q: np.ndarray, terms) -> np.ndarray:
    """sum_k q[k] v_k over the terms v_0, v_1, ..., accumulated in order
    k = 0, 1, ...; no term past v_K (K = len(q) - 1) is drawn."""
    terms = iter(terms)
    acc = q[0] * next(terms)
    for qk, v in zip(q[1:], terms):
        acc += qk * v
    return acc


def _iterates(v: np.ndarray, step):
    """v, step(v), step(step(v)), ... computed as they are drawn."""
    while True:
        yield v
        v = step(v)


class _KernelRows:
    """Heat-kernel rows P_t(o, .) for o in ``starts`` at any t asked of it;
    every row (the full kernel) when ``starts`` is None.

    For a start set it keeps one power sequence v_k = e_o P^k per start,
    extended on demand by P.row_times, and weights it by poisson_weights(t)
    for each t: a search over t pays the products of its largest t once,
    and each row equals the one-shot series bit for bit.  It holds K(t) > t
    times |starts| n floats while it lives, at most _POWERS_CAP.

    Full kernels come from one time engine: t is answered from the largest
    kernel K_{t0} held at some t/2 <= t0 < t, where t - t0 is exact (else
    the identity at t0 = 0), times one factor P_{t-t0}, at one product:

    - a power-of-two factor is a dyadic rung P_{2^i}, squared up on demand
      from one Poisson base at s = 2^_RUNG_LOW; only the _RUNG_WINDOW
      highest rungs are kept, and a lower one is climbed to again;
    - any other factor is built by scaling and squaring (see _squared) and
      kept by its length, reused only for an exactly equal step (the
      steps of an increasing grid);
    - with nothing held below a non-dyadic t, the kernel is the one-shot
      heat_kernel(P, t), bit for bit.

    So a doubling step of a search is one squaring, a bisection step one
    product K_lo P_delta, and a grid point one product.  Only the kernels
    at t0 and t are held after each answer, and everything lives only as
    long as this object.  Where a window of rungs would not fit in _POWERS_CAP
    floats beside the steps, a power-of-two factor is built as a step.

    Each held kernel carries the mass d its rows miss, d <- d_a + K_a d_b
    for K_a K_b, and rows are rescaled to sum to 1 - d after each product
    (see heat_kernel).  The one-shot kernel misses at most _MASS_TOL/2, and
    rung and step factors of length s at most s _MASS_TOL 2^-65, so every
    kernel up to t = 2^_RUNG_HIGH misses at most _MASS_TOL, which each
    returned kernel is checked against.  Other times, and calls with
    ``min_terms``, go to heat_kernel.
    """

    def __init__(self, P: StochasticMatrix,
                 starts: Optional[Sequence[int]]):
        self._P = P
        self._powers = None
        if starts is None:
            self._held = []        # (t, K_t, d), increasing t; at most two
            self._rungs = []       # (P_{2^i}, d), i = _RUNG_LOW + index;
            #                        None below the window
            self._steps = {}       # delta -> (P_delta, d)
            return
        if len(starts) == 0:
            raise DimensionMismatch("need at least one start state")
        self._powers = []
        for o in starts:
            if not (0 <= o < P.n):
                raise DimensionMismatch(f"state {o} out of range")
            v = np.zeros(P.n)
            v[o] = 1.0
            self._powers.append([v])

    def __call__(self, t: float, *, min_terms: int = 0) -> np.ndarray:
        """The rows at t, one per start; ``min_terms`` as in
        poisson_weights and heat_kernel."""
        if self._powers is None:
            if min_terms or not 0.0 < t <= math.ldexp(1.0, _RUNG_HIGH):
                return heat_kernel(self._P, t, min_terms=min_terms)
            return self._kernel(t)
        if t * len(self._powers) * self._P.n > _POWERS_CAP:
            raise StateCapExceeded(f"heat-kernel rows at t={t} would hold "
                                   f"over {_POWERS_CAP} floats of powers")
        q = poisson_weights(t, min_terms=min_terms)
        for vs in self._powers:
            while len(vs) < len(q):
                vs.append(self._P.row_times(vs[-1]))
        rows = np.vstack([_poisson_series(q, vs) for vs in self._powers])
        drift = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
        if drift > ROW_SUM_TOL:
            raise CertificateFailed(
                f"heat-kernel row sums off by {drift}: P is not stochastic")
        return rows

    def _kernel(self, t: float) -> np.ndarray:
        """P_t for 0 < t <= 2^_RUNG_HIGH from the time engine."""
        held = [h for h in self._held if h[0] <= t]
        if held and held[-1][0] == t:
            self._held = held
            return held[-1][1]
        # t - t0 is exact for t/2 <= t0 <= t (Sterbenz), so the answer is
        # P_t itself; a kernel farther below is no base.
        base = held[-1:] if held and held[-1][0] >= 0.5 * t else []
        t0, K0, d0 = base[0] if base else (0.0, None, None)
        delta = t - t0
        m, e = math.frexp(delta)
        F = self._rung(e - 1) if m == 0.5 else None
        if F is None and K0 is None:
            F = _squared(self._P, t, _MASS_TOL / 2)
        elif F is None:
            F = self._steps.get(delta)
            if F is None:
                if not self._room(1):
                    self._steps.clear()
                F = self._steps[delta] = _squared(
                    self._P, delta, math.ldexp(delta * _MASS_TOL, -65))
        if K0 is None:
            K, d = F
        elif K0 is F[0] and self._rung(e) is not None:
            # Doubling a rung: K_{2 t0} is the next rung, one squaring.
            K, d = self._rung(e)
        else:
            K, d = _product((K0, d0), F)
        _check_missed(K, t)
        K.setflags(write=False)
        self._held = base + [(t, K, d)]
        return K

    def _rung(self, i: int):
        """(P_{2^i}, d) squared up from the base on demand; None for i
        outside [_RUNG_LOW, _RUNG_HIGH] or past _POWERS_CAP floats kept."""
        k = i - _RUNG_LOW
        rungs = self._rungs
        if not (0 <= k <= _RUNG_HIGH - _RUNG_LOW and self._room(0)):
            return None
        if k < len(rungs) and rungs[k] is None:
            rungs.clear()               # below the window: climb again
        if not rungs:
            s = math.ldexp(1.0, _RUNG_LOW)
            rungs.append(_squared(self._P, s,
                                  math.ldexp(s * _MASS_TOL, -65)))
        while len(rungs) <= k:
            rungs.append(_product(rungs[-1], rungs[-1]))
            if len(rungs) > _RUNG_WINDOW:
                rungs[-1 - _RUNG_WINDOW] = None
        return rungs[k]

    def _room(self, steps: int) -> bool:
        """Whether a full window of rungs, the steps and ``steps`` more,
        and two held kernels fit in _POWERS_CAP floats."""
        kept = _RUNG_WINDOW + len(self._steps) + steps + 2
        return kept * self._P.n ** 2 <= _POWERS_CAP


def heat_kernel_row(P: StochasticMatrix, o: int, t: float, *,
                    min_terms: int = 0) -> Distribution:
    """Heat-kernel row P_t(o, .) = sum_k e^{-t} t^k/k! P^k(o, .).

    Renormalization-free: the truncation point certifies a TV error below
    ``_MASS_TOL`` against the exact series.  Row-vector iteration; the
    row powers e_o P^k are held only for this call (see _KernelRows, which
    keeps them across the times of a search).
    """
    return Distribution(_KernelRows(P, [o])(t, min_terms=min_terms)[0])


def _rescaled(A: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A with its rows rescaled in place to sum to 1 - d; a rescaling
    beyond ROW_SUM_TOL raises CertificateFailed."""
    scale = (1.0 - d) / A.sum(axis=1)
    drift = float(np.max(np.abs(scale - 1.0)))
    if drift > ROW_SUM_TOL:
        raise CertificateFailed(
            f"heat-kernel row sums off by {drift}: P is not stochastic")
    A *= scale[:, None]
    return A


def _product(a, b):
    """K_a K_b of two kernels (K, d) with the missed mass d_a + K_a d_b."""
    (A, dA), (B, dB) = a, b
    d = dA + A @ dB
    return _rescaled(A @ B, d), d


def _check_missed(A: np.ndarray, t: float):
    """Refuse a kernel A at time t with a row missing over _MASS_TOL."""
    missed = 1.0 - float(A.sum(axis=1).min())
    if missed > _MASS_TOL:
        raise CertificateFailed(
            f"heat-kernel rows miss {missed} of their mass at t={t}")


def _squared(P: StochasticMatrix, t: float, budget: float,
             min_terms: int = 0):
    """(P_t, d) for t > 0 by scaling and squaring, each row missing the
    mass d <= ``budget``: P_t = (P_s)^(2^j) with j = max(0,
    ceil(log2(2t))), so s = t/2^j <= 1/2, and the base P_s the Poisson
    mixture cut where its tail is below budget/2^j (see heat_kernel)."""
    # j = ceil(log2(2t)) exactly, from t = m 2^e with 1/2 <= m < 1.
    m, e = math.frexp(t)
    j = max(0, e if m == 0.5 else e + 1)
    q, tail = _poisson_pmf(math.ldexp(t, -j), math.ldexp(budget, -j),
                           min_terms)
    A = _poisson_series(q, _iterates(np.eye(P.n), lambda x: x @ P.entries))
    d = np.full(P.n, tail)
    K = (_rescaled(A, d), d)
    for _ in range(j):
        K = _product(K, K)
    return K


def heat_kernel(P: StochasticMatrix, t: float, *,
                min_terms: int = 0) -> np.ndarray:
    """Full heat-kernel matrix; row x is the law P_t(x, .).

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 2003): P_t =
    (P_s)^(2^j) with j = max(0, ceil(log2(2t))), so s = t/2^j <= 1/2, at
    len(q) - 1 + j matrix products and with no upper limit on t.  The base
    P_s is the Poisson mixture with weights q (see _poisson_pmf) cut where
    its tail is below _MASS_TOL/2^(j+1), and at no fewer than
    ``min_terms`` terms, undivided, so far entries stay accurate.  This is
    the one-shot kernel; the times of a search or a grid share products
    through _KernelRows.

    Truncation only loses mass, and a squaring at most doubles the loss,
    so each row misses at most _MASS_TOL/2.  A squaring also doubles any
    rounding error in the row sums, which would reach 2^j units of
    roundoff (2e-13 at t = 1375).  So the missed mass d of each row is
    carried as a small number, d <- d + A d as A <- A A, and after each
    product the rows are rescaled to sum to 1 - d.  That takes P as
    exactly stochastic: a rescaling beyond ROW_SUM_TOL, or a row missing
    more than _MASS_TOL at the end, raises CertificateFailed.
    """
    if t == 0.0:
        return np.eye(P.n)
    A, _ = _squared(P, t, _MASS_TOL / 2, min_terms)
    _check_missed(A, t)
    return A


def kernel_rows(P: StochasticMatrix, t: float,
                starts: Optional[Sequence[int]]) -> np.ndarray:
    """Heat-kernel rows P_t(o, .) for o in ``starts``; all rows when None."""
    return _KernelRows(P, starts)(t)


def heat_kernel_apply(P: StochasticMatrix, f: np.ndarray,
                      t: float) -> np.ndarray:
    """Action of the semigroup on an observable: (P_t f)(x)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != P.n:
        raise DimensionMismatch("observable length does not match state count")
    q = poisson_weights(t)
    return _poisson_series(q, _iterates(f, P.apply))


# ---------------------------------------------------------------------------
# Chain file format
# ---------------------------------------------------------------------------

def load_chain_file(path) -> StochasticMatrix:
    """Text format: first line n, then n rows of n probabilities.

    ``#`` starts a comment line; an optional line ``labels: a b c`` names
    the states.
    """
    labels = None
    rows = []
    n = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"chain file is not UTF-8: {exc}") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("labels:"):
            labels = line[len("labels:"):].split()
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError as exc:
                raise SpecParseError(f"bad state count line: {line!r}") from exc
            continue
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError as exc:
            raise SpecParseError(f"bad matrix row: {line!r}") from exc
    if n is None or len(rows) != n or any(len(r) != n for r in rows):
        raise SpecParseError("chain file does not contain an n x n matrix")
    entries = np.array(rows)
    if not np.all(np.isfinite(entries)):
        raise SpecParseError("chain file has non-finite entries")
    return StochasticMatrix(entries, labels=labels)


def save_chain_file(P: StochasticMatrix, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{P.n}\n")
        if P.labels is not None:
            fh.write("labels: " + " ".join(P.labels) + "\n")
        for row in P.entries:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
