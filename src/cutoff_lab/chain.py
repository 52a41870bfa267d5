"""Core chain representation: transition matrix, stationary law, support
metric and heat kernel.

The heat kernel is the continuous-time semigroup e^{t(P-I)}, evaluated as a
Poisson mixture of matrix powers with certified truncation error: row by row
for a start set, and by scaling and squaring a short mixture for the full
kernel.

P is held once, in the lab's own read-only CSR form.  Products with it go
to the kernels of scipy's sparsetools, loaded as that one extension module
(scipy.sparse itself is never imported), and every graph search is one
numpy BFS.  A random walk on an abelian group is declared by its step law
(StochasticMatrix.walk); its stationary law and metric are then read off
the law in closed form, and every other chain takes the dense paths, which
build the dense P on first use.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import (AsymmetricSupport, CertificateFailed, DimensionMismatch,
                     NotIrreducible, SpecParseError, StateCapExceeded,
                     TimeOutOfRange, UnderflowRisk)

if TYPE_CHECKING:
    from .families import GroupSpec, StepLaw

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
# (source, neighbour) pairs a BFS level expands at a time.
_BFS_CHUNK = 2 ** 20


def _load_bundled(name: str):
    """The extension module ``name`` that scipy bundles, loaded as that one
    module: neither scipy's init nor that of the package that holds it
    (scipy.sparse, scipy.optimize) is run.  It goes into ``sys.modules``
    under its real name before it is executed, so a later import of that
    package reuses it (pybind11 cannot register its types twice); one
    already there is reused.  If scipy moves or renames it, this raises
    ImportError."""
    if name in sys.modules:
        return sys.modules[name]
    top, *path = name.split(".")
    # find_spec locates a top-level package without importing it (on a
    # subpackage it would import the top package, running scipy's init).
    [where] = importlib.util.find_spec(top).submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(where, *path[:-1])])
    if spec is None:
        raise ImportError(f"no module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_bundled("scipy.sparse._sparsetools")


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CSR:
    """A read-only n x n matrix in canonical compressed sparse rows: row x
    holds the columns ``indices[indptr[x]:indptr[x + 1]]``, sorted, and the
    values ``data`` there, none of them zero; int32 ``indptr`` and
    ``indices``, float64 ``data``.  Its makers (StochasticMatrix,
    StepLaw.matrix) build it so; the holder only casts the arrays to these
    dtypes and sets them read-only.

    ``scipy.sparse.csr_array((A.data, A.indices, A.indptr), shape=A.shape)``
    is the same matrix as a scipy array.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        for name, dtype in (("indptr", np.int32), ("indices", np.int32),
                            ("data", np.float64)):
            object.__setattr__(self, name, _readonly(getattr(self, name),
                                                     dtype))

    @property
    def shape(self) -> tuple:
        n = len(self.indptr) - 1
        return (n, n)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def row(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int32),
                         np.diff(self.indptr))

    def gather(self, xs: np.ndarray):
        """(at, counts): the positions in ``indices`` and ``data`` of the
        entries of rows ``xs``, row after row, and each row's count."""
        lo = self.indptr[xs]
        counts = self.indptr[xs + 1] - lo
        at = np.repeat(lo - np.cumsum(counts) + counts, counts) \
            + np.arange(counts.sum())
        return at, counts

    def dense_rows(self, xs: np.ndarray) -> np.ndarray:
        """The rows ``xs`` as a dense (len(xs), n) block."""
        at, counts = self.gather(xs)
        out = np.zeros((len(xs), self.shape[1]))
        out[np.repeat(np.arange(len(xs)), counts), self.indices[at]] = \
            self.data[at]
        return out

    def toarray(self) -> np.ndarray:
        return self.dense_rows(np.arange(self.shape[0]))

    def transpose(self) -> CSR:
        """A^T, by sparsetools' csr_tocsc, a counting sort, so each row of
        A^T comes out sorted."""
        n = self.shape[0]
        out = (np.empty(n + 1, np.int32), np.empty(self.nnz, np.int32),
               np.empty(self.nnz))
        _sparsetools.csr_tocsc(n, n, self.indptr, self.indices, self.data,
                               *out)
        return CSR(*out)


def _matvec(fmt: str, A: CSR, X) -> np.ndarray:
    """A X (``fmt`` "csr") or A^T X ("csc": A's arrays read as the CSC of
    A^T) for a vector or an (n, m) block X, by the sparsetools kernel that
    scipy.sparse's ``@`` calls for it, so bit for bit that product.  X is
    read as contiguous float64, as the kernel reads it."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = A.shape[0]
    if X.ndim not in (1, 2) or X.shape[0] != n:
        raise DimensionMismatch(f"cannot multiply {A.shape} by {X.shape}")
    if X.ndim == 1 or X.shape[1] == 1:
        out = np.zeros(n)
        getattr(_sparsetools, fmt + "_matvec")(
            n, n, A.indptr, A.indices, A.data, X.ravel(), out)
        return out.reshape(X.shape)
    out = np.zeros(X.shape)
    getattr(_sparsetools, fmt + "_matvecs")(
        n, n, X.shape[1], A.indptr, A.indices, A.data, X.ravel(), out.ravel())
    return out


def _bfs(A: CSR, sources) -> np.ndarray:
    """Hop distances along the support of A from each of ``sources``: one
    int64 row per source, -1 at the states it does not reach.

    Level-synchronous over (source, state) pairs, every source at once,
    each pair held as its index into the flattened table, and the
    neighbours of each state read from one table padded to the largest
    degree.  A level expands at most about _BFS_CHUNK pairs at a time.  A
    pair reached twice is kept once without a sort: each new pair writes
    its position into its still negative table entry, and only the pair
    whose position stuck is kept.  The search stops as soon as every pair
    is reached."""
    n = A.shape[0]
    deg = np.diff(A.indptr)
    width = max(1, int(deg.max()))
    # Row x lists the neighbours of x, then x itself as padding: a pair is
    # reached before it is expanded, so the padding is never new.
    nbr = np.repeat(np.arange(n, dtype=np.int32)[:, None], width, axis=1)
    nbr[np.arange(width) < deg[:, None]] = A.indices
    sources = np.asarray(sources, dtype=np.int64)
    dist = np.full(sources.size * n, -1, dtype=np.int64)
    front = np.arange(sources.size) * n + sources
    dist.put(front, 0)
    left = dist.size - front.size
    level = 0
    while front.size and left:
        level += 1
        found = []
        parts = front.size * width // _BFS_CHUNK
        for part in np.array_split(front, parts + 1) if parts else [front]:
            x = part % n
            p = ((part - x)[:, None] + nbr.take(x, axis=0)).ravel()
            p = p.compress(dist.take(p) < 0)
            stamp = np.arange(-2, -2 - p.size, -1)
            dist.put(p, stamp)
            p = p.compress(dist.take(p) == stamp)
            dist.put(p, level)
            found.append(p)
        front = np.concatenate(found)
        left -= front.size
    return dist.reshape(sources.size, n)


@dataclass(frozen=True, eq=False, repr=False)
class StochasticMatrix:
    """Row-stochastic kernel P, held once as the read-only CSR ``csr``,
    with its support-graph structure.

    ``kernel``, a dense array or a canonical CSR (StepLaw.matrix's, taken
    as it is), is consumed into ``csr``: sorted, no stored zeros.
    Products go through ``csr``; the dense ``entries`` is built from it on
    first use.  ``adjacency`` is the off-diagonal support graph (data
    P(x, y)), read by ``symmetric_support``, the metric and the curvature;
    ``irreducible`` is read off one BFS from state 0 (two when the support
    is not symmetric: 0 must also be reached from every state).  ``pi``
    and ``metric`` are solved on first use and kept.  Construction does
    not reject broken rows; see validate.

    ``step_law`` is the law of a walk declared by :meth:`walk`, and None
    on every other matrix (``dataclasses.replace`` included).  The repr
    shows n, nnz and whether P is a declared walk.
    """

    kernel: InitVar[object]
    labels: Optional[tuple] = None
    step_law: Optional[StepLaw] = field(default=None, init=False, repr=False)

    def __post_init__(self, kernel):
        shape = np.shape(kernel)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
            raise DimensionMismatch(f"expected n x n with n >= 2, got {shape}")
        n = shape[0]
        if isinstance(kernel, CSR):
            A = kernel
        else:
            dense = np.asarray(kernel, dtype=np.float64)
            rows, cols = np.nonzero(dense)
            A = CSR(np.searchsorted(rows, np.arange(n + 1)), cols,
                    dense[rows, cols])
        if not np.all(np.isfinite(A.data)):
            raise ValueError("non-finite entries in transition matrix")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise DimensionMismatch("label count does not match state count")
            object.__setattr__(self, "labels", labels)
        edge = (A.indices != A.row) & (A.data > 0)
        adj = CSR(np.append(0, np.cumsum(edge))[A.indptr], A.indices[edge],
                  A.data[edge])
        back = adj.transpose()
        symmetric = (np.array_equal(back.indptr, adj.indptr)
                     and np.array_equal(back.indices, adj.indices))
        depth = _readonly(_bfs(adj, [0])[0], np.int64)
        object.__setattr__(self, "csr", A)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "symmetric_support", symmetric)
        object.__setattr__(self, "irreducible", bool(
            depth.min() >= 0 and (symmetric or _bfs(back, [0]).min() >= 0)))
        # Hop distances from state 0: a declared walk's metric row.
        object.__setattr__(self, "_depth", depth)

    @classmethod
    def walk(cls, law: StepLaw) -> StochasticMatrix:
        """The random walk P(x, y) = mu(y - x) of a step law
        (families.StepLaw): the CSR of ``law.matrix()``, and the law."""
        P = cls(law.matrix())
        object.__setattr__(P, "step_law", law)
        return P

    def __repr__(self) -> str:
        return (f"StochasticMatrix(n={self.n}, nnz={self.csr.nnz}, "
                f"walk={self.step_law is not None})")

    def _repr_pretty_(self, p, cycle):
        # IPython's and hypothesis's printers call this before they would
        # walk the dataclass fields, where the InitVar ``kernel`` is listed.
        p.text(repr(self))

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense P, read-only, built from ``csr`` on first use (full
        kernels, the LU pi, eigvalsh, chain files), if n^2 is admitted."""
        _admit(self.n ** 2, f"the dense {self.n}-state P")
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
        """Row-vector product v P, by ``csr`` read as the CSC of P^T."""
        return _matvec("csc", self.csr, v)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """P X, for an observable or an (n, m) block of them, by ``csr``."""
        return _matvec("csr", self.csr, X)

    def edges(self):
        """Off-diagonal support edges as ordered pairs (x, y) with x < y.

        Requires symmetric support so that each undirected edge is listed once.
        """
        if not self.symmetric_support:
            raise AsymmetricSupport("edge list needs symmetric support")
        adj = self.adjacency
        row = adj.row
        upper = adj.indices > row
        return list(zip(row[upper].tolist(), adj.indices[upper].tolist()))

    def lip_norm(self, f: np.ndarray) -> float:
        """lip_norms of the one observable ``f``."""
        return float(self.lip_norms(np.reshape(f, (1, -1)))[0])

    def lip_norms(self, F: np.ndarray) -> np.ndarray:
        """Edge-Lipschitz seminorm max |f(x) - f(y)| over the off-diagonal
        support pairs x -> y of each row f of the (m, n) block F, 0 when
        there are none; from F's transpose, 2^14 differences at a time."""
        adj = self.adjacency
        G = np.ascontiguousarray(np.transpose(F))
        ends, starts = adj.indices, adj.row
        out = np.zeros(len(F))
        step = max(1, 2 ** 14 // max(1, len(F)))
        for i in range(0, adj.nnz, step):
            diff = G[ends[i:i + step]] - G[starts[i:i + step]]
            np.maximum(out, np.abs(diff).max(axis=0), out=out)
        return out


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
    """Graph distance on the support graph, diameter and sparsity Delta.

    ``rows`` holds BFS rows of hop distances: d(x, .) for every x, or, on a
    walk declared on ``group``, d(0, .) only, from which d(x, y) =
    d(0, x - y).  ``block`` reads the distances between two sets of states
    from them; ``dist``, the n x n table, is built on first read and kept,
    so a declared walk that reads only blocks, the diameter and Delta never
    holds it."""

    diameter: int
    delta: float           # max over adjacent pairs of 1/P(x,y)
    rows: np.ndarray = field(compare=False, repr=False)
    group: Optional[GroupSpec] = field(default=None, compare=False,
                                       repr=False)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def block(self, xs, ys) -> np.ndarray:
        """(len(xs), len(ys)) int64 distances d(x, y), x in xs, y in ys."""
        if self.group is None:
            return self.rows[np.ix_(xs, ys)]
        g = self.group
        return self.rows[0][g.sums(g.neg(ys), xs)]

    def at(self, xs, ys) -> np.ndarray:
        """int64 distances d(xs[i], ys[i]), elementwise."""
        if self.group is None:
            return self.rows[xs, ys]
        g = self.group
        return self.rows[0][g.add(xs, g.neg(ys))]

    @cached_property
    def dist(self) -> np.ndarray:
        """(n, n) integer distances, read-only."""
        if self.group is None:
            return self.rows
        every = np.arange(self.n)
        return _readonly(self.block(every, every), np.int64)


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
    """Pure diagnostics from ``P.csr``, in O(nnz): row sums (P times the
    ones), positivity, irreducibility, support symmetry."""
    A, n = P.csr, P.n
    sums = P.apply(np.ones(n))
    return ValidationReport(
        n=n,
        row_sum_residual=float(np.max(np.abs(sums - 1.0))),
        # The entries not stored are zeros.
        min_entry=float(np.min(A.data, initial=0.0 if A.nnz < n * n
                               else np.inf)),
        irreducible=P.irreducible,
        symmetric_support=P.symmetric_support,
        nondegenerate=n >= 3,
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

    A declared group walk keeps the BFS row from 0 that P already holds,
    which gives the diameter, and reads d(x, y) = d(0, x - y) from it,
    translation and negation being automorphisms of its symmetric support;
    every other chain takes a BFS from each state.  The support is
    symmetric, so the directed search gives the undirected distances."""
    if not P.symmetric_support:
        raise AsymmetricSupport("graph metric requires symmetric support")
    adj = P.adjacency
    law = P.step_law
    rows = _bfs(adj, np.arange(P.n)) if law is None else P._depth[None]
    if rows.min() < 0:
        raise NotIrreducible("support graph is disconnected")
    delta = float(np.max(1.0 / adj.data)) if adj.nnz else 1.0
    return MetricData(int(rows.max()), delta, _readonly(rows, np.int64),
                      None if law is None else law.group)


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------

# Poisson tail mass left out of every kernel: small enough that kernel rows
# remain valid Distributions (sum to 1 within 1e-12) without renormalizing.
_MASS_TOL = 1e-13
# Bytes (1 GiB) a _KernelRows may hold: row powers, or the engine's kernels.
_KERNEL_BYTES = 2 ** 30
# Dyadic rungs P_{2^i} of the full-kernel time engine (see _KernelRows):
# from a Poisson base at 2^_RUNG_LOW, below every bisection step at t >= 1,
# up to 2^_RUNG_HIGH, the top of a search's doubling.
_RUNG_LOW = -16
_RUNG_HIGH = 64
# Most rungs kept, the top one included: a search's bisection steps are no
# finer than 2^-15 of its top (see entropy._first_time).
_RUNG_WINDOW = 16


def _admit(entries: int, what: str):
    """The one size rule (see StateCapExceeded): at most _KERNEL_BYTES // 40
    transition entries, the room for five n x n float64 kernels."""
    if entries > _KERNEL_BYTES // 40:
        raise StateCapExceeded(f"{what} holds at least {entries} entries, "
                               f"over the limit {_KERNEL_BYTES // 40}")


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
    times |starts| n floats, refused past _KERNEL_BYTES.

    Full kernels come from one time engine: t is answered from the largest
    kernel K_{t0} held at some t/2 <= t0 < t, where t - t0 is exact (else
    the identity at t0 = 0), times one factor P_{t-t0}, at one product:

    - a power-of-two factor is a dyadic rung P_{2^i}, squared up on demand
      from one Poisson base at s = 2^_RUNG_LOW; only the _window highest
      rungs are kept, and a lower one is climbed to again;
    - any other factor is built by scaling and squaring (see _squared) and
      kept by its length, reused only for an exactly equal step (the
      steps of an increasing grid);
    - with nothing held below a non-dyadic t, the kernel is the one-shot
      heat_kernel(P, t), bit for bit.

    So a doubling step of a search is one squaring, a bisection step one
    product K_lo P_delta, and a grid point one product.  Only the kernels
    at t0 and t are held after each answer, and everything lives only as
    long as this object, within _KERNEL_BYTES: the window is _RUNG_WINDOW
    rungs or what fits beside two held kernels and one step (two, at
    _admit's limit), and the steps are dropped when one more would not fit.
    A rung's bits depend only on P and i, so no kernel depends on the window.

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
            self._slots = _KERNEL_BYTES // (8 * P.n ** 2)   # n x n kernels
            self._window = min(_RUNG_WINDOW, self._slots - 3)
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
        if t > _KERNEL_BYTES / (8 * len(self._powers) * self._P.n):
            raise StateCapExceeded(f"heat-kernel rows at t={t} would hold "
                                   f"over {_KERNEL_BYTES} bytes of powers")
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
                if self._window + len(self._steps) + 3 > self._slots:
                    self._steps.clear()
                F = self._steps[delta] = _squared(
                    self._P, delta, math.ldexp(delta * _MASS_TOL, -65))
        if K0 is None:
            K, d = F
        elif K0 is F[0]:
            # A held rung: K_{2 t0} is the next rung, one squaring.
            K, d = self._rung(e)
        else:
            K, d = _product((K0, d0), F)
        _check_missed(K, t)
        K.setflags(write=False)
        self._held = base + [(t, K, d)]
        return K

    def _rung(self, i: int):
        """(P_{2^i}, d) squared up from the base on demand; None for i
        outside [_RUNG_LOW, _RUNG_HIGH]."""
        k = i - _RUNG_LOW
        rungs = self._rungs
        if not 0 <= k <= _RUNG_HIGH - _RUNG_LOW:
            return None
        if k < len(rungs) and rungs[k] is None:
            rungs.clear()               # below the window: climb again
        if not rungs:
            s = math.ldexp(1.0, _RUNG_LOW)
            rungs.append(_squared(self._P, s,
                                  math.ldexp(s * _MASS_TOL, -65)))
        while len(rungs) <= k:
            rungs.append(_product(rungs[-1], rungs[-1]))
            if len(rungs) > self._window:
                rungs[-1 - self._window] = None
        return rungs[k]


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
    E = P.entries                   # admitted before the identity is built
    A = _poisson_series(q, _iterates(np.eye(P.n), lambda x: x @ E))
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
        return np.eye(len(P.entries))   # n^2 admitted before the identity
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
    the states.  n is admitted (_admit) before any row is read.
    """
    labels = None
    rows = []
    n = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if line.startswith("labels:"):
                    labels = line[len("labels:"):].split()
                elif line and not line.startswith("#"):
                    try:
                        if n is None:
                            n = int(line)
                            _admit(max(n, 0) ** 2, f"a {n}-state chain file")
                        else:
                            rows.append([float(v) for v in line.split()])
                    except ValueError as exc:
                        kind = "state count" if n is None else "matrix row"
                        raise SpecParseError(f"bad {kind}: {line!r}") from exc
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"chain file is not UTF-8: {exc}") from exc
    if n is None or len(rows) != n or any(len(r) != n for r in rows):
        raise SpecParseError("chain file does not contain an n x n matrix")
    entries = np.array(rows)
    if not np.all(np.isfinite(entries)):
        raise SpecParseError("chain file has non-finite entries")
    return StochasticMatrix(entries, labels=labels)


def save_chain_file(P: StochasticMatrix, path):
    entries = P.entries             # refused before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{P.n}\n")
        if P.labels is not None:
            fh.write("labels: " + " ".join(P.labels) + "\n")
        for row in entries:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
