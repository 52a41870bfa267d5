"""Exact reference quantities, computed without cutoff_lab.

- Abelian Cayley walks: the heat-kernel row from 0 is the inverse Fourier
  transform of exp(-t (1 - lambda)), lambda the Fourier transform of the
  step law (character sums).
- Hypercube: the product-formula TV profile, with the Hamming weight of
  P_t(0, .) binomial with flip probability (1 - e^{-2t/d}) / 2.
- Reversible chains: P_t = D^{-1/2} U e^{-t(1 - Lambda)} U^T D^{1/2} from the
  eigendecomposition of D^{1/2} P D^{-1/2}, D = diag(pi), worst case over
  every start.

Mixing times are exact crossings found by bisection to 1e-13 relative;
the library's bisection stops at ``tol_t``, see :func:`bisection_tol`.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property

import numpy as np


def crossing(tv, eps: float) -> float:
    """Smallest t with tv(t) <= eps, for tv decreasing in t."""
    lo, hi = 0.0, 1.0
    while tv(hi) > eps:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if tv(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisection_tol(t_star: float) -> float:
    """``tol_t`` of ``cutoff_lab.mixing_time`` for a crossing at t_star.

    The library doubles to the first power of two past the crossing and
    bisects to 1e-4 times that bracket; its answer lies within half of this
    of the crossing, so a difference up to this value passes.
    """
    hi = 2.0 ** math.ceil(math.log2(t_star)) if t_star > 1.0 else 1.0
    return 1e-4 * hi


def kl_var(rows: np.ndarray, pi: np.ndarray):
    """Max over rows of KL(row | pi) and of the varentropy."""
    d_max = v_max = 0.0
    for row in np.atleast_2d(rows):
        mask = row > 0
        w = row[mask]
        logr = np.log(w / pi[mask])
        mean = float(w @ logr)
        d_max = max(d_max, mean)
        v_max = max(v_max, float(w @ (logr - mean) ** 2))
    return d_max, v_max


class AbelianWalk:
    """Walk on Z_{m1} x ... x Z_{mk} with a uniform step in a multiset.

    Elements are mixed-radix indices, last factor fastest.
    """

    # Relative accuracy of t_rel and of d*, V*: character sums are exact up
    # to rounding.
    RTOL_T_REL, RTOL_ENTROPY = 1e-9, 1e-6

    def __init__(self, factors, elems):
        self.factors = tuple(factors)
        self.N = math.prod(self.factors)
        counts = np.bincount(np.asarray(elems) % self.N, minlength=self.N)
        self.step = counts / len(elems)
        self.lam = np.fft.fftn(self.step.reshape(self.factors)).real
        self.pi = np.full(self.N, 1.0 / self.N)

    def row(self, t: float) -> np.ndarray:
        return np.fft.ifftn(np.exp(-t * (1.0 - self.lam))).real.ravel()

    def tv(self, t: float) -> float:
        return 0.5 * float(np.abs(self.row(t) - self.pi).sum())

    @cached_property
    def t_rel(self) -> float:
        return 1.0 / (1.0 - float(np.sort(self.lam.ravel())[-2]))

    @cached_property
    def delta(self) -> float:
        moves = self.step.copy()
        moves[0] = 0.0
        return 1.0 / float(moves[moves > 0].min())

    @cached_property
    def diameter(self) -> int:
        gens = [int(g) for g in np.nonzero(self.step)[0] if g != 0]
        dist = {0: 0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for g in gens:
                y = self._add(x, g)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return max(dist.values())

    def _add(self, a: int, b: int) -> int:
        if set(self.factors) == {2}:
            return a ^ b
        ca = np.unravel_index(a, self.factors)
        cb = np.unravel_index(b, self.factors)
        return int(np.ravel_multi_index(
            tuple((x + y) % m for x, y, m in zip(ca, cb, self.factors)),
            self.factors))

    def kl_var(self, t: float):
        return kl_var(self.row(t), self.pi)


def hypercube_tv(d: int, t: float) -> float:
    """Product formula: TV from 0 of the continuous-time walk on {0,1}^d."""
    p = 0.5 * (1.0 - math.exp(-2.0 * t / d))
    return 0.5 * sum(math.comb(d, k) * abs(p ** k * (1.0 - p) ** (d - k)
                                            - 0.5 ** d)
                     for k in range(d + 1))


class ReversibleChain:
    """Exact semigroup of a reversible chain P with stationary law pi."""

    def __init__(self, P: np.ndarray, pi: np.ndarray,
                 rtol_t_rel: float = 1e-9, rtol_entropy: float = 1e-6):
        self.RTOL_T_REL, self.RTOL_ENTROPY = rtol_t_rel, rtol_entropy
        self.P = P
        self.pi = pi
        self.s = np.sqrt(pi)
        A = self.s[:, None] * P / self.s[None, :]
        self.lam, self.U = np.linalg.eigh(0.5 * (A + A.T))

    def kernel(self, t: float) -> np.ndarray:
        K = (self.U * np.exp(-t * (1.0 - self.lam))) @ self.U.T
        return K / self.s[:, None] * self.s[None, :]

    def tv(self, t: float) -> float:
        K = self.kernel(t)
        return 0.5 * float(np.abs(K - self.pi[None, :]).sum(axis=1).max())

    @cached_property
    def t_rel(self) -> float:
        return 1.0 / (1.0 - float(self.lam[-2]))

    def kl_var(self, t: float):
        return kl_var(np.clip(self.kernel(t), 0.0, None), self.pi)

    @cached_property
    def delta(self) -> float:
        adj = self.P > 0
        np.fill_diagonal(adj, False)
        return float((1.0 / self.P[adj]).max())

    @cached_property
    def diameter(self) -> int:
        n = len(self.P)
        adj = [np.nonzero(self.P[x] > 0)[0] for x in range(n)]
        best = 0
        for src in range(n):
            dist = np.full(n, -1)
            dist[src] = 0
            queue = deque([src])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            best = max(best, int(dist.max()))
        return best


def birth_death(p: float, q: float, n: int) -> ReversibleChain:
    """Constant-rate birth-death chain; pi(i) proportional to (p/q)^i."""
    P = np.zeros((n, n))
    i = np.arange(n - 1)
    P[i, i + 1] = p
    P[i + 1, i] = q
    P[np.arange(n), np.arange(n)] = 1.0 - P.sum(axis=1)
    pi = (p / q) ** np.arange(n)
    # With p != q, pi spans (p/q)^(n-1) (1e14 for the drifting chain): its
    # small entries, and those of the library's pi, carry large relative
    # errors, and t_rel, d*, V* agree only to about 1e-7 and 1e-6.
    loose = p != q
    return ReversibleChain(P, pi / pi.sum(),
                           rtol_t_rel=1e-6 if loose else 1e-9,
                           rtol_entropy=1e-5 if loose else 1e-6)


def path_ollivier_min(P: np.ndarray) -> float:
    """Ollivier curvature minimum of a chain on a path (tridiagonal P).

    On a path, W1 between two laws is the L1 distance of their CDFs.
    """
    F = np.cumsum(P, axis=1)
    w1 = np.abs(F[:-1] - F[1:]).sum(axis=1)
    return float(1.0 - w1.max())
