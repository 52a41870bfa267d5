"""Core chain module: matrix invariants, stationary laws, graph metric,
heat kernel and the chain file format.

Frozen oracle values are derived in comments next to each assertion.
"""

import importlib.util
import math
import sys
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cutoff_lab import chain, cli, entropy
from cutoff_lab.chain import (Distribution, StochasticMatrix, heat_kernel,
                              heat_kernel_apply, heat_kernel_row, kernel_rows,
                              load_chain_file, metric_data, poisson_weights,
                              save_chain_file, stationary, validate)
from cutoff_lab.errors import (AsymmetricSupport, CertificateFailed,
                               DimensionMismatch, NotIrreducible,
                               SpecParseError, StateCapExceeded,
                               TimeOutOfRange, UnderflowRisk)
from cutoff_lab.families import birth_death, complete_graph, cycle, hypercube
from cutoff_lab.entropy import (EPS_GRID, cutoff_time_equation, d_star_at,
                                mixing_time, mixing_profile, v_star_at,
                                worst_tv)
from cutoff_lab.spectral import relaxation_time
from test_curvature import sparse_chain

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def cycle_matrix(n):
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = 0.5
        P[i, (i - 1) % n] = 0.5
    return StochasticMatrix(P)


def random_chain(rng, n):
    # Dirichlet rows mixed with a deterministic cycle: always irreducible.
    base = rng.dirichlet(np.ones(n), size=n)
    shift = np.roll(np.eye(n), 1, axis=1)
    return StochasticMatrix(0.8 * base + 0.2 * shift)


# ---------------------------------------------------------------------------
# StochasticMatrix / Distribution invariants
# ---------------------------------------------------------------------------

class TestStochasticMatrix:
    def test_flags_on_cycle(self):
        P = cycle_matrix(5)
        assert P.irreducible
        assert P.symmetric_support
        assert P.n == 5

    def test_reducible_detected(self):
        P = StochasticMatrix(np.eye(3))
        assert not P.irreducible

    def test_asymmetric_support_detected(self):
        P = StochasticMatrix(np.array([[0.0, 1.0, 0.0],
                                       [0.0, 0.0, 1.0],
                                       [1.0, 0.0, 0.0]]))
        assert P.irreducible
        assert not P.symmetric_support
        with pytest.raises(AsymmetricSupport):
            P.edges()

    def test_edges_upper_triangle(self):
        edges = cycle_matrix(4).edges()
        assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            StochasticMatrix(np.ones((2, 3)) / 3)

    def test_rejects_single_state(self):
        with pytest.raises(DimensionMismatch):
            StochasticMatrix(np.ones((1, 1)))

    def test_rejects_nan(self):
        M = np.eye(2)
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            StochasticMatrix(M)

    def test_entries_read_only(self):
        P = cycle_matrix(3)
        with pytest.raises(ValueError):
            P.entries[0, 0] = 1.0

    def test_labels_round(self):
        P = StochasticMatrix(FLIP, labels=["a", "b"])
        assert P.labels == ("a", "b")
        with pytest.raises(DimensionMismatch):
            StochasticMatrix(FLIP, labels=["a"])

    def test_validate_reports_broken_rows(self):
        rep = validate(StochasticMatrix(np.array([[0.5, 0.4], [0.5, 0.5]])))
        assert not rep.stochastic
        assert rep.row_sum_residual == pytest.approx(0.1)
        rep2 = validate(cycle_matrix(6))
        assert rep2.stochastic and rep2.irreducible and rep2.nondegenerate


class TestDistribution:
    def test_accepts_probability_vector(self):
        d = Distribution(np.array([0.25, 0.75]))
        assert d.n == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([-0.1, 1.1]))

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            Distribution(np.eye(2) / 2)


# ---------------------------------------------------------------------------
# Stationary law
# ---------------------------------------------------------------------------

class TestStationary:
    def test_doubly_stochastic_gives_uniform(self):
        pi = stationary(cycle_matrix(7))
        assert np.allclose(pi.probs, 1.0 / 7, atol=1e-12)

    def test_birth_death_closed_form(self):
        # Detailed balance: pi(i+1)/pi(i) = p/q, so pi ~ (1, p/q, (p/q)^2).
        p, q = 0.3, 0.6
        P = StochasticMatrix(np.array([
            [1 - p, p, 0.0],
            [q, 1 - p - q, p],
            [0.0, q, 1 - q]]))
        pi = stationary(P)
        expected = np.array([1.0, 0.5, 0.25])
        expected /= expected.sum()
        assert np.allclose(pi.probs, expected, atol=1e-12)

    def test_invariance_residual(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 12, 20):
            P = random_chain(rng, n)
            pi = stationary(P)
            assert np.max(np.abs(pi.probs @ P.entries - pi.probs)) < 1e-10

    def test_rejects_reducible(self):
        with pytest.raises(NotIrreducible):
            stationary(StochasticMatrix(np.eye(3)))

    def test_periodic_chain_ok(self):
        # Period 2; the stationary law is still unique.
        pi = stationary(StochasticMatrix(FLIP))
        assert np.allclose(pi.probs, 0.5)

    def test_failed_solve_raises_certificate(self, monkeypatch):
        # The solve is the only route to pi: a result that is not invariant
        # (uniform, for a chain whose pi is not) or a solver error is a
        # failed certificate.
        P = birth_death([0.3] * 5, [0.6] * 5).matrix

        def singular(A, b):
            raise np.linalg.LinAlgError("Singular matrix")
        for solve in (lambda A, b: np.full(len(b), 1.0 / len(b)), singular):
            monkeypatch.setattr(np.linalg, "solve", solve)
            with pytest.raises(CertificateFailed):
                stationary(P)

    def test_nonpositive_entry_raises_underflow(self):
        # pi ~ 18^i spans 1e-99 to 0.94 on 80 states: the solve leaves its
        # smallest entries at or below 0, which no irreducible chain has.
        with pytest.raises(UnderflowRisk):
            stationary(birth_death([0.9] * 79, [0.05] * 79).matrix)


# ---------------------------------------------------------------------------
# Graph metric
# ---------------------------------------------------------------------------

class TestMetricData:
    def test_cycle_metric(self):
        m = metric_data(cycle_matrix(6))
        assert m.diameter == 3
        assert m.delta == pytest.approx(2.0)     # 1 / (1/2)
        assert m.dist[0, 3] == 3 and m.dist[0, 5] == 1

    def test_flip_metric(self):
        m = metric_data(StochasticMatrix(FLIP))
        assert m.diameter == 1 and m.delta == pytest.approx(1.0)

    def test_requires_symmetric_support(self):
        P = StochasticMatrix(np.array([[0.0, 1.0, 0.0],
                                       [0.0, 0.0, 1.0],
                                       [1.0, 0.0, 0.0]]))
        with pytest.raises(AsymmetricSupport):
            metric_data(P)

    def test_delta_sees_smallest_edge_probability(self):
        P = StochasticMatrix(np.array([
            [0.9, 0.1, 0.0],
            [0.1, 0.5, 0.4],
            [0.0, 0.4, 0.6]]))
        assert metric_data(P).delta == pytest.approx(10.0)

    def test_dist_read_only(self):
        dist = metric_data(cycle_matrix(6)).dist
        assert dist.dtype == np.int64
        assert not dist.flags.writeable


class TestSupportGraph:
    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.booleans(),
           st.booleans())
    def test_matches_brute_force(self, seed, n, symmetric, lazy):
        P = sparse_chain(seed, n, symmetric, lazy)
        adj = (P.entries > 0) & ~np.eye(n, dtype=bool)
        pairs = [(x, y) for x in range(n) for y in range(n) if adj[x, y]]
        assert P.adjacency.indices.dtype == np.int32
        assert not P.adjacency.data.flags.writeable
        assert P.symmetric_support == bool(np.array_equal(adj, adj.T))
        f = np.random.default_rng(seed).standard_normal(n)
        assert P.lip_norm(f) == max(abs(f[x] - f[y]) for x, y in pairs)
        if not P.symmetric_support:
            with pytest.raises(AsymmetricSupport):
                P.edges()
            return
        assert P.edges() == [(x, y) for x, y in pairs if x < y]
        # Floyd-Warshall on the hop count.
        d = np.where(adj, 1.0, np.inf)
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            d = np.minimum(d, d[:, [k]] + d[[k], :])
        assert np.array_equal(P.metric.dist, d)
        assert P.metric.delta == max(1.0 / P.entries[x, y] for x, y in pairs)


# ---------------------------------------------------------------------------
# Invariants kept on the matrix
# ---------------------------------------------------------------------------

class TestCachedInvariants:
    def test_pi_and_metric_are_kept(self):
        P = cycle_matrix(6)
        assert P.pi is P.pi and P.metric is P.metric
        assert np.array_equal(P.pi.probs, stationary(P).probs)
        assert np.array_equal(P.metric.dist, metric_data(P).dist)

    def test_pi_solved_once_across_primitives(self, monkeypatch):
        calls = []
        real = chain._solve_stationary

        def counting(P):
            calls.append(P)
            return real(P)
        monkeypatch.setattr(chain, "_solve_stationary", counting)
        P = random_chain(np.random.default_rng(3), 6)
        t = mixing_time(P, 0.25)
        mixing_time(P, 0.75)
        relaxation_time(P)
        d_star_at(P, t)
        assert calls == [P]

    def test_pipeline_call_sequence_solves_once(self, monkeypatch):
        # The cutoff-ratio pipeline's calls on one matrix solve pi once and
        # run one BFS, and the public functions return the kept invariants.
        counts = Counter()
        for helper in ("_solve_stationary", "_support_metric"):
            def counted(P, _real=getattr(chain, helper), _name=helper):
                counts[_name] += 1
                return _real(P)
            monkeypatch.setattr(chain, helper, counted)
        inst = hypercube(5)
        P, starts = inst.matrix, inst.starts
        pi = stationary(P)
        metric_data(P)
        relaxation_time(P)
        t25 = mixing_time(P, 0.25, starts=starts)
        mixing_time(P, 0.75, starts=starts)
        d_star_at(P, t25, starts=starts, pi=pi)
        v_star_at(P, t25, starts=starts, pi=pi)
        assert counts == {"_solve_stationary": 1, "_support_metric": 1}
        assert stationary(P) is P.pi and metric_data(P) is P.metric


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------

def exact_poisson(t, K):
    """Poisson(t) pmf q_0..q_K and the tail mass past K, in 60-digit
    decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        T = Decimal(t)
        q = [(-T).exp()]
        for k in range(1, K + 1):
            q.append(q[-1] * T / k)
        # Past the mode the terms fall at least geometrically.
        tail, term, k = Decimal(0), q[-1], K
        while term > tail * Decimal("1e-30") or k < T:
            k += 1
            term = term * T / k
            tail += term
        return q, tail


class TestPoissonWeights:
    def test_mass_certificate(self):
        # The weights sum to 1 - tail, and K is the first index past the
        # mode whose tail bound is below _MASS_TOL.
        for t in (0.01, 0.5, 3.0, 40.0, 300.0, 5000.0):
            q = poisson_weights(t)
            assert abs(1.0 - q.sum()) < 1e-13
            K = len(q) - 1
            if K - 1 >= math.floor(t):
                q_K = exact_poisson(t, K)[0][K]
                assert float(q_K) / (1 - t / (K + 1)) > chain._MASS_TOL

    @pytest.mark.parametrize("t", [1e-3, 0.5, 5.0, 300.0, 700.0, 701.0,
                                   1500.0, 1e4])
    def test_matches_exact_pmf(self, t):
        # Every weight in the normal float range is within 1e-13 relative
        # of the exact pmf, and the returned tail bound lies between the
        # true tail and tol, for a tol of _MASS_TOL and a far smaller one.
        for tol in (chain._MASS_TOL, 1e-200):
            q, tail = chain._poisson_pmf(t, tol)
            exact, true_tail = exact_poisson(t, len(q) - 1)
            for w, e in zip(q, exact):
                if e > Decimal("1e-290"):
                    assert abs(Decimal(float(w)) - e) <= Decimal(1e-13) * e
            assert true_tail <= Decimal(tail) and tail <= tol

    def test_zero_time(self):
        assert poisson_weights(0.0).tolist() == [1.0]

    def test_min_terms_extends_truncation(self):
        q = poisson_weights(0.2, min_terms=40)
        assert len(q) >= 41

    def test_rejects_negative_and_huge_times(self):
        with pytest.raises(ValueError):
            poisson_weights(-1.0)
        for t in (math.inf, math.nan):
            with pytest.raises(TimeOutOfRange):
                poisson_weights(t)


class TestHeatKernel:
    def test_flip_chain_closed_form(self):
        # Spectral decomposition of the flip generator: eigenvalues 0, -2,
        # so P_t(0,0) = (1 + e^{-2t}) / 2.
        P = StochasticMatrix(FLIP)
        for t in (0.0, 0.3, 1.0, 4.0):
            row = heat_kernel_row(P, 0, t)
            assert row.probs[0] == pytest.approx(0.5 * (1 + math.exp(-2 * t)),
                                                 abs=1e-12)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(5)
        for n in (3, 7, 15):
            P = random_chain(rng, n)
            for t in (0.1, 1.0, 6.0):
                K = heat_kernel(P, t)
                E = expm(t * (P.entries - np.eye(n)))
                assert np.max(np.abs(K - E)) < 1e-11

    def test_rows_are_distributions(self):
        P = cycle_matrix(9)
        for t in (0.05, 2.0, 30.0):
            K = heat_kernel(P, t)
            for row in K:
                Distribution(row)       # raises if mass is off by > 1e-12

    def test_row_matches_full_kernel(self):
        P = cycle_matrix(8)
        K = heat_kernel(P, 1.7)
        for o in (0, 3, 7):
            assert np.allclose(heat_kernel_row(P, o, 1.7).probs, K[o],
                               atol=1e-14)

    def test_apply_matches_kernel_action(self):
        rng = np.random.default_rng(2)
        P = random_chain(rng, 10)
        f = rng.standard_normal(10)
        K = heat_kernel(P, 2.2)
        assert np.allclose(heat_kernel_apply(P, f, 2.2), K @ f,
                           atol=1e-12)

    def test_semigroup_property(self):
        P = cycle_matrix(6)
        K1 = heat_kernel(P, 0.8)
        K2 = heat_kernel(P, 1.3)
        K3 = heat_kernel(P, 2.1)
        assert np.max(np.abs(K1 @ K2 - K3)) < 1e-11

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.booleans(),
           st.booleans(), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    def test_semigroup_on_random_chains(self, seed, n, symmetric, lazy, s, t):
        # P_s P_t = P_{s+t}: each factor is within 1e-13 of the exact series
        # in row l1, and a stochastic factor does not enlarge that error.
        P = sparse_chain(seed, n, symmetric, lazy)
        K = heat_kernel(P, s) @ heat_kernel(P, t)
        assert np.abs(K - heat_kernel(P, s + t)).sum(axis=1).max() < 1e-11

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.booleans(),
           st.booleans(), st.lists(st.floats(0.0, 30.0), min_size=2,
                                   max_size=5))
    def test_worst_tv_non_increasing(self, seed, n, symmetric, lazy, times):
        # ||P_t(x,.) - pi||_TV is non-increasing in t for every start x.
        P = sparse_chain(seed, n, symmetric, lazy)
        tv = [worst_tv(P, t) for t in sorted(times)]
        assert np.all(np.diff(tv) <= 1e-12)

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.booleans(),
           st.booleans(),
           st.lists(st.tuples(st.floats(0.0, 30.0), st.sampled_from([0, 40])),
                    min_size=1, max_size=4),
           st.sampled_from(["increasing", "decreasing", "repeated"]))
    def test_shared_powers_match_fresh_rows(self, seed, n, symmetric, lazy,
                                            asks, order):
        # Rows reweighted from one power sequence, whatever order the times
        # come in and whatever truncation floor each asks for, are the rows
        # a fresh series gives, bit for bit; so is the one-shot row.  The
        # series multiplies as the rows do, by P.row_times (dense or CSR
        # by the support's density).
        P = sparse_chain(seed, n, symmetric, lazy)

        def series_row(o, t, m):
            q = poisson_weights(t, min_terms=m)
            v = np.zeros(n)
            v[o] = 1.0
            acc = q[0] * v
            for k in range(1, len(q)):
                v = P.row_times(v)
                acc += q[k] * v
            return Distribution(acc).probs

        asks = sorted(asks, reverse=order == "decreasing")
        if order == "repeated":
            asks = asks + asks[::-1]
        starts = list(range(0, n, 2))
        rows = chain._KernelRows(P, starts)
        for t, m in asks:
            fresh = [heat_kernel_row(P, o, t, min_terms=m).probs
                     for o in starts]
            assert all(np.array_equal(row, series_row(o, t, m))
                       for o, row in zip(starts, fresh))
            shared = rows(t, min_terms=m)
            assert all(map(np.array_equal, shared, fresh))
            if m == 0:
                assert np.array_equal(rows(t), np.vstack(fresh))

    def test_rows_past_700(self):
        # Start-set rows against the cycle's character sum P_t(0, x) =
        # (1/n) sum_k e^{t (cos(2 pi k/n) - 1)} e^{2 pi i k x/n}, and the
        # semigroup's action against the squared kernel.
        n, t = 200, 1500.0
        P = cycle(n).matrix
        exact = np.fft.ifft(np.exp(t * (np.cos(2 * np.pi * np.arange(n) / n)
                                        - 1.0))).real
        row = kernel_rows(P, t, [0])[0]
        assert np.abs(row - exact).sum() <= 2 * chain._MASS_TOL
        f = np.random.default_rng(4).standard_normal(n)
        assert np.max(np.abs(heat_kernel_apply(P, f, t)
                             - heat_kernel(P, t) @ f)) <= 1e-12

    def test_power_sequence_cap(self):
        # The rows' powers would hold about t n floats: refused before any
        # is computed.
        rows = chain._KernelRows(cycle_matrix(64), [0])
        with pytest.raises(StateCapExceeded):
            rows(1e6)

    def test_state_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            heat_kernel_row(cycle_matrix(4), 4, 1.0)

    def test_observable_length_checked(self):
        with pytest.raises(DimensionMismatch):
            heat_kernel_apply(cycle_matrix(4), np.zeros(5), 1.0)


class TestSquaredKernel:
    """heat_kernel squares a short Poisson mixture: closed forms, the mass
    certificate, far entries, and its product count."""

    @staticmethod
    def assert_certified(K, exact):
        # Every error is missing mass: at most _MASS_TOL per row, and a row
        # l1 error of at most twice that.
        assert 1.0 - K.sum(axis=1).min() <= chain._MASS_TOL
        assert np.abs(K - exact).sum(axis=1).max() <= 2 * chain._MASS_TOL

    @settings(max_examples=40)
    @given(st.integers(2, 30), st.floats(0.0, 3000.0))
    def test_complete_graph_closed_form(self, n, t):
        # P - I = (n/(n-1)) (J/n - I), and J/n is a projection.
        a = math.exp(-t * n / (n - 1))
        exact = a * np.eye(n) + (1.0 - a) * np.full((n, n), 1.0 / n)
        self.assert_certified(heat_kernel(complete_graph(n).matrix, t), exact)

    @pytest.mark.parametrize("t", [0.3, 5.0, 1500.0])
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_hypercube_product_formula(self, d, t):
        # Each coordinate flips at rate 1/d: P_t(x, y) is the product of
        # (1 + e^{-2t/d})/2 over agreeing and (1 - e^{-2t/d})/2 over
        # disagreeing coordinates.
        x = np.arange(2 ** d)
        h = np.array([bin(v).count("1") for v in x])[x[:, None] ^ x[None, :]]
        e = math.exp(-2.0 * t / d)
        exact = ((1 + e) / 2) ** (d - h) * ((1 - e) / 2) ** h
        self.assert_certified(heat_kernel(hypercube(d).matrix, t), exact)

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.booleans(),
           st.floats(0.0, 100.0))
    def test_reversible_chains_match_eigh(self, seed, n, lazy, t):
        # Symmetric weights make the chain reversible: D^{1/2} P D^{-1/2}
        # with D = diag(pi) is symmetric, and its eigenvectors give P_t.
        P = sparse_chain(seed, n, True, lazy)
        r = np.sqrt(P.pi.probs)
        S = r[:, None] * P.entries / r[None, :]
        w, V = np.linalg.eigh(0.5 * (S + S.T))
        exact = ((V * np.exp(t * (w - 1.0))) @ V.T) / r[:, None] * r[None, :]
        self.assert_certified(heat_kernel(P, t), exact)

    @pytest.mark.parametrize("t", [0.0855, 100.0, 265.0])
    @pytest.mark.parametrize("p", [0.35, 0.3])
    def test_far_entries_match_rows(self, p, t):
        # With the diameter's reach the squared kernel resolves entries down
        # to 1e-121 (the drifting chain's pi spans 1e14) as the one-row
        # series does.  t = 0.0855 is the symmetric chain's t_mix(0.95),
        # where no squaring happens, and 100-265 its drifting twin's t_mix.
        P = birth_death([p] * 39, [0.5 - p] * 39).matrix
        reach = P.metric.diameter + 16
        K = heat_kernel(P, t, min_terms=reach)
        rows = np.vstack([heat_kernel_row(P, o, t, min_terms=reach).probs
                          for o in range(P.n)])
        assert np.all(np.abs(K - rows) <= 1e-10 * rows)

    def test_far_entries_at_mid_times(self):
        # At t = 10 a 55-term row series is itself short for the far
        # entries (off by 8e-5 relative); against a 400-term series the
        # squared kernel with the same 55-term reach agrees.
        P = birth_death([0.35] * 39, [0.15] * 39).matrix
        K = heat_kernel(P, 10.0, min_terms=P.metric.diameter + 16)
        rows = np.vstack([heat_kernel_row(P, o, 10.0, min_terms=400).probs
                          for o in range(P.n)])
        assert np.all(np.abs(K - rows) <= 1e-10 * rows)

    def test_products_per_kernel(self, monkeypatch):
        # len(q) - 1 series products for the base, then j squarings, where
        # j = ceil(log2(2t)) = 9 at t = 200: 13 + 9 here, against the 321
        # series terms of the unsquared kernel.
        products, bases = [], []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                a, b = self.view(np.ndarray), np.asarray(other)
                if b.ndim == 2:
                    products.append(b.shape)
                return (a @ b).view(Counted)
        # The series starts from the identity, so every matrix it makes,
        # and every square of one, is Counted.
        eye = np.eye
        monkeypatch.setattr(np, "eye", lambda n: eye(n).view(Counted))
        real = chain._poisson_pmf

        def recorded(*args):
            q, tail = real(*args)
            bases.append(len(q))
            return q, tail
        monkeypatch.setattr(chain, "_poisson_pmf", recorded)
        K = heat_kernel(hypercube(6).matrix, 200.0)
        assert len(products) == bases[0] - 1 + 9 <= 25
        assert set(products) == {(64, 64)}
        assert np.abs(K - 1 / 64).sum(axis=1).max() <= 2 * chain._MASS_TOL

    def test_times_past_700(self):
        P = cycle_matrix(9)
        for t in (701.0, 1e5, 1e300):
            K = heat_kernel(P, t)
            assert np.abs(K - 1 / 9).sum(axis=1).max() <= 2 * chain._MASS_TOL
        with pytest.raises(TimeOutOfRange):
            heat_kernel(P, math.inf)
        with pytest.raises(ValueError):
            heat_kernel(P, -1.0)
        assert np.array_equal(heat_kernel(P, 0.0), np.eye(9))

    def test_substochastic_matrix_refused(self):
        # Rows that lose mass are not rounding: the row-sum rescaling
        # refuses them instead of restoring the mass.
        P = StochasticMatrix(0.9 * cycle_matrix(5).entries)
        with pytest.raises(CertificateFailed):
            heat_kernel(P, 3.0)


def bd(p, q, states=40):
    return birth_death([p] * (states - 1), [q] * (states - 1)).matrix


def random_reversible(seed, n):
    """The benchmark's seeded random reversible chain (perfbench/
    workloads.py, which needs only numpy), loaded without writing bytecode
    next to the benchmark's sources."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    W = module.random_chain_weights(seed, n)
    return StochasticMatrix(W / W.sum(axis=1, keepdims=True))


def squared_afresh_tmix(P, eps):
    """mixing_time's doubling and bisection with every full kernel squared
    afresh by heat_kernel."""
    def below(t):
        return entropy._row_tvs(heat_kernel(P, t), P.pi).max() <= eps
    return 0.0 if below(0.0) else entropy._first_time(below)


class TestTimeEngine:
    """_KernelRows(P, None) answers each t from a kernel it holds times one
    dyadic rung or grid step: searches agree with kernels squared afresh,
    grids stay within the mass certificate, and each answer costs one
    product."""

    @staticmethod
    def assert_certified(K, P, t):
        # Against the one-shot kernel: a row l1 error of at most twice the
        # mass either may miss, and no row missing more than _MASS_TOL.
        assert 1.0 - K.sum(axis=1).min() <= chain._MASS_TOL
        assert (np.abs(K - heat_kernel(P, t)).sum(axis=1).max()
                <= 2 * chain._MASS_TOL)

    @pytest.mark.parametrize("make", [
        lambda: bd(0.35, 0.15), lambda: bd(0.3, 0.3),
        lambda: random_reversible(1, 64), lambda: random_reversible(2, 64),
        lambda: random_reversible(3, 64)],
        ids=["bd-drift", "bd-symmetric", "random-1", "random-2", "random-3"])
    def test_search_matches_squared_afresh(self, make):
        P = make()
        for eps in EPS_GRID:
            assert mixing_time(P, eps) == squared_afresh_tmix(P, eps)

    def test_cutoff_time_equation_unchanged(self):
        # The root of d* = c (1 + sqrt(V*)) on the drifting bd chain, as
        # found with every kernel squared afresh.
        P = bd(0.35, 0.15)

        def below(t):
            kl, var = entropy._row_entropies(heat_kernel(P, t), P.pi)
            return kl.max() - (1.0 + math.sqrt(var.max())) < 0.0
        assert cutoff_time_equation(P) == entropy._first_time(below) \
            == 136.5546875

    def test_long_grid(self):
        # 1000 points up to t = 2000 (11 distinct float steps) on the
        # symmetric bd chain, whose t_rel is about 541: each point is one
        # product past the first.
        P = bd(0.3, 0.3)
        rows = chain._KernelRows(P, None)
        for t in np.linspace(0.0, 2000.0, 1000):
            self.assert_certified(rows(t), P, t)

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.booleans(),
           st.floats(0.0, 50.0), st.floats(0.0, 3000.0), st.integers(1, 40),
           st.sampled_from(["grid", "search", "shuffled"]))
    def test_random_reversible_chains(self, seed, n, lazy, a, b, steps,
                                      order):
        # Any sequence of times: an increasing grid, the times a search
        # asks, or the grid in a seeded shuffle (kernels above t dropped).
        P = sparse_chain(seed, n, True, lazy)
        rows = chain._KernelRows(P, None)
        grid = np.linspace(min(a, b), max(a, b), steps)
        if order == "shuffled":
            np.random.default_rng(seed).shuffle(grid)
        if order == "search":
            def below(t):
                self.assert_certified(rows(t), P, t)
                return t >= b
            entropy._first_time(below)
            return
        for t in grid:
            self.assert_certified(rows(t), P, t)

    def test_mass_is_carried(self, monkeypatch):
        # With the kernel tolerance raised to 1e-8 the first grid kernel
        # (the one-shot heat_kernel) misses up to 5e-9 per row: every
        # later kernel misses at least that much row by row, since a row
        # of P_t P_h misses d_t + P_t d_h, and stays certified.
        monkeypatch.setattr(chain, "_MASS_TOL", 1e-8)
        P = bd(0.3, 0.3)
        rows = chain._KernelRows(P, None)
        grid = np.linspace(0.0, 500.0, 101)
        first = 1.0 - rows(grid[1]).sum(axis=1)
        assert first.min() > 1e-10
        for t in grid[2:]:
            K = rows(t)
            assert np.all(1.0 - K.sum(axis=1) >= first - 1e-15)
            self.assert_certified(K, P, t)

    def test_returned_kernels_are_read_only(self):
        rows = chain._KernelRows(bd(0.3, 0.3, 6), None)
        for t in (1.0, 1.5, 1.5, 3.7):
            with pytest.raises(ValueError):
                rows(t)[0, 0] = 0.0

    @pytest.mark.parametrize("make", [lambda: bd(0.35, 0.15),
                                      lambda: random_reversible(1, 64)],
                             ids=["bd-drift", "random-1"])
    def test_search_squares_no_kernel_afresh(self, monkeypatch, make):
        # One Poisson base for the whole search: heat_kernel is not called,
        # and _squared builds only the base of the dyadic rungs.
        P = make()
        calls = Counter()
        for name in ("heat_kernel", "_squared"):
            def counted(*args, _real=getattr(chain, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(chain, name, counted)
        for eps in (0.05, 0.5, 0.95):
            calls.clear()
            mixing_time(P, eps)
            assert calls["heat_kernel"] <= 1 and calls["_squared"] <= 1

    @pytest.mark.parametrize("make", [lambda: bd(0.35, 0.15),
                                      lambda: bd(0.3, 0.3),
                                      lambda: random_reversible(1, 64)],
                             ids=["bd-drift", "bd-symmetric", "random-1"])
    def test_auto_grid_builds_one_factor_per_step(self, monkeypatch, make):
        # analyze's 25-point grid to 1.5 t_mix(0.05): the first point past
        # 0 is the one-shot kernel, and every later one reuses the factor
        # of its step once the step has been seen.
        P = make()
        grid = cli._t_grid(SimpleNamespace(tgrid="auto"),
                           mixing_time(P, 0.05))
        built = []
        real = chain._squared

        def counted(P, t, *args):
            built.append(t)
            return real(P, t, *args)
        monkeypatch.setattr(chain, "_squared", counted)
        mixing_profile(P, grid)
        steps = set(np.diff(grid[1:]).tolist())
        assert built[0] == grid[1]
        assert len(set(built[1:])) == len(built[1:]) <= len(steps)


# ---------------------------------------------------------------------------
# Chain files
# ---------------------------------------------------------------------------

class TestChainFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        P = random_chain(rng, 6)
        path = tmp_path / "chain.txt"
        save_chain_file(P, path)
        Q = load_chain_file(path)
        assert np.array_equal(P.entries, Q.entries)

    def test_labels_and_comments(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("# a flip chain\n2\nlabels: heads tails\n"
                        "0 1\n1 0\n")
        P = load_chain_file(path)
        assert P.labels == ("heads", "tails")
        assert np.array_equal(P.entries, FLIP)

    @pytest.mark.parametrize("text", [
        "",
        "two\n0 1\n1 0\n",
        "2\n0 1\n",
        "2\n0 1\n1 0 0\n",
        "2\n0 one\n1 0\n",
    ])
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SpecParseError):
            load_chain_file(path)
