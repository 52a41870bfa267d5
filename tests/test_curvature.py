"""Curvature module: exact W1 with duality certificates, Ollivier edge
curvature, and the Bakry-Emery vertex eigenproblem.

The independent W1 oracle enumerates integer-valued Kantorovich potentials:
for integer costs the dual LP has an integral optimum (the constraint
matrix of pairwise differences is totally unimodular), and shifting lets
one pin f(0) = 0 with |f| <= diameter.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoff_lab import curvature
from cutoff_lab.chain import (Distribution, StochasticMatrix, heat_kernel,
                              metric_data, stationary)
from cutoff_lab.curvature import (_local_quadratic_forms,
                                  bakry_emery_curvature, bakry_emery_vertex,
                                  contraction_check, full_curvature_report,
                                  gamma2_form, generator_apply,
                                  ollivier_curvature, subcommutativity_check,
                                  wasserstein1)
from cutoff_lab.errors import (AsymmetricSupport, CertificateFailed,
                               NotIrreducible)
from cutoff_lab.families import (birth_death, complete_graph, cycle,
                                 hypercube)
from cutoff_lab.spectral import gamma_form

FLIP = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def w1_exhaustive(mu, nu, dist):
    """Max of <f, mu - nu> over integer 1-Lipschitz f with f[0] = 0."""
    n = len(mu)
    diam = int(dist.max())
    grids = np.array(list(itertools.product(range(-diam, diam + 1),
                                            repeat=n - 1)), dtype=np.int64)
    F = np.hstack([np.zeros((len(grids), 1), dtype=np.int64), grids])
    ok = np.ones(len(F), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            ok &= np.abs(F[:, i] - F[:, j]) <= dist[i, j]
    return float(np.max(F[ok] @ (mu - nu)))


def random_connected_chain(rng, n):
    """Lazy walk on a random connected graph (spanning tree plus extras)."""
    adj = np.zeros((n, n), dtype=bool)
    for v in range(1, n):
        u = int(rng.integers(0, v))
        adj[u, v] = adj[v, u] = True
    extra = rng.integers(0, n, size=(n, 2))
    for u, v in extra:
        if u != v:
            adj[u, v] = adj[v, u] = True
    P = adj / adj.sum(axis=1, keepdims=True)
    P = 0.5 * np.eye(n) + 0.5 * P
    return StochasticMatrix(P)


def sparse_chain(seed, n, symmetric, lazy):
    """Random weights on a directed ring plus random arcs, symmetrized on
    request; a lazy chain holds with probability 0.1-0.6 at each state."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < 0.3)
    W[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    W[np.arange(n), np.arange(n)] = 0.0
    if symmetric:
        W = W + W.T
    P = W / W.sum(axis=1, keepdims=True)
    if lazy:
        hold = rng.uniform(0.1, 0.6, n)
        P = np.diag(hold) + (1.0 - hold)[:, None] * P
    return StochasticMatrix(P)


CHAINS = given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.booleans(),
               st.booleans())


def random_distribution(rng, n):
    k = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=k, replace=False)
    w = rng.dirichlet(np.ones(k))
    p = np.zeros(n)
    p[support] = w
    return Distribution(p)


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------

class TestWasserstein1:
    def test_point_masses(self):
        P = cycle(8).matrix
        metric = metric_data(P)
        for x, y in [(0, 1), (0, 4), (2, 7)]:
            mu = np.zeros(8)
            mu[x] = 1.0
            nu = np.zeros(8)
            nu[y] = 1.0
            plan = wasserstein1(Distribution(mu), Distribution(nu), metric)
            assert plan.value == pytest.approx(metric.dist[x, y], abs=1e-10)

    def test_identical_distributions(self):
        P = cycle(6).matrix
        metric = metric_data(P)
        pi = stationary(P)
        assert wasserstein1(pi, pi, metric).value == pytest.approx(0.0,
                                                                   abs=1e-10)

    def test_path_cdf_formula(self):
        # On a path, W1 = sum_k |F_mu(k) - F_nu(k)| (one-dimensional
        # transport through each cut edge).
        inst = birth_death([0.3] * 5, [0.3] * 5)
        metric = metric_data(inst.matrix)
        rng = np.random.default_rng(0)
        for _ in range(25):
            mu = random_distribution(rng, 6)
            nu = random_distribution(rng, 6)
            expected = float(np.abs(np.cumsum(mu.probs - nu.probs)[:-1]).sum())
            plan = wasserstein1(mu, nu, metric)
            assert plan.value == pytest.approx(expected, abs=1e-9)

    def test_plan_has_correct_marginals(self):
        P = cycle(7).matrix
        metric = metric_data(P)
        rng = np.random.default_rng(1)
        mu = random_distribution(rng, 7)
        nu = random_distribution(rng, 7)
        plan = wasserstein1(mu, nu, metric)
        row = np.zeros(7)
        col = np.zeros(7)
        cost = 0.0
        for x, y, mass in plan.plan:
            assert mass > 0
            row[x] += mass
            col[y] += mass
            cost += mass * metric.dist[x, y]
        assert np.allclose(row, mu.probs, atol=1e-9)
        assert np.allclose(col, nu.probs, atol=1e-9)
        assert cost == pytest.approx(plan.value, abs=1e-9)

    def test_dual_certificate(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(2, 13))
            P = random_connected_chain(rng, n)
            metric = metric_data(P)
            mu = random_distribution(rng, n)
            nu = random_distribution(rng, n)
            plan = wasserstein1(mu, nu, metric)
            f = plan.dual_potential
            # 1-Lipschitz on the whole metric, attains the primal value.
            gaps = np.abs(f[:, None] - f[None, :]) - metric.dist
            assert np.max(gaps) <= 1e-9
            assert f @ (mu.probs - nu.probs) == pytest.approx(plan.value,
                                                              abs=1e-8)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            P = random_connected_chain(rng, n)
            metric = metric_data(P)
            mu = random_distribution(rng, n)
            nu = random_distribution(rng, n)
            plan = wasserstein1(mu, nu, metric)
            oracle = w1_exhaustive(mu.probs, nu.probs, metric.dist)
            assert plan.value == pytest.approx(oracle, abs=1e-9)

    def test_feasible_full_support_rows_solve(self):
        # HiGHS calls this equal-mass transport LP infeasible at its default
        # primal feasibility tolerance; the tightened re-solve finds W1.
        P = birth_death([0.35] * 39, [0.15] * 39).matrix
        K = heat_kernel(P, 48.78)
        mu, nu = K[0], K[1]
        plan = wasserstein1(Distribution(mu), Distribution(nu), P.metric)
        assert plan.value == pytest.approx(
            float(np.abs(np.cumsum(mu - nu)).sum()), abs=1e-9)


# ---------------------------------------------------------------------------
# Ollivier curvature
# ---------------------------------------------------------------------------

class TestOllivier:
    def test_cycle_is_flat(self):
        # Translation coupling moves both walkers in lockstep: kappa = 0.
        for n in (6, 10):
            rep = ollivier_curvature(cycle(n).matrix)
            assert rep.ollivier_min == pytest.approx(0.0, abs=1e-10)
            assert all(abs(k) < 1e-10 for k in rep.ollivier_edges.values())

    def test_complete_graph_closed_form(self):
        # P(x,.) and P(y,.) differ by mass 1/(n-1) moved across one edge:
        # W1 = 1/(n-1), kappa = (n-2)/(n-1).
        for n in (5, 9):
            rep = ollivier_curvature(complete_graph(n).matrix)
            expected = (n - 2) / (n - 1)
            assert rep.ollivier_min == pytest.approx(expected, abs=1e-10)

    def test_hypercube_parity_zero(self):
        # Without laziness the one-step laws live on opposite parity
        # classes at distance >= 1, so W1 = 1 exactly and kappa = 0.
        rep = ollivier_curvature(hypercube(4).matrix)
        assert rep.ollivier_min == pytest.approx(0.0, abs=1e-10)

    def test_lazy_hypercube_positive(self):
        rep = ollivier_curvature(hypercube(4, laziness=0.5).matrix)
        assert rep.ollivier_min > 0.1

    def test_monotone_birth_death_nonnegative(self):
        rep = ollivier_curvature(birth_death([0.3] * 9, [0.3] * 9).matrix)
        assert rep.ollivier_min >= -1e-10

    def test_edge_coverage(self):
        P = cycle(5).matrix
        rep = ollivier_curvature(P)
        assert set(rep.ollivier_edges) == set(P.edges())

    @pytest.mark.parametrize("lp_vars", [curvature._LP_VARS, 50])
    def test_shared_lps_match_per_edge_w1(self, monkeypatch, lp_vars):
        # At 50 variables an LP holds three hypercube(4) blocks (16
        # variables each) or two lazy ones (25), and each complete(20)
        # block (361) goes over the budget alone.
        monkeypatch.setattr(curvature, "_LP_VARS", lp_vars)
        rng = np.random.default_rng(7)
        chains = [hypercube(4).matrix, hypercube(4, 0.5).matrix,
                  cycle(10).matrix, complete_graph(20).matrix,
                  birth_death([0.35] * 11, [0.15] * 11).matrix]
        chains += [random_connected_chain(rng, int(n)) for n in (5, 12, 30)]
        for P in chains:
            rep = ollivier_curvature(P)
            assert set(rep.ollivier_edges) == set(P.edges())
            for (x, y), kappa in rep.ollivier_edges.items():
                w1 = wasserstein1(Distribution(P.entries[x]),
                                  Distribution(P.entries[y]), P.metric).value
                assert abs(kappa - (1.0 - w1)) <= 1e-12

    def test_edges_share_lps(self, monkeypatch):
        calls = []
        linprog = curvature.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)
        monkeypatch.setattr(curvature, "linprog", counted)
        P = hypercube(6).matrix
        rep = ollivier_curvature(P)
        assert len(rep.ollivier_edges) == 192
        assert len(calls) <= 8

    def test_failed_lp_is_a_certificate_failure(self, monkeypatch):
        monkeypatch.setattr(curvature, "linprog", lambda *a, **k:
                            SimpleNamespace(success=False, message="stub"))
        with pytest.raises(CertificateFailed, match="stub"):
            ollivier_curvature(cycle(6).matrix)

    def test_duality_gap_is_a_certificate_failure(self, monkeypatch):
        monkeypatch.setattr(curvature, "DUALITY_TOL", -1.0)
        with pytest.raises(CertificateFailed, match="duality gap"):
            ollivier_curvature(cycle(6).matrix)

    def test_gates(self):
        asym = StochasticMatrix(np.array([[0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1.0],
                                          [1.0, 0.0, 0.0]]))
        with pytest.raises(AsymmetricSupport):
            ollivier_curvature(asym)
        with pytest.raises(NotIrreducible):
            ollivier_curvature(StochasticMatrix(np.eye(3)))


# ---------------------------------------------------------------------------
# Bakry-Emery curvature
# ---------------------------------------------------------------------------

class TestGamma2:
    def test_matches_definition(self):
        rng = np.random.default_rng(4)
        P = hypercube(3).matrix
        for _ in range(10):
            f = rng.standard_normal(8)
            lf = generator_apply(P, f)
            expected = 0.5 * generator_apply(P, gamma_form(P, f, f)) \
                - gamma_form(P, f, lf)
            assert np.allclose(gamma2_form(P, f), expected, atol=1e-12)

    def test_generator_kills_constants(self):
        P = cycle(6).matrix
        assert np.allclose(generator_apply(P, np.ones(6)), 0.0)


class TestBakryEmery:
    def test_flip_chain_hand_expansion(self):
        # For f = (a, b): Gamma(f,f)(0) = (b-a)^2/2, L Gamma = 0 at both
        # states, Gamma(f, Lf)(0) = -(b-a)^2, so Gamma2 = (b-a)^2 and the
        # Rayleigh quotient is identically 2.
        kappa, f = bakry_emery_vertex(FLIP, 0)
        assert kappa == pytest.approx(2.0, abs=1e-10)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.standard_normal(2)
            if abs(b - a) < 1e-9:
                continue
            g = np.array([a, b])
            quot = gamma2_form(FLIP, g)[0] / gamma_form(FLIP, g, g)[0]
            assert quot == pytest.approx(2.0, abs=1e-10)

    def test_hypercube_two_over_d(self):
        # Product structure: curvature of the d-fold product of rate-1/d
        # flip chains is 2/d at every vertex.
        for d in (2, 3, 4, 5):
            rep = bakry_emery_curvature(hypercube(d).matrix, samples=50,
                                        seed=0)
            for kappa in rep.bakry_emery_vertices.values():
                assert kappa == pytest.approx(2.0 / d, abs=1e-9)

    def test_cycle_flat(self):
        rep = bakry_emery_curvature(cycle(8).matrix, samples=50, seed=0)
        assert rep.bakry_emery_min == pytest.approx(0.0, abs=1e-9)

    def test_flat_cycle_and_8_cube_to_rounding(self):
        # No threshold to round through: the 32-cycle is flat and the 8-cube
        # has 2/d = 1/4 at every vertex, both to 1e-15.
        for P, want in ((cycle(32).matrix, 0.0), (hypercube(8).matrix, 0.25)):
            rep = bakry_emery_curvature(P, samples=0)
            for kappa in rep.bakry_emery_vertices.values():
                assert abs(kappa - want) <= 1e-15

    @settings(max_examples=40)
    @CHAINS
    def test_minimizer_attains_kappa(self, seed, n, symmetric, lazy):
        # With test_sampled_quotient_at_least_kappa this brackets kappa(x)
        # from both sides.  The local forms leave out the holding term
        # 1/2 P(x,x) Gamma(f,f)(x) of Gamma2, so it is taken off here.
        P = sparse_chain(seed, n, symmetric, lazy)
        for x in range(n):
            kappa, f = bakry_emery_vertex(P, x)
            den = gamma_form(P, f, f)[x]
            num = gamma2_form(P, f)[x] - 0.5 * P.entries[x, x] * den
            assert den > 1e-12
            assert num / den == pytest.approx(kappa,
                                              abs=1e-9 * (1.0 + abs(kappa)))

    @settings(max_examples=40)
    @CHAINS
    def test_local_forms_block_structure(self, seed, n, symmetric, lazy):
        # The closed form of bakry_emery_vertex rests on these facts.  With
        # near the out-neighbours of x and far the rest of the 2-ball, B is
        # diag(P(x,y)/2) on near and zero on far, and A is diagonal on far
        # with entries a_z = 1/4 sum_{y != x} P(x,y) P(y,z) > 0.
        P = sparse_chain(seed, n, symmetric, lazy)
        E = P.entries
        for x in range(n):
            A, B, ball = _local_quadratic_forms(P, x)
            w = E[x].copy()
            w[x] = 0.0
            near = w[ball] > 0
            far = ~near & (ball != x)
            assert np.array_equal(B[np.ix_(near, near)],
                                  np.diag(0.5 * w[ball[near]]))
            assert not B[far].any() and not B[:, far].any()
            a = 0.25 * (w @ E)[ball[far]]
            assert np.all(a > 0)
            assert np.allclose(A[np.ix_(far, far)], np.diag(a), rtol=0,
                               atol=1e-15)

    def test_two_ball_locality(self):
        # Perturbing transition rates outside the 2-ball of x leaves
        # kappa(x) unchanged.
        n = 12
        base = cycle(n).matrix.entries.copy()
        other = base.copy()
        # Redistribute mass among states 5..7, all at distance >= 3 from 0.
        other[6, 5], other[6, 7] = 0.3, 0.7
        k0, _ = bakry_emery_vertex(StochasticMatrix(base), 0)
        k1, _ = bakry_emery_vertex(StochasticMatrix(other), 0)
        assert k0 == pytest.approx(k1, abs=1e-12)

    @settings(max_examples=40)
    @CHAINS
    def test_local_forms_polarize_gamma_forms(self, seed, n, symmetric, lazy):
        # A and B against the polarizations of gamma2_form and gamma_form
        # on the 2-ball basis.  A leaves out the holding term
        # 1/2 P(x,x) Gamma(x) of Gamma2, hence kappa(x) - P(x,x)/2 on a lazy
        # chain.
        P = sparse_chain(seed, n, symmetric, lazy)
        for x in range(n):
            A, B, ball = _local_quadratic_forms(P, x)
            E = np.eye(n)[ball]

            def polar(q):
                diag = np.array([q(e) for e in E])
                return np.array([[0.5 * (q(a + b) - q(a) - q(b)) if i != j
                                  else diag[i] for j, b in enumerate(E)]
                                 for i, a in enumerate(E)])
            B2 = polar(lambda f: gamma_form(P, f, f)[x])
            A2 = polar(lambda f: gamma2_form(P, f)[x])
            assert np.allclose(B, B2, rtol=0, atol=1e-12)
            assert np.allclose(A + 0.5 * P.entries[x, x] * B, A2, rtol=0,
                               atol=1e-12)

    @settings(max_examples=40)
    @CHAINS
    def test_sampled_quotient_at_least_kappa(self, seed, n, symmetric, lazy):
        P = sparse_chain(seed, n, symmetric, lazy)
        rng = np.random.default_rng(seed)
        for x in range(n):
            kappa, _ = bakry_emery_vertex(P, x)
            for f in rng.standard_normal((20, n)):
                den = gamma_form(P, f, f)[x]
                if den > 1e-9:
                    assert gamma2_form(P, f)[x] / den >= \
                        kappa - 1e-8 * (1.0 + abs(kappa))

    def test_absorbing_state_refused(self):
        # Gamma(.,.)(x) vanishes at a state without out-neighbours, so
        # there is no quotient to minimize.
        P = StochasticMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(NotIrreducible):
            bakry_emery_vertex(P, 0)

    def test_complete_graph_every_vertex(self):
        # The 2-ball is the 1-ball, so there is no far block and no Schur
        # complement to take; kappa = (n+2)/(2(n-1)).
        for n in (3, 5, 12, 20):
            rep = bakry_emery_curvature(complete_graph(n).matrix, samples=20)
            for kappa in rep.bakry_emery_vertices.values():
                assert kappa == pytest.approx((n + 2) / (2 * (n - 1)),
                                              abs=1e-9)

    def test_sampled_rayleigh_validation_runs(self):
        # bakry_emery_curvature raises internally if any sampled quotient
        # undercuts the computed infimum.
        bakry_emery_curvature(cycle(10).matrix, samples=500, seed=42)

    def test_sampled_quotient_below_kappa_fails(self, monkeypatch):
        real = curvature.bakry_emery_vertex

        def inflated(P, x):
            kappa, f = real(P, x)
            return kappa + 1.0, f
        monkeypatch.setattr(curvature, "bakry_emery_vertex", inflated)
        with pytest.raises(CertificateFailed, match="Rayleigh"):
            bakry_emery_curvature(cycle(6).matrix, samples=50)

    def test_full_report_combines_both(self):
        rep = full_curvature_report(cycle(6).matrix, samples=20)
        assert rep.ollivier_min is not None
        assert rep.bakry_emery_min is not None
        assert len(rep.bakry_emery_vertices) == 6


# ---------------------------------------------------------------------------
# Semigroup-level contraction checks
# ---------------------------------------------------------------------------

class TestSemigroupChecks:
    def test_contraction_on_lazy_hypercube(self):
        P = hypercube(3, laziness=0.5).matrix
        kappa = ollivier_curvature(P).ollivier_min
        v = contraction_check(P, kappa, [0.5, 2.0], n_f=20, seed=0)
        assert v.passed

    def test_subcommutativity_on_hypercube(self):
        P = hypercube(3).matrix
        kappa = bakry_emery_curvature(P, samples=0).bakry_emery_min
        v = subcommutativity_check(P, kappa, [0.5, 2.0], n_f=20, seed=0)
        assert v.passed

    def test_inflated_kappa_fails(self):
        # A deliberately wrong (too large) curvature constant must be
        # caught by the contraction check.
        P = cycle(8).matrix
        v = contraction_check(P, 1.5, [2.0], n_f=20, seed=0)
        assert not v.passed
