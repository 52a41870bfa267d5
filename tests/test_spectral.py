"""Spectral module: reversibilization, relaxation time and the carre du
champ."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoff_lab import spectral
from cutoff_lab.chain import StochasticMatrix, stationary
from cutoff_lab.errors import CertificateFailed, NotIrreducible
from cutoff_lab.families import (GroupSpec, StepLaw, birth_death,
                                 complete_graph, conjugacy_walk, cycle,
                                 hypercube, parse_family_spec)
from cutoff_lab.spectral import (POINCARE_SLACK, dirichlet_energy,
                                 gamma_form, relaxation_time,
                                 reversibilization)
from test_curvature import CHAINS, gamma_dense, sparse_chain
from test_reference import WALK_GROUPS, walk_laws


def biased_cycle(n, p=0.7):
    # Non-reversible: clockwise with probability p, counterclockwise 1-p.
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = p
        P[i, (i - 1) % n] = 1.0 - p
    return StochasticMatrix(P)


THREE_STATE = np.array([
    [0.1, 0.6, 0.3],
    [0.4, 0.2, 0.4],
    [0.5, 0.25, 0.25]])


def count_products(P, certificates):
    """The products by P ("apply", "row_times") that ``certificates`` calls
    of relaxation_time make once pi is known."""
    P.pi                            # its residual is a row product
    calls = []
    for name in ("apply", "row_times"):
        product = getattr(P, name)
        object.__setattr__(P, name, lambda X, name=name, product=product:
                           calls.append(name) or product(X))
    for _ in range(certificates):
        relaxation_time(P)
    return calls


def adjoint_of(P):
    """P* = 2K - P, read back from the reversibilization K = (P + P*)/2."""
    return 2.0 * reversibilization(P).entries - P.entries


class TestAdjoint:
    def test_reversible_chain_is_self_adjoint(self):
        P = cycle(8).matrix
        assert np.allclose(adjoint_of(P), P.entries, atol=1e-12)

    def test_adjoint_of_biased_cycle_reverses_drift(self):
        # Uniform pi, so P* is the plain transpose.
        P = biased_cycle(6)
        assert np.allclose(adjoint_of(P), P.entries.T, atol=1e-12)

    def test_adjoint_preserves_stationary_law(self):
        P = StochasticMatrix(THREE_STATE)
        pi = stationary(P).probs
        assert np.allclose(pi @ adjoint_of(P), pi, atol=1e-12)
        assert np.allclose(pi @ reversibilization(P).entries, pi, atol=1e-12)


class TestReversibilization:
    def test_detailed_balance(self):
        P = StochasticMatrix(THREE_STATE)
        pi = stationary(P)
        K = reversibilization(P)
        flows = pi.probs[:, None] * K.entries
        assert np.allclose(flows, flows.T, atol=1e-12)
        assert np.allclose(K.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_reversible_fixed_point(self):
        P = hypercube(3).matrix
        assert np.allclose(reversibilization(P).entries, P.entries,
                           atol=1e-12)


class TestRelaxationTime:
    def test_cycle_gap_closed_form(self):
        # Circulant spectrum: eigenvalues cos(2 pi j / n), so the gap is
        # 1 - cos(2 pi / n).
        for n in (5, 8, 16):
            rep = relaxation_time(cycle(n).matrix)
            assert rep.gap == pytest.approx(1.0 - math.cos(2 * math.pi / n),
                                            abs=1e-12)

    def test_complete_graph_t_rel(self):
        # K_n walk: eigenvalues 1 and -1/(n-1), gap n/(n-1).
        for n in (5, 20):
            rep = relaxation_time(complete_graph(n).matrix)
            assert rep.t_rel == pytest.approx((n - 1) / n, abs=1e-12)

    def test_biased_cycle_matches_symmetric_walk(self):
        # The additive reversibilization of the biased walk is the simple
        # walk, so both share t_rel.
        n = 10
        rep = relaxation_time(biased_cycle(n))
        assert rep.gap == pytest.approx(1.0 - math.cos(2 * math.pi / n),
                                        abs=1e-12)

    def test_spectrum_sorted_and_bounded(self):
        rep = relaxation_time(hypercube(4).matrix)
        eigs = rep.eigenvalues
        assert np.all(np.diff(eigs) <= 1e-12)
        assert eigs[0] == pytest.approx(1.0, abs=1e-12)
        assert eigs[-1] >= -1.0 - 1e-12
        assert rep.lambda2 == pytest.approx(eigs[1])

    @settings(max_examples=40)
    @CHAINS
    def test_matches_reversibilization_spectrum(self, seed, n, symmetric,
                                                lazy):
        # relaxation_time symmetrizes D^(1/2) P D^(-1/2) directly; the
        # reference takes the spectrum of the reversibilization K itself.
        P = sparse_chain(seed, n, symmetric, lazy)
        s = np.sqrt(P.pi.probs)
        K = reversibilization(P).entries
        want = np.linalg.eigvalsh((s[:, None] * K) / s[None, :])[::-1]
        rep = relaxation_time(P)
        assert np.allclose(rep.eigenvalues, want, rtol=0, atol=1e-12)
        assert rep.t_rel == pytest.approx(1.0 / (1.0 - want[1]), rel=1e-12)

    def test_rejects_reducible(self):
        with pytest.raises(NotIrreducible):
            relaxation_time(StochasticMatrix(np.eye(3)))

    def test_failed_poincare_certificate(self, monkeypatch):
        # With zero Dirichlet energy every non-constant f violates
        # Var(f) <= t_rel E(f).
        monkeypatch.setattr(spectral, "dirichlet_energy",
                            lambda P, f: 0.0)
        with pytest.raises(CertificateFailed, match="Poincare"):
            relaxation_time(cycle(6).matrix)

    def test_poincare_observables_in_draw_order(self, monkeypatch):
        # The certificate evaluates exactly the columns of one
        # (POINCARE_SAMPLES, n) draw from default_rng(0), transposed, in
        # order: default_rng fills sequentially.
        P = birth_death([0.3, 0.2, 0.4], [0.1, 0.3, 0.2]).matrix
        seen = []
        energy = spectral.dirichlet_energy

        def spy(P, f):
            seen.append(np.array(f, copy=True))
            return energy(P, f)
        monkeypatch.setattr(spectral, "dirichlet_energy", spy)
        relaxation_time(P)
        F = np.random.default_rng(0).standard_normal(
            (spectral.POINCARE_SAMPLES, P.n)).T
        assert len(seen) == F.shape[1]
        for k, f in enumerate(seen):
            assert np.array_equal(f, F[:, k])

    def test_one_product_per_observable(self):
        # On a chain that is not a declared walk (sym:k=4), each observable
        # costs one product P f; pi P is formed once per chain, on the
        # first certificate.
        P = conjugacy_walk(4).matrix
        assert Counter(count_products(P, 2)) == {
            "apply": 2 * spectral.POINCARE_SAMPLES, "row_times": 1}

    @pytest.mark.parametrize("samples", [spectral.POINCARE_SAMPLES, 7])
    def test_walk_products_fixed(self, monkeypatch, samples):
        # A declared walk's certificate takes two products P f, one for the
        # transform identity and one for the Dirichlet energy, however many
        # observables the sampled certificate would take.
        monkeypatch.setattr(spectral, "POINCARE_SAMPLES", samples)
        P = hypercube(6).matrix
        assert Counter(count_products(P, 2)) == {"apply": 4, "row_times": 1}

    def test_poincare_holds_a_few_vectors(self):
        # One observable at a time holds a few n-vectors; a block of the 50
        # would hold several temporaries of 50 n-vectors (about 33 MB here).
        P = parse_family_spec("hypercube:d=14").matrix
        relaxation_time(P)                 # pi, kept on P
        tracemalloc.start()
        try:
            relaxation_time(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * P.n


def tamper_lambda2(law):
    """Move the characters at lambda2, the second largest Re mu^, to
    lambda3 in the law's kept transform mu^."""
    hat = np.array(law._hat)
    levels = np.unique(hat.real.round(12))[::-1]
    hat[np.isclose(hat.real, levels[1], rtol=0, atol=1e-12)] += (
        levels[2] - levels[1])
    hat.setflags(write=False)
    law.__dict__["_hat"] = hat


def skew_law():
    """An irreducible step law on Z3 x Z4 x Z2^3 with mu(-g) != mu(g)."""
    group = GroupSpec((3, 4, 2, 2, 2))
    mu = np.random.default_rng(5).uniform(0.1, 1.0, group.N)
    return StepLaw(group, mu / mu.sum())


class TestWalkCertificate:
    @pytest.mark.parametrize("make", [
        lambda: hypercube(6).matrix, lambda: cycle(32).matrix,
        lambda: StochasticMatrix.walk(skew_law())],
        ids=["hypercube:d=6", "cycle:n=32", "Z3xZ4xZ2^3-skew"])
    def test_wrong_lambda2_fails(self, make):
        # The tampered spectrum gives a smaller t_rel under which every
        # sampled observable still satisfies the Poincare inequality; the
        # transform identity P f = C f does not hold.
        P = make()
        tamper_lambda2(P.step_law)
        with pytest.raises(CertificateFailed, match="transform"):
            relaxation_time(P)

    @settings(max_examples=60)
    @given(walk_laws(WALK_GROUPS + [(65,), (3, 67), (2, 128), (100, 2)]),
           st.integers(0, 2 ** 32 - 1))
    def test_identity_within_tau(self, law, seed):
        # Lazy or not, symmetric or not, through dense runs and np.fft.
        P = StochasticMatrix.walk(law)
        f = np.random.default_rng(seed).standard_normal(P.n)
        deviation, tau = spectral._walk_identity(P, f)
        assert deviation <= tau

    def test_tau_on_the_benchmark_hypercube(self):
        # tau = (3 eps + 4u) ||f||_1 + gamma_12 ||f||_inf, eps = gamma_66 +
        # gamma_34 on Z2^11.
        P = hypercube(11).matrix
        assert spectral._transform_eps(P.step_law) == pytest.approx(
            100 * 2.0 ** -53, rel=1e-12)
        f = np.random.default_rng(0).standard_normal(P.n)
        deviation, tau = spectral._walk_identity(P, f)
        assert 4e-11 < tau < 7e-11
        assert deviation < 1e-14


class TestGammaForm:
    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(7)
        P = hypercube(3).matrix
        f = rng.standard_normal(8)
        g = rng.standard_normal(8)
        direct = np.array([
            0.5 * sum(P.entries[x, y] * (f[y] - f[x]) * (g[y] - g[x])
                      for y in range(8))
            for x in range(8)])
        assert np.allclose(gamma_form(P, f, g), direct, atol=1e-12)

    def test_nonnegative_on_diagonal(self):
        rng = np.random.default_rng(8)
        P = cycle(9).matrix
        for _ in range(20):
            f = rng.standard_normal(9)
            assert np.all(gamma_form(P, f, f) >= -1e-14)

    def test_constant_functions_vanish(self):
        P = cycle(5).matrix
        assert np.allclose(gamma_form(P, np.ones(5), np.ones(5)), 0.0)


class TestPoincare:
    def test_variance_bound_tight_family(self):
        # Var(f) <= t_rel E[Gamma(f,f)] with equality for the second
        # eigenfunction; checked here on the cycle Fourier mode.
        n = 12
        P = cycle(n).matrix
        pi = stationary(P)
        rep = relaxation_time(P)
        f = np.cos(2 * math.pi * np.arange(n) / n)
        var = pi.probs @ (f - pi.probs @ f) ** 2
        energy = dirichlet_energy(P, f)
        assert var == pytest.approx(rep.t_rel * energy, rel=1e-10)

    def test_block_energy_matches_columns(self):
        P = biased_cycle(7)
        F = np.random.default_rng(9).standard_normal((7, 5))
        block = dirichlet_energy(P, F)
        assert block.shape == (5,)
        for j in range(5):
            assert block[j] == pytest.approx(
                dirichlet_energy(P, F[:, j]), rel=1e-13)

    @pytest.mark.parametrize("spec", [
        "hypercube:d=8", "cayley-random:Z2^8:d=12:seed=3", "cycle:n=12"])
    def test_energy_matches_gamma_form(self, spec):
        # The energies multiply by P's CSR, and agree with the dense carre
        # du champ.
        P = parse_family_spec(spec).matrix
        F = np.random.default_rng(10).standard_normal((P.n, 50))
        want = P.pi.probs @ gamma_dense(P, F, F)
        got = dirichlet_energy(P, F)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_random_observables_certified(self):
        # The Poincare inequality at the reported t_rel on observables
        # drawn here, not on the certificate's own fixed draws.
        rng = np.random.default_rng(123)
        for P in (hypercube(4).matrix,
                  birth_death([0.35] * 9, [0.15] * 9).matrix,
                  sparse_chain(11, 12, False, True)):
            t_rel = relaxation_time(P).t_rel
            p = P.pi.probs
            F = rng.standard_normal((P.n, 200))
            var = p @ (F - p @ F) ** 2
            assert np.all(var <= t_rel * dirichlet_energy(P, F)
                          + POINCARE_SLACK)
