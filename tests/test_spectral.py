"""Spectral module: adjoint, reversibilization, relaxation time and the
carre du champ."""

import math

import numpy as np
import pytest
from hypothesis import settings

from cutoff_lab import spectral
from cutoff_lab.chain import Distribution, StochasticMatrix, stationary
from cutoff_lab.errors import CertificateFailed, NotIrreducible
from cutoff_lab.families import (complete_graph, cycle, hypercube,
                                 parse_family_spec)
from cutoff_lab.spectral import (adjoint, dirichlet_energy, gamma_form,
                                 relaxation_time, reversibilization)
from test_curvature import CHAINS, sparse_chain


def biased_cycle(n, p=0.7):
    # Non-reversible: clockwise with probability p, counterclockwise 1-p.
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = p
        P[i, (i - 1) % n] = 1.0 - p
    return StochasticMatrix(P)


class TestAdjoint:
    def test_reversible_chain_is_self_adjoint(self):
        P = cycle(8).matrix
        assert np.allclose(adjoint(P).entries, P.entries, atol=1e-12)

    def test_adjoint_of_biased_cycle_reverses_drift(self):
        # Uniform pi, so P* is the plain transpose.
        P = biased_cycle(6)
        assert np.allclose(adjoint(P).entries, P.entries.T, atol=1e-12)

    def test_adjoint_preserves_stationary_law(self):
        P = StochasticMatrix(np.array([
            [0.1, 0.6, 0.3],
            [0.4, 0.2, 0.4],
            [0.5, 0.25, 0.25]]))
        pi = stationary(P)
        star = adjoint(P, pi)
        assert np.allclose(pi.probs @ star.entries, pi.probs, atol=1e-12)

    def test_rejects_unsupported_pi(self):
        P = cycle(4).matrix
        with pytest.raises(ValueError):
            adjoint(P, Distribution(np.array([0.5, 0.5, 0.0, 0.0])))


class TestReversibilization:
    def test_detailed_balance(self):
        P = StochasticMatrix(np.array([
            [0.1, 0.6, 0.3],
            [0.4, 0.2, 0.4],
            [0.5, 0.25, 0.25]]))
        pi = stationary(P)
        K = reversibilization(P, pi)
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
                            lambda P, pi, f: 0.0)
        with pytest.raises(CertificateFailed, match="Poincare"):
            relaxation_time(cycle(6).matrix)


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
        energy = dirichlet_energy(P, pi, f)
        assert var == pytest.approx(rep.t_rel * energy, rel=1e-10)

    def test_block_energy_matches_columns(self):
        P = biased_cycle(7)
        pi = stationary(P)
        F = np.random.default_rng(9).standard_normal((7, 5))
        block = dirichlet_energy(P, pi, F)
        assert block.shape == (5,)
        for j in range(5):
            assert block[j] == pytest.approx(
                dirichlet_energy(P, pi, F[:, j]), rel=1e-13)

    @pytest.mark.parametrize("spec", [
        "hypercube:d=8", "cayley-random:Z2^8:d=12:seed=3", "cycle:n=12"])
    def test_energy_matches_gamma_form(self, spec):
        # The energies multiply by P's CSR, and agree with the dense carre
        # du champ.
        P = parse_family_spec(spec).matrix
        F = np.random.default_rng(10).standard_normal((P.n, 50))
        want = P.pi.probs @ gamma_form(P, F, F)
        got = dirichlet_energy(P, P.pi, F)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_random_observables_certified(self):
        # relaxation_time itself raises if any certificate fails.
        relaxation_time(hypercube(4).matrix, seed=123, n_certificates=200)
