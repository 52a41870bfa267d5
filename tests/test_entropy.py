"""Entropy module: TV/KL/varentropy, mixing profiles and times, and the
quantitative inequality checks."""

import math

import numpy as np
import pytest

from cutoff_lab import entropy
from cutoff_lab.chain import Distribution, StochasticMatrix, stationary
from cutoff_lab.entropy import (EPS_GRID, EPS_MIN, cutoff_time_equation,
                                cutoff_window_bound, d_star_at,
                                diameter_bound_check,
                                entropic_concentration_ratio,
                                entropic_lower_bound_check,
                                entropic_upper_bound, entropy_profile,
                                kl_divergence, local_concentration_check,
                                local_concentration_sweep,
                                log_density_lip_norm,
                                log_gradient_bound_check, mixing_profile,
                                mixing_time, tv_distance, v_star_at,
                                varentropy, varentropy_bound_check, worst_tv)
from cutoff_lab.errors import (CurvatureHypothesisFailed, DimensionMismatch,
                               EpsilonOutOfRange, HypothesisViolation,
                               NoCrossing, UnsupportedState)
from cutoff_lab.families import complete_graph, cycle, hypercube


def complete_tmix(n, eps):
    # K_n walk: P_t(x,.) - pi = e^{-n t/(n-1)} (delta_x - pi), so the worst
    # TV is (1 - 1/n) e^{-n t/(n-1)} and the crossing solves in closed form.
    return (n - 1) / n * math.log((1 - 1 / n) / eps)


class TestDivergences:
    def test_tv_hand_value(self):
        mu = Distribution(np.array([0.5, 0.5]))
        nu = Distribution(np.array([0.25, 0.75]))
        assert tv_distance(mu, nu) == pytest.approx(0.25, abs=1e-15)

    def test_kl_and_varentropy_hand_values(self):
        # mu = (1/2, 1/2), pi = (1/4, 3/4): log ratios (log 2, log(2/3)).
        mu = np.array([0.5, 0.5])
        pi = np.array([0.25, 0.75])
        logs = np.array([math.log(2.0), math.log(2.0 / 3.0)])
        d = 0.5 * logs.sum()
        v = 0.5 * ((logs[0] - d) ** 2 + (logs[1] - d) ** 2)
        assert kl_divergence(mu, pi) == pytest.approx(d, abs=1e-14)
        assert varentropy(mu, pi) == pytest.approx(v, abs=1e-14)

    def test_kl_zero_iff_equal(self):
        pi = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(pi, pi) == pytest.approx(0.0, abs=1e-15)
        assert varentropy(pi, pi) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_entropy(self):
        # d_KL(delta_x, pi) = -log pi(x); varentropy of a point mass is 0.
        pi = np.array([0.2, 0.3, 0.5])
        delta = np.array([1.0, 0.0, 0.0])
        assert kl_divergence(delta, pi) == pytest.approx(-math.log(0.2),
                                                         abs=1e-14)
        assert varentropy(delta, pi) == pytest.approx(0.0, abs=1e-14)

    def test_pinsker(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            mu = rng.dirichlet(np.ones(n))
            pi = rng.dirichlet(np.ones(n)) + 1e-6
            pi /= pi.sum()
            assert kl_divergence(mu, pi) >= 2.0 * tv_distance(mu, pi) ** 2 \
                - 1e-12

    def test_unsupported_state_gate(self):
        with pytest.raises(UnsupportedState):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_dimension_gate(self):
        with pytest.raises(DimensionMismatch):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


class TestMixing:
    def test_complete_graph_closed_form(self):
        for n in (10, 25):
            P = complete_graph(n).matrix
            for eps in (0.05, 0.25, 0.5):
                assert mixing_time(P, eps, starts=[0]) == pytest.approx(
                    complete_tmix(n, eps), abs=5e-4)

    def test_worst_tv_at_zero(self):
        P = cycle(8).matrix
        assert worst_tv(P, 0.0) == pytest.approx(1 - 1 / 8, abs=1e-12)

    def test_profile_monotone(self):
        P = hypercube(4).matrix
        prof = mixing_profile(P, np.linspace(0.0, 8.0, 17), starts=[0])
        assert np.all(np.diff(prof.worst_tv) <= 1e-9)

    def test_mixing_time_monotone_in_eps(self):
        P = cycle(10).matrix
        times = [mixing_time(P, e, starts=[0]) for e in (0.1, 0.3, 0.6, 0.9)]
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))

    def test_starts_equivalent_for_transitive(self):
        P = cycle(9).matrix
        assert mixing_time(P, 0.25, starts=[0]) == pytest.approx(
            mixing_time(P, 0.25), abs=1e-6)

    def test_zero_when_already_mixed(self):
        P = cycle(4).matrix   # TV(0) = 3/4 <= 0.8
        assert mixing_time(P, 0.8) == 0.0

    def test_bracket_overflow_raises_no_crossing(self, monkeypatch):
        # A worst TV that never falls to eps exhausts the doubling.
        monkeypatch.setattr(entropy, "worst_tv", lambda P, t, starts: 1.0)
        with pytest.raises(NoCrossing):
            mixing_time(cycle(4).matrix, 0.25)

    def test_eps_range_gate(self):
        P = cycle(4).matrix
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                mixing_time(P, eps)

    def test_resolved_down_to_eps_min(self):
        # At EPS_MIN the kernel's 1e-13 tail mass still resolves the
        # crossing; below it the search is refused instead of run.
        inst = complete_graph(10)
        assert mixing_time(inst.matrix, EPS_MIN, starts=[0]) == pytest.approx(
            complete_tmix(10, EPS_MIN), abs=5e-3)
        for eps in (1e-15, 4e-13, 1e-300, math.nan):
            with pytest.raises(EpsilonOutOfRange):
                mixing_time(inst.matrix, eps)
        with pytest.raises(EpsilonOutOfRange):
            inst.t_mix(0.9999999999999)   # 1 at 12 significant digits

    def test_entropy_profile_decreasing(self):
        P = hypercube(3).matrix
        prof = entropy_profile(P, [0.0, 1.0, 2.0, 4.0, 8.0], starts=[0])
        assert prof.d_star[0] == pytest.approx(math.log(8), abs=1e-9)
        assert np.all(np.diff(prof.d_star) <= 1e-9)

    def test_star_helpers_match_profile(self):
        # Bit-identical: analyze and scan read d* and V* off one profile.
        P = cycle(6).matrix
        prof = entropy_profile(P, [1.5], starts=[0])
        assert d_star_at(P, 1.5, starts=[0]) == prof.d_star[0]
        assert v_star_at(P, 1.5, starts=[0]) == prof.v_star[0]


class TestInequalityChecks:
    def test_entropic_upper_bound_passes(self):
        inst = hypercube(4)
        for eps in (0.1, 0.5):
            v = entropic_upper_bound(inst, 1.0, eps)
            assert v.passed

    def test_entropic_lower_bound_vacuous_gate(self):
        # A point mass has TV = 1 - pi(x) > 1 - eps for small eps: the
        # hypothesis fails and the verdict records a vacuous pass.
        pi = stationary(cycle(10).matrix)
        delta = Distribution(np.eye(10)[0])
        v = entropic_lower_bound_check(delta, pi, 0.25)
        assert v.passed and v.context["vacuous"]

    def test_entropic_lower_bound_active(self):
        P = hypercube(4).matrix
        pi = stationary(P)
        from cutoff_lab.chain import heat_kernel_row
        row = heat_kernel_row(P, 0, 3.0)
        v = entropic_lower_bound_check(row, pi, 0.25)
        assert not v.context["vacuous"]
        assert v.passed

    def test_cutoff_window_bound(self):
        inst = hypercube(5)
        P = inst.matrix
        v = cutoff_window_bound(inst, 0.25)
        assert v.passed
        assert v.lhs == pytest.approx(
            mixing_time(P, 0.25, starts=[0])
            - mixing_time(P, 0.75, starts=[0]), abs=1e-3)
        with pytest.raises(ValueError):
            cutoff_window_bound(inst, 0.75)

    def test_concentration_ratio_positive(self):
        assert entropic_concentration_ratio(cycle(16), 0.25) > 0.0

    def test_cutoff_time_equation_brackets(self):
        P = hypercube(6).matrix
        t = cutoff_time_equation(P, c=1.0, starts=[0])
        pi = stationary(P)
        from cutoff_lab.chain import heat_kernel_row
        row = heat_kernel_row(P, 0, t).probs
        d = kl_divergence(row, pi)
        v = varentropy(row, pi)
        assert d == pytest.approx(1.0 + math.sqrt(v), abs=0.05)

    def test_cutoff_time_equation_no_crossing(self):
        # d*(0) = log 2 < 1 = c (1 + sqrt(V*(0))): no bracket exists.
        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NoCrossing):
            cutoff_time_equation(P, c=1.0)

    def test_log_gradient_bound(self):
        v = log_gradient_bound_check(hypercube(4), 2.0)
        assert v.passed
        assert v.rhs == pytest.approx(3.0 * (1.0 + math.log(4.0)), abs=1e-12)

    def test_log_gradient_hypothesis_gate(self):
        inst = cycle(16)    # diameter 8, so t < 2 violates t >= diam/4
        with pytest.raises(HypothesisViolation):
            log_gradient_bound_check(inst, 1.0)

    def test_log_density_small_time_resolved(self):
        # Entries at distance up to the diameter must be resolved even when
        # the plain Poisson truncation would cut the series short.
        lip = log_density_lip_norm(cycle(32), 0, 0.17)
        assert np.isfinite(lip) and lip > 0

    def test_local_concentration_zero_curvature_limit(self):
        # kappa -> 0 limit of (1 - e^{-2 t kappa})/kappa is 2t.
        P = cycle(8).matrix
        f = np.arange(8.0)
        v0 = local_concentration_check(P, f, 1.3, 0.0)
        vk = local_concentration_check(P, f, 1.3, 1e-9)
        assert v0.rhs == pytest.approx(vk.rhs, rel=1e-6)
        assert v0.passed

    def test_local_concentration_tiny_kappa(self):
        # (1 - e^{-2 t kappa})/kappa loses 2t to cancellation at kappa = 1e-16.
        P = cycle(8).matrix
        f = np.arange(8.0)
        t = 206.55
        v = local_concentration_check(P, f, t, 1e-16)
        lip2 = 7.0 ** 2
        assert v.rhs == pytest.approx(2.0 * t * lip2, rel=1e-12)

    def test_local_concentration_negative_kappa_gate(self):
        P = cycle(8).matrix
        with pytest.raises(CurvatureHypothesisFailed):
            local_concentration_check(P, np.arange(8.0), 1.0, -0.1)

    def test_local_concentration_sweep(self):
        P = hypercube(3).matrix
        v = local_concentration_sweep(P, [0.5, 2.0], 0.0, n_f=25, seed=1)
        assert v.passed

    def test_varentropy_bounds(self):
        for v in varentropy_bound_check(hypercube(4), 0.25, kappa=0.0):
            assert v.passed
        # t_mix(0.95) = 0 for a small cycle: trivially satisfied 0 <= 0.
        for v in varentropy_bound_check(cycle(8), 0.95, kappa=0.0):
            assert v.passed and v.lhs == 0.0

    def test_varentropy_curvature_gate(self):
        with pytest.raises(CurvatureHypothesisFailed):
            varentropy_bound_check(hypercube(3), 0.25, kappa=-0.5)

    def test_diameter_bound(self):
        for inst in (cycle(12), hypercube(4), complete_graph(10)):
            for eps in (0.25, 0.5):
                v = diameter_bound_check(inst, eps)
                assert v.passed

    def test_eps_grid_frozen(self):
        assert EPS_GRID == (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
