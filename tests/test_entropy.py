"""Entropy module: TV/KL/varentropy, mixing profiles and times, and the
quantitative inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoff_lab import chain, entropy
from cutoff_lab.chain import (Distribution, StochasticMatrix,
                              heat_kernel_apply, kernel_rows, poisson_weights,
                              stationary)
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
from cutoff_lab.families import (birth_death, complete_graph, cycle,
                                 hypercube, parse_family_spec)
from test_curvature import CHAINS, kernels, sparse_chain


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

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_row_entropies_match_per_row_formula(self, n, m, seed, tiny):
        # Row blocks with zeros and point masses, against a pi that may
        # hold an entry near 1e-15.
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(n))
        if tiny:
            pi[rng.integers(n)] = 1e-15
            pi /= pi.sum()
        rows = rng.dirichlet(np.ones(n), size=m)
        rows[rng.random((m, n)) < 0.3] = 0.0
        rows[0] = 0.0
        rows[0, rng.integers(n)] = 1.0
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        kl, var = entropy._row_entropies(rows, pi)
        for row, d, v in zip(rows, kl, var):
            w = row[row > 0]
            logr = np.log(w / pi[row > 0])
            want_d = w @ logr
            want_v = w @ (logr - want_d) ** 2
            assert abs(d - want_d) <= 1e-13 * abs(want_d) + 1e-15
            assert abs(v - want_v) <= 1e-13 * abs(want_v) + 1e-15
            assert kl_divergence(row, pi) == d
            assert kl_divergence(Distribution(row), Distribution(pi)) == d
            assert varentropy(row, pi) == v
            assert varentropy(Distribution(row), Distribution(pi)) == v

    def test_row_entropies_gates(self):
        pi = np.array([0.5, 0.5, 0.0])
        rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        # A pi-null state is allowed where no row charges it.
        kl, var = entropy._row_entropies(rows[:1], pi)
        assert kl[0] == 0.0 and var[0] == 0.0
        with pytest.raises(UnsupportedState):
            entropy._row_entropies(rows, pi)
        with pytest.raises(DimensionMismatch):
            entropy._row_entropies(rows[:, :2], pi)
        for f in (kl_divergence, varentropy):
            with pytest.raises(DimensionMismatch):
                f(np.array([1.0]), pi)


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
        monkeypatch.setattr(entropy, "_row_tvs",
                            lambda rows, pi: np.ones(len(rows)))
        with pytest.raises(NoCrossing):
            mixing_time(cycle(4).matrix, 0.25)

    @pytest.mark.parametrize("spec", ["hypercube:d=6", "cycle:n=16",
                                      "cayley-random:Z2^6:d=10:seed=3"])
    def test_search_equals_worst_tv_search(self, spec):
        # One power sequence for the whole search gives the very times of
        # a search that sums a fresh row at each t.
        P = parse_family_spec(spec).matrix
        for eps in (0.1, 0.25, 0.75):
            fresh = entropy._first_time(
                lambda t: worst_tv(P, t, [0]) <= eps)
            assert mixing_time(P, eps, starts=[0]) == fresh

    def test_search_pays_its_largest_t_once(self, monkeypatch):
        # Every row-matrix product of a search with a start set extends its
        # one power sequence: K(hi) products in all, hi the end of the final
        # bracket, however many times the bisection evaluates.  The products
        # are counted at P.row_times, which multiplies by a CSR copy of P
        # on this sparse support.
        P = StochasticMatrix(hypercube(8).matrix.entries)
        P.pi                            # solved before counting
        products, times = [], []
        row_times = P.row_times

        def counted(v):
            products.append(v.shape)
            return row_times(v)
        object.__setattr__(P, "row_times", counted)
        real = chain.poisson_weights

        def recorded(t, **kwargs):
            times.append(t)
            return real(t, **kwargs)
        monkeypatch.setattr(chain, "poisson_weights", recorded)
        mixing_time(P, 0.25, starts=[0])
        assert len(set(times)) > 10
        assert len(products) == len(poisson_weights(max(times))) - 1
        assert set(products) == {(P.n,)}

    def test_empty_start_set(self):
        P = hypercube(3).matrix
        with pytest.raises(DimensionMismatch):
            mixing_time(P, 0.25, starts=[])
        with pytest.raises(DimensionMismatch):
            worst_tv(P, 1.0, [])
        with pytest.raises(DimensionMismatch):
            kernel_rows(P, 1.0, [])

    def test_eps_range_gate(self):
        P = cycle(4).matrix
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                mixing_time(P, eps)

    def test_resolved_down_to_eps_min(self):
        # At EPS_MIN the kernel's 1e-13 tail mass still resolves the
        # crossing, from rows and from the squared full kernel; below it
        # the search is refused instead of run.
        inst = complete_graph(10)
        for starts in ([0], None):
            assert mixing_time(inst.matrix, EPS_MIN, starts=starts) == \
                pytest.approx(complete_tmix(10, EPS_MIN), abs=5e-3)
        for eps in (1e-15, 4e-13, 1e-11, 1e-300, math.nan):
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
        # Bit-identical: the instance's one read at t (what analyze, scan
        # and the verdicts use) gives the d* and V* of the helpers and of a
        # one-point profile, and keeps a read-only copy of the row of
        # largest relative entropy, memoized by t.
        for inst in (cycle(6), birth_death([0.35] * 5, [0.15] * 5)):
            P, starts = inst.matrix, inst.starts
            prof = entropy_profile(P, [1.5], starts=starts)
            at = inst.entropies(1.5)
            assert d_star_at(P, 1.5, starts=starts) == prof.d_star[0] \
                == at.d_star
            assert v_star_at(P, 1.5, starts=starts) == prof.v_star[0] \
                == at.v_star
            rows = kernel_rows(P, 1.5, starts)
            kl = [kl_divergence(row, P.pi) for row in rows]
            assert np.array_equal(at.worst_row, rows[np.argmax(kl)])
            assert at.worst_row.base is None
            assert not at.worst_row.flags.writeable
            assert inst.entropies(1.5) is at


class TestWorstProfile:
    """worst_profile scores each row block once: its three rows are,
    exactly, the per-time maxima of _row_tvs and _row_entropies over the
    same rows."""

    TIMES = [0.0, 0.5, 1.25, 3.0, 3.5, 9.0]

    @staticmethod
    def maxima(rows_at, pi, times):
        out = []
        for t in times:
            rows = rows_at(t)
            kl, var = entropy._row_entropies(rows, pi)
            out.append([entropy._row_tvs(rows, pi).max(), kl.max(),
                        var.max()])
        return np.array(out).T

    @pytest.mark.parametrize("make,starts", [
        (lambda: birth_death([0.35] * 7, [0.15] * 7), None),
        (lambda: cycle(9), [0]),
        (lambda: birth_death([0.3] * 6, [0.2] * 6), [0, 3, 6])],
        ids=["full-kernel", "start-set", "start-set-bd"])
    def test_equals_row_maxima(self, make, starts):
        P = make().matrix
        got = entropy.worst_profile(chain._KernelRows(P, starts), P.pi,
                                    self.TIMES)
        want = self.maxima(chain._KernelRows(P, starts), P.pi, self.TIMES)
        assert got.shape == (3, len(self.TIMES))
        assert np.array_equal(got, want)

    def test_cached_rows(self, tmp_path):
        # Through the cache, cold then warm: the same bits as the rows
        # read directly.
        from cutoff_lab.cache import HeatKernelCache
        P = birth_death([0.35] * 7, [0.15] * 7).matrix
        want = self.maxima(chain._KernelRows(P, None), P.pi, self.TIMES)
        cache = HeatKernelCache(tmp_path / "cache")
        for _ in range(2):
            rows_at = chain._KernelRows(P, None)
            got = entropy.worst_profile(
                lambda t: cache.get_or_compute(P, t, None,
                                               compute=lambda: rows_at(t)),
                P.pi, self.TIMES)
            assert np.array_equal(got, want)

    def test_profiles_are_its_rows(self):
        P = hypercube(4).matrix
        times = [4.0, 0.0, 1.5, 0.5]
        table = entropy.worst_profile(chain._KernelRows(P, [0]), P.pi,
                                      sorted(times))
        tv = mixing_profile(P, times, starts=[0])
        prof = entropy_profile(P, times, starts=[0])
        assert np.array_equal(tv.times, sorted(times))
        assert np.array_equal(tv.worst_tv, table[0])
        assert np.array_equal(prof.d_star, table[1])
        assert np.array_equal(prof.v_star, table[2])


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

    def test_concentration_ratio_inf_when_mixed_at_zero(self):
        # TV(0) = 1/2 <= 0.6 on the 2-state complete graph: t_mix = 0.
        inst = complete_graph(2)
        assert inst.t_mix(0.6) == 0.0
        assert entropic_concentration_ratio(inst, 0.6) == math.inf

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

    def test_log_density_far_entries_certified(self):
        # At t = 10 the diameter's reach (55 terms) leaves the far entries
        # of a start row 5e-6 short; the row's series is extended until its
        # Poisson tail is below 1e-12 of its smallest entry, and agrees
        # with a full kernel whose base reaches 400 terms.
        inst = birth_death([0.35] * 39, [0.15] * 39)
        P = inst.matrix
        K = chain.heat_kernel(P, 10.0, min_terms=400)
        want = P.lip_norm(np.log(K[0]) - np.log(P.pi.probs))
        assert log_density_lip_norm(inst, 0, 10.0) == pytest.approx(
            want, rel=1e-12)

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
        v = local_concentration_sweep(P, kernels(P, [0.5, 2.0]), 0.0, seed=1)
        assert v.passed

    @CHAINS
    @settings(max_examples=40)
    def test_sweep_builds_the_loop_verdict(self, seed, n, symmetric, lazy):
        # The array pass reports the verdict that _concentration_verdict
        # gives each draw in turn, the first of equal slacks winning: the
        # same name, sides and context.
        P = sparse_chain(seed, n, symmetric, lazy)
        ks = kernels(P, [0.4, 3.0, 3.0])
        for kappa in (0.0, 0.05):
            rng = np.random.default_rng(seed)
            loop = None
            for t, K in ks:
                F = rng.standard_normal((7, n))
                moments = np.concatenate([F * F, F]) @ K.T
                for f, var in zip(F, moments[:7] - moments[7:] ** 2):
                    v = entropy._concentration_verdict(P, f, var, t, kappa)
                    if loop is None or v.slack < loop.slack:
                        loop = v
            with pytest.MonkeyPatch.context() as m:
                m.setattr(entropy, "_CONCENTRATION_DRAWS", 7)
                sweep = local_concentration_sweep(P, ks, kappa, seed=seed)
            assert (sweep.name, sweep.lhs, sweep.rhs, sweep.context) == \
                (loop.name, loop.lhs, loop.rhs, loop.context)

    @CHAINS
    @settings(max_examples=40)
    def test_sweep_equals_check_loop(self, seed, n, symmetric, lazy):
        # One kernel per t applied to all observables gives the verdict of a
        # loop of single checks over the same draws, to rounding.
        P = sparse_chain(seed, n, symmetric, lazy)
        times, kappa, n_f = [0.4, 3.0], 0.05, 6
        rng = np.random.default_rng(seed)
        loop = None
        for t in times:
            for _ in range(n_f):
                f = rng.standard_normal(n)
                v = local_concentration_check(P, f, t, kappa)
                if loop is None or v.slack < loop.slack:
                    loop, var = v, (heat_kernel_apply(P, f * f, t)
                                    - heat_kernel_apply(P, f, t) ** 2)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(entropy, "_CONCENTRATION_DRAWS", n_f)
            sweep = local_concentration_sweep(P, kernels(P, times), kappa,
                                              seed=seed)
        assert sweep.lhs == pytest.approx(loop.lhs, rel=1e-12, abs=1e-12)
        assert sweep.rhs == pytest.approx(loop.rhs, rel=1e-12, abs=1e-12)
        # Same state, unless the variance ties there (the flip chain on two
        # states is symmetric, and rounding picks the state).
        context = dict(sweep.context)
        i = context.pop("state")
        assert context == {k: loop.context[k] for k in ("t", "kappa")}
        assert i == loop.context["state"] or (
            var[i] == pytest.approx(loop.lhs, rel=1e-12, abs=1e-12))

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
