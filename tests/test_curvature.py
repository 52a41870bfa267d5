"""Curvature module: W1 transport LPs with duality certificates, Ollivier
edge curvature, and the Bakry-Emery vertex eigenproblem.

The independent W1 oracle enumerates integer-valued Kantorovich potentials:
for integer costs the dual LP has an integral optimum (the constraint
matrix of pairwise differences is totally unimodular), and shifting lets
one pin f(0) = 0 with |f| <= diameter.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csr_matrix

from cutoff_lab import chain, curvature
from cutoff_lab.chain import (Distribution, StochasticMatrix, heat_kernel,
                              load_chain_file, metric_data, save_chain_file,
                              stationary)
from cutoff_lab.curvature import (CurvatureReport, bakry_emery_curvature,
                                  bakry_emery_vertex,
                                  contraction_check, full_curvature_report,
                                  gamma2_form, generator_apply,
                                  ollivier_curvature, subcommutativity_check,
                                  wasserstein1)
from cutoff_lab.entropy import mixing_time
from cutoff_lab.errors import (AsymmetricSupport, CertificateFailed,
                               DimensionMismatch, NotIrreducible)
from cutoff_lab.families import (birth_death, complete_graph, cycle,
                                 hypercube, parse_family_spec,
                                 perturb_toward_uniform)
from cutoff_lab.spectral import gamma_form
from cutoff_lab.verdicts import VERDICT_TOL, make_verdict

FLIP = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def kernels(P, times):
    """The (t, P_t) pairs the semigroup checks take."""
    return [(t, heat_kernel(P, t)) for t in times]


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

    def test_potential_pairing_lower_bounds_w1(self):
        # The drifting 40-state birth-death chain at t_mix(1/4), on the
        # kernel rows of each edge: the potential is 1-Lipschitz on every
        # support edge, so its pairing is at most the exact W1 of a path,
        # the L1 distance of the CDFs.  It need not equal the LP's value.
        P = birth_death([0.35] * 39, [0.15] * 39).matrix
        K = heat_kernel(P, mixing_time(P, 0.25))
        edges = P.edges()
        xs, ys = np.array(edges).T
        for x, y in edges:
            f = wasserstein1(Distribution(K[x]), Distribution(K[y]),
                             P.metric).dual_potential
            assert np.max(np.abs(f[xs] - f[ys])) <= 1.0 + 1e-12
            d = K[x] - K[y]
            assert f @ d <= np.abs(np.cumsum(d)).sum() + 1e-15


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
        # variables each, lazy or not) and a complete(20) block is one
        # variable (1/19 moved from y to x); the rows of a randomly
        # weighted complete graph on 16 states differ everywhere, and their
        # blocks (about 8 x 8) each go over the budget alone.
        monkeypatch.setattr(curvature, "_LP_VARS", lp_vars)
        rng = np.random.default_rng(7)
        chains = [hypercube(4).matrix, hypercube(4, 0.5).matrix,
                  cycle(10).matrix, complete_graph(20).matrix,
                  birth_death([0.35] * 11, [0.15] * 11).matrix]
        chains += [random_connected_chain(rng, int(n)) for n in (5, 12, 30)]
        W = rng.uniform(0.5, 1.5, (16, 16))
        W = W + W.T
        chains.append(StochasticMatrix(W / W.sum(axis=1, keepdims=True)))
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
        # A non-optimal solve is retried once at a 1e-9 primal feasibility
        # tolerance; a second one names HiGHS's model status.
        tols = []

        def infeasible(c, index, b, primal_tol=None, presolve=True):
            tols.append((primal_tol, presolve))
            return highs.HighsModelStatus.kInfeasible, None, None
        monkeypatch.setattr(curvature, "linprog", infeasible)
        with pytest.raises(CertificateFailed, match="kInfeasible"):
            ollivier_curvature(cycle(6).matrix)
        assert tols == [(None, False), (1e-9, False)]

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
# Transport LPs through HiGHS's own binding
# ---------------------------------------------------------------------------

def captured_lps(monkeypatch, run):
    """The (c, index, b, presolve) of every transport LP that ``run()``
    solves."""
    lps = []
    solve = curvature.linprog

    def capture(c, index, b, primal_tol=None, presolve=True):
        lps.append((c, index, b, presolve))
        return solve(c, index, b, primal_tol, presolve)
    with monkeypatch.context() as m:
        m.setattr(curvature, "linprog", capture)
        run()
    return lps


def ollivier_lps(monkeypatch, P):
    return captured_lps(monkeypatch, lambda: ollivier_curvature(P))


def contraction_lps(monkeypatch, P):
    # Every edge's LP on the t = 0.5 kernel rows, as contraction_check
    # solves it when the tree bound does not screen the edge out.
    K = heat_kernel(P, 0.5)
    return captured_lps(monkeypatch, lambda: [
        curvature._w1_restricted(curvature._support(K[x]),
                                 curvature._support(K[y]), P.metric)
        for x, y in P.edges()])


class TestDirectHighs:
    """curvature.linprog must return scipy linprog's HiGHS solution bit for
    bit at the same presolve option: off for Ollivier's edge LPs, on for
    the contraction check's.  It drives the binding that scipy bundles,
    which is private, so a scipy upgrade that changes the binding fails
    here first."""

    @pytest.mark.parametrize("lps, tol", [
        (lambda mp: ollivier_lps(mp, hypercube(4).matrix), None),
        (lambda mp: ollivier_lps(mp, cycle(10).matrix), None),
        (lambda mp: ollivier_lps(mp, bd40(0.35, 0.15).matrix), None),
        (lambda mp: ollivier_lps(mp, sparse_chain(3, 24, True, True)), None),
        (lambda mp: contraction_lps(mp, bd40(0.35, 0.15).matrix), None),
        (lambda mp: contraction_lps(mp, bd40(0.35, 0.15).matrix), 1e-9),
    ], ids=["hypercube4", "cycle10", "bd40", "sparse24", "bd40-kernel",
            "bd40-kernel-tol"])
    def test_solution_equals_scipy_linprog(self, monkeypatch, lps, tol):
        cases = lps(monkeypatch)
        assert cases
        options = {} if tol is None else {"primal_feasibility_tolerance": tol}
        for c, index, b, presolve in cases:
            n = len(c)
            cols = np.repeat(np.arange(n), 2)
            A = csr_matrix((np.ones(2 * n), (index, cols)), shape=(len(b), n))
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                          method="highs",
                          options=dict(options, presolve=presolve))
            status, x, duals = curvature.linprog(c, index, b, tol, presolve)
            assert ref.success and status == highs.HighsModelStatus.kOptimal
            assert np.array_equal(x, ref.x)
            assert np.array_equal(duals, ref.eqlin.marginals)

    def test_scipy_linprog_is_never_called(self, monkeypatch):
        import scipy.optimize
        import scipy.optimize._linprog

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy's linprog was called")
        monkeypatch.setattr(scipy.optimize, "linprog", forbidden)
        monkeypatch.setattr(scipy.optimize._linprog, "_linprog_highs",
                            forbidden)
        P = cycle(8).matrix
        assert ollivier_curvature(P).ollivier_min == pytest.approx(0.0,
                                                                   abs=1e-9)
        v = contraction_check(P, 0.0, kernels(P, [0.5]))
        assert v.name == "w1-contraction"


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this cutoff_lab."""
    src = os.path.dirname(os.path.dirname(curvature.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestHighsImport:
    """The two extension modules that scipy bundles and the lab calls, the
    HiGHS binding (on the first LP) and scipy.sparse's sparsetools (at
    import), are each loaded as one module, not through the init of scipy,
    scipy.optimize or scipy.sparse, and each is the module its package
    itself uses in either import order.  numpy's lazy random and fft are
    loaded at import."""

    def test_import_leaves_scipy_optimize_out(self, tmp_path):
        # Import runs no scipy init and loads no HiGHS; the first LP loads
        # the binding, still without scipy's or scipy.optimize's init.
        run_python(f"""
import sys, cutoff_lab, cutoff_lab.cli
for name in ("scipy", "scipy.optimize._highspy._core"):
    assert name not in sys.modules, name
assert cutoff_lab.cli.main(["analyze", "--spec",
                            "bd:p=0.3,0.3,0.3;q=0.2,0.2,0.2",
                            "--out", {str(tmp_path)!r}]) == 0
assert "scipy.optimize._highspy._core" in sys.modules
for name in ("scipy", "scipy.optimize"):
    assert name not in sys.modules, name
""")

    def test_import_leaves_scipy_sparse_out(self):
        run_python("""
import sys, cutoff_lab, cutoff_lab.cli
for name in ("scipy.sparse", "scipy._lib._array_api", "numpy.ma"):
    assert name not in sys.modules, name
for name in ("scipy.sparse._sparsetools", "numpy.random", "numpy.fft"):
    assert name in sys.modules, name
""")

    def test_commands_leave_scipy_sparse_out(self, tmp_path):
        run_python(f"""
import sys
from cutoff_lab import cli
assert cli.main(["analyze", "--spec", "bd:p=0.3,0.3,0.3;q=0.2,0.2,0.2",
                 "--out", {str(tmp_path / "analyze")!r}]) == cli.EXIT_OK
assert cli.main(["verify", "--spec", "cycle:n=8",
                 "--out", {str(tmp_path / "verify")!r}]) == cli.EXIT_OK
for name in ("scipy.sparse", "scipy._lib._array_api", "numpy.ma"):
    assert name not in sys.modules, name
""")

    @pytest.mark.parametrize("first", ["cutoff_lab", "scipy.sparse"])
    def test_one_sparsetools_in_either_order(self, first):
        run_python(f"""
import importlib, sys
importlib.import_module({first!r})
import numpy as np
import scipy.sparse
from scipy.sparse import _compressed
from cutoff_lab import chain
assert _compressed._sparsetools is chain._sparsetools
assert sys.modules["scipy.sparse._sparsetools"] is chain._sparsetools
A = scipy.sparse.csr_array(np.array([[0.5, 0.5], [0.25, 0.75]]))
assert list(A @ np.array([1.0, 2.0])) == [1.5, 1.75]
""")

    @pytest.mark.parametrize("first", ["cutoff_lab", "scipy.optimize"])
    def test_one_binding_in_either_order(self, first):
        # The binding is loaded by whichever comes first: the lab's first
        # LP, or scipy.optimize's import.  Both then solve with that one.
        run_python(f"""
import sys
import numpy as np
from cutoff_lab import curvature
NAME = "scipy.optimize._highspy._core"

def lab_solve():
    status, x, _ = curvature.linprog(np.array([1.0, 2.0]),
                                     np.array([0, 1, 0, 1]),
                                     np.array([1.0, 1.0]))
    assert list(x) == [1.0, 0.0]
    return sys.modules[NAME]

if {first!r} == "cutoff_lab":
    binding = lab_solve()
    import scipy.optimize
else:
    import scipy.optimize
    binding = sys.modules[NAME]
    assert lab_solve() is binding
from scipy.optimize._highspy import _core
assert _core is binding and sys.modules[NAME] is binding
assert lab_solve() is binding
res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                             method="highs")
assert res.success and list(res.x) == [1.0, 0.0]
""")


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


def local_quadratic_forms(P, x):
    """Per-vertex oracle for the local forms: matrices (A, B, ball) of
    Gamma2(.,.)(x) (less its holding term) and Gamma(.,.)(x) for
    observables on the 2-ball of x, one vertex at a time, as the library
    built them before it batched vertices (see curvature._schur_forms)."""
    ind, ptr = P.adjacency.indices, P.adjacency.indptr
    n1 = ind[ptr[x]:ptr[x + 1]]
    ball = np.flatnonzero(np.bincount(np.concatenate(
        [[x], n1] + [ind[ptr[y]:ptr[y + 1]] for y in n1])))
    ix = int(np.searchsorted(ball, x))
    S = P.entries[np.ix_(ball, ball)]
    W = S - np.diag(np.diag(S))
    dL = S - np.eye(len(ball))
    dL -= dL[ix]                         # rows L_y - L_x

    def gamma_sum(c):
        # Matrix of sum_y c_y Gamma(.,.)(y).
        D = c[:, None] * W
        return 0.5 * (np.diag(c @ W + D.sum(axis=1)) - (D + D.T))

    w = W[ix]
    B = gamma_sum(np.eye(len(ball))[ix])
    C = w[:, None] * dL
    C[ix] -= w @ dL
    A = 0.5 * gamma_sum(w) - 0.5 * B - 0.25 * (C + C.T)
    return A, B, ball


def oracle_kappa(P, x):
    """kappa(x) from local_quadratic_forms: the least eigenvalue of the
    scaled Schur complement on the out-neighbours of x."""
    A, _, ball = local_quadratic_forms(P, x)
    adj = P.adjacency
    lo, hi = adj.indptr[x], adj.indptr[x + 1]
    near = np.searchsorted(ball, adj.indices[lo:hi])
    far = np.delete(np.arange(len(ball)),
                    np.append(near, np.searchsorted(ball, x)))
    A_nf = A[np.ix_(near, far)]
    S = A[np.ix_(near, near)] - (A_nf / np.diagonal(A)[far]) @ A_nf.T
    r = 1.0 / np.sqrt(0.5 * adj.data[lo:hi])
    return float(np.linalg.eigvalsh(r[:, None] * S * r[None, :])[0])


def check_bakry_emery(P, rng, n_f=40, attained=True):
    """Test-side oracle for bakry_emery_curvature, from the dense forms
    gamma2_form and gamma_form and the support 2-ball, not from the local
    forms.

    The exact infimum of Gamma2(f,f)(x) / Gamma(f,f)(x) is kappa(x) plus
    P(x,x)/2, the holding term the local forms leave out (ROADMAP D3).  At
    every x, ``n_f`` random f on the 2-ball, half of them within 1e-4 of
    the returned minimizer, must have a quotient of at least that less
    1e-8 wherever Gamma(f,f)(x) > 1e-12, and (when ``attained``) the
    minimizer must attain it to 1e-9.
    """
    E = P.entries
    step = np.eye(P.n) + (E > 0)
    report = curvature.bakry_emery_curvature(P).bakry_emery_vertices
    for x in range(P.n):
        kappa, f_min = curvature.bakry_emery_vertex(P, x)
        assert kappa == report[x]
        exact = kappa + 0.5 * E[x, x]
        quotient = gamma2_form(P, f_min)[x] / gamma_form(P, f_min, f_min)[x]
        if attained:
            assert abs(quotient - exact) <= 1e-9, \
                f"attained {quotient} != {exact} at {x}"
        ball = (step @ step)[x] > 0
        F = np.zeros((n_f, P.n))
        F[:, ball] = rng.standard_normal((n_f, ball.sum()))
        F[n_f // 2:] = f_min + 1e-4 * F[n_f // 2:]
        for f in F:
            den = gamma_form(P, f, f)[x]
            if den > 1e-12:
                assert gamma2_form(P, f)[x] / den >= exact - 1e-8, \
                    f"sampled quotient below {exact} at {x}"


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
            rep = bakry_emery_curvature(hypercube(d).matrix)
            for kappa in rep.bakry_emery_vertices.values():
                assert kappa == pytest.approx(2.0 / d, abs=1e-9)

    def test_cycle_flat(self):
        rep = bakry_emery_curvature(cycle(8).matrix)
        assert rep.bakry_emery_min == pytest.approx(0.0, abs=1e-9)

    def test_flat_cycle_and_8_cube_to_rounding(self):
        # No threshold to round through: the 32-cycle is flat and the 8-cube
        # has 2/d = 1/4 at every vertex, both to 1e-15.
        for P, want in ((cycle(32).matrix, 0.0), (hypercube(8).matrix, 0.25)):
            rep = bakry_emery_curvature(P)
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
            A, B, ball = local_quadratic_forms(P, x)
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

    @settings(max_examples=20)
    @CHAINS
    def test_ball_is_the_support_two_ball(self, seed, n, symmetric, lazy):
        P = sparse_chain(seed, n, symmetric, lazy)
        step = np.eye(n) + (P.entries > 0)
        ptr, states = curvature._two_balls(P, np.arange(n))
        for x in range(n):
            assert list(states[ptr[x]:ptr[x + 1]]) == \
                list(np.nonzero((step @ step)[x])[0])
            assert list(local_quadratic_forms(P, x)[2]) == \
                list(states[ptr[x]:ptr[x + 1]])

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
            A, B, ball = local_quadratic_forms(P, x)
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
            rep = bakry_emery_curvature(complete_graph(n).matrix)
            for kappa in rep.bakry_emery_vertices.values():
                assert kappa == pytest.approx((n + 2) / (2 * (n - 1)),
                                              abs=1e-9)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_oracle_on_sparse_chains(self, lazy):
        for seed in range(40):
            check_bakry_emery(sparse_chain(seed, 3 + seed % 6, True, lazy),
                              np.random.default_rng(seed))

    def test_sampled_rayleigh_validation_runs(self):
        rng = np.random.default_rng(42)
        for P in (cycle(10).matrix, cycle(7).matrix,
                  parse_family_spec("hypercube:d=4:lazy=0.5").matrix,
                  birth_death([0.35] * 9, [0.15] * 9).matrix):
            check_bakry_emery(P, rng)

    def test_sampled_quotient_below_kappa_fails(self, monkeypatch):
        # kappa + 1e-6 is caught both by the minimizer, whose quotient no
        # longer attains it, and by the samples near the minimizer.
        real, real_report = (curvature.bakry_emery_vertex,
                             curvature.bakry_emery_curvature)

        def inflated(P, x):
            kappa, f = real(P, x)
            return kappa + 1e-6, f

        def inflated_report(P):
            kappas = {x: k + 1e-6 for x, k in
                      real_report(P).bakry_emery_vertices.items()}
            return CurvatureReport(bakry_emery_vertices=kappas,
                                   bakry_emery_min=min(kappas.values()))
        monkeypatch.setattr(curvature, "bakry_emery_vertex", inflated)
        monkeypatch.setattr(curvature, "bakry_emery_curvature",
                            inflated_report)
        with pytest.raises(AssertionError, match="attained"):
            check_bakry_emery(cycle(7).matrix, np.random.default_rng(0))
        with pytest.raises(AssertionError, match="sampled"):
            check_bakry_emery(cycle(7).matrix, np.random.default_rng(0),
                              attained=False)

    def test_local_forms_built_once_per_vertex(self, monkeypatch):
        # Every vertex of the 6-cycle has a 5-state 2-ball and 2
        # out-neighbours, so its forms share one batch, split at a budget
        # of 400 entries into runs of two forms of 8 x 25 entries.
        calls = []
        real = curvature._schur_forms

        def counted(P, xs, balls):
            calls.append(xs.tolist())
            return real(P, xs, balls)
        monkeypatch.setattr(curvature, "_schur_forms", counted)
        for budget, batches in ((curvature._BE_ENTRIES, [[0, 1, 2, 3, 4, 5]]),
                                (400, [[0, 1], [2, 3], [4, 5]]),
                                (1, [[x] for x in range(6)])):
            calls.clear()
            monkeypatch.setattr(curvature, "_BE_ENTRIES", budget)
            bakry_emery_curvature(cycle(6).matrix)
            assert calls == batches

    @pytest.mark.parametrize("spec", ["hypercube:d=7", "complete:n=40"])
    def test_batches_stay_within_budget(self, monkeypatch, spec):
        # Every array a run or batch holds at once counts against the
        # budget: the traced peak stays within twice its bytes (it was 9
        # to 11 times when each stacked array had the budget to itself).
        P = parse_family_spec(spec).matrix
        budget = 2 ** 16
        monkeypatch.setattr(curvature, "_BE_ENTRIES", budget)
        bakry_emery_curvature(P)          # P's adjacency, CSR and BFS row
        tracemalloc.start()
        try:
            bakry_emery_curvature(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * budget

    def test_full_report_combines_both(self):
        rep = full_curvature_report(cycle(6).matrix)
        assert rep.ollivier_min is not None
        assert rep.bakry_emery_min is not None
        assert len(rep.bakry_emery_vertices) == 6


# ---------------------------------------------------------------------------
# Array forms against per-item oracles
# ---------------------------------------------------------------------------

def property_chain(seed, n, lazy, hubs, tiny, twins):
    """Reversible chain on a weighted ring plus n // 3 random chords; with
    ``hubs``, 1 + n // 8 states joined to every state; with ``tiny``, a
    fifth of the weights scaled by 1e-12 to 1e-3; with ``twins``, states 0
    and 1 adjacent with equal rows; a lazy chain holds with probability
    0.1-0.6 at each state."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    W = np.zeros((n, n))
    W[ring, (ring + 1) % n] = rng.uniform(0.5, 1.5, n)
    u, v = rng.integers(0, n, (2, n // 3))
    W[u, v] = rng.uniform(0.5, 1.5, n // 3)
    if hubs:
        W[rng.choice(n, 1 + n // 8, replace=False)] = rng.uniform(0.5, 1.5, n)
    W[ring, ring] = 0.0
    W = W + W.T
    if tiny:
        scale = np.where(rng.random((n, n)) < 0.2,
                         10.0 ** rng.uniform(-12, -3, (n, n)), 1.0)
        W = W * np.minimum(scale, scale.T)
    if twins:
        W[0, 1] = W[1, 0] = 1.0
        shared = np.flatnonzero(W[0] + W[1])
        W[shared, :2] += W[shared, :2] == 0
        W[:2, shared] = W[shared, :2].T
    P = W / W.sum(axis=1, keepdims=True)
    if lazy:
        hold = rng.uniform(0.1, 0.6, n)
        P = np.diag(hold) + (1.0 - hold)[:, None] * P
    if twins:
        row = np.where(P[0] + P[1] > 0, rng.uniform(0.5, 1.5, n), 0.0)
        P[0] = P[1] = row / row.sum()
    return StochasticMatrix(P)


PROPERTY_CHAINS = given(st.integers(0, 2 ** 32 - 1), st.integers(3, 14),
                        st.booleans(), st.booleans(), st.booleans(),
                        st.booleans())


def gamma_dense(P, f, g):
    """Oracle for gamma_form: the carre du champ from products by the dense
    P.entries, vectors or (n, m) blocks alike."""
    E = P.entries
    return 0.5 * (E @ (f * g) - f * (E @ g) - g * (E @ f) + f * g)


def gamma_scale(P, f, g):
    """gamma_dense on |f| and |g| with every term added: the size of the
    terms whose rounding separates two ways of computing Gamma(f,g)."""
    E, af, ag = P.entries, np.abs(f), np.abs(g)
    return 0.5 * (E @ (af * ag) + af * (E @ ag) + ag * (E @ af) + af * ag)


def generator_dense(P, f):
    """Oracle for generator_apply: L f = P f - f by the dense P.entries."""
    return P.entries @ f - f


class TestArrayForms:
    """Ollivier's reduced-support LPs and the batched Bakry-Emery forms
    against the per-item computations they replace."""

    @settings(max_examples=60)
    @PROPERTY_CHAINS
    def test_gamma_matches_dense(self, seed, n, lazy, hubs, tiny, twins):
        # The CSR products against the dense ones, for vectors and blocks,
        # with g another observable and g = f: to 1e-15 of the size of the
        # terms (Gamma itself cancels, so not of Gamma).
        P = property_chain(seed, n, lazy, hubs, tiny, twins)
        rng = np.random.default_rng(seed)
        for shape in [(n,), (n, 5)]:
            f, g = rng.standard_normal((2,) + shape)
            for h in (g, f):
                got = gamma_form(P, f, h)
                assert got.shape == shape
                assert np.all(np.abs(got - gamma_dense(P, f, h))
                              <= 1e-15 * gamma_scale(P, f, h))
            got = generator_apply(P, f)
            scale = P.entries @ np.abs(f) + np.abs(f)
            assert np.all(np.abs(got - generator_dense(P, f)) <= 1e-15 * scale)

    def test_gamma_and_generator_read_no_dense_entries(self, monkeypatch):
        P = sparse_chain(3, 9, False, True)
        f, g = np.random.default_rng(3).standard_normal((2, 9))
        want = gamma_dense(P, f, g), generator_dense(P, f)
        monkeypatch.setattr(type(P), "entries", property(
            lambda self: pytest.fail("read P.entries")))
        for got, ref in zip((gamma_form(P, f, g), generator_apply(P, f)), want):
            assert np.allclose(got, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: hypercube(6).matrix, lambda: sparse_chain(5, 40, True, True)],
        ids=["hypercube:d=6", "sparse:n=40"])
    @pytest.mark.parametrize("budget", [1, 50, 700])
    def test_ollivier_runs_match_one_run(self, monkeypatch, make, budget):
        # Runs of edges whose CSR rows fit the budget (an edge over it runs
        # alone) give the one-run values to 1e-15.
        P = make()
        want = ollivier_curvature(P).ollivier_edges
        rowlen = np.diff(P.csr.indptr)
        gathered = []

        def differences(P, xs, ys):
            gathered.append(int((rowlen[xs] + rowlen[ys]).sum()))
            return real(P, xs, ys)
        real = curvature._differences
        monkeypatch.setattr(curvature, "_differences", differences)
        monkeypatch.setattr(curvature, "_BE_ENTRIES", budget)
        got = ollivier_curvature(P).ollivier_edges
        assert len(gathered) > 1
        assert max(gathered) <= max(budget, 2 * rowlen.max())
        assert list(got) == list(want)
        assert max(abs(got[e] - want[e]) for e in want) <= 1e-15

    @settings(max_examples=60)
    @PROPERTY_CHAINS
    def test_reduced_ollivier_matches_full_rows(self, seed, n, lazy, hubs,
                                                tiny, twins):
        # To 1e-12 while every entry is far above HiGHS's 1e-7 primal
        # feasibility tolerance.  Below it, each LP may leave up to 1e-7
        # of a marginal unmoved, so the two values may differ by that
        # much per row times the diameter (2.6e-7 was seen); the full-row
        # LP may then also be called infeasible (ROADMAP D13), and that
        # edge is not compared.
        P = property_chain(seed, n, lazy, hubs, tiny, twins)
        rep = ollivier_curvature(P)
        assert set(rep.ollivier_edges) == set(P.edges())
        E = P.entries
        for (x, y), kappa in rep.ollivier_edges.items():
            rows = np.count_nonzero(E[x]) + np.count_nonzero(E[y])
            tol = 1e-12 + tiny * 1e-7 * rows * P.metric.diameter
            try:
                w1 = wasserstein1(Distribution(E[x]), Distribution(E[y]),
                                  P.metric).value
            except CertificateFailed:
                assert tiny
                continue
            assert abs(kappa - (1.0 - w1)) <= tol
        if twins:
            assert rep.ollivier_edges[0, 1] == 1.0

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 14), st.booleans(),
           st.booleans(), st.booleans(), st.booleans(),
           st.sampled_from([1, 64, 400]))
    def test_batched_bakry_emery_matches_oracle(self, seed, n, lazy, hubs,
                                                tiny, twins, budget):
        # At a small budget the runs and shape groups split: kappa(x) is
        # the same bits whichever vertices share its batch.
        P = property_chain(seed, n, lazy, hubs, tiny, twins)
        whole = bakry_emery_curvature(P).bakry_emery_vertices
        with pytest.MonkeyPatch.context() as m:
            m.setattr(curvature, "_BE_ENTRIES", budget)
            split = bakry_emery_curvature(P).bakry_emery_vertices
        assert split == whole
        for x, kappa in whole.items():
            oracle = oracle_kappa(P, x)
            assert abs(kappa - oracle) <= 1e-12 * max(1.0, abs(oracle))
            assert bakry_emery_vertex(P, x)[0] == kappa

    def test_equal_rows_need_no_lp(self, monkeypatch):
        # Every row of the uniform chain J/5 is the same: no edge moves
        # mass, so no LP runs and kappa = 1.
        monkeypatch.setattr(curvature, "linprog", None)
        rep = ollivier_curvature(StochasticMatrix(np.full((5, 5), 0.2)))
        assert set(rep.ollivier_edges.values()) == {1.0}

    def test_ollivier_reads_no_dense_rows(self, monkeypatch):
        # The reduced pairs come from the CSR arrays, not from dense rows.
        P = hypercube(6).matrix
        monkeypatch.setattr(type(P.csr), "dense_rows", None)
        assert ollivier_curvature(P).ollivier_min == pytest.approx(0.0,
                                                                   abs=1e-9)


# ---------------------------------------------------------------------------
# Semigroup-level contraction checks
# ---------------------------------------------------------------------------

class TestSemigroupChecks:
    def test_contraction_on_lazy_hypercube(self):
        P = hypercube(3, laziness=0.5).matrix
        kappa = ollivier_curvature(P).ollivier_min
        v = contraction_check(P, kappa, kernels(P, [0.5, 2.0]), seed=0)
        assert v.passed

    def test_subcommutativity_on_hypercube(self):
        P = hypercube(3).matrix
        kappa = bakry_emery_curvature(P).bakry_emery_min
        v = subcommutativity_check(P, kappa, kernels(P, [0.5, 2.0]), seed=0)
        assert v.passed

    def test_inflated_kappa_fails(self):
        # A deliberately wrong (too large) curvature constant must be
        # caught by the contraction check.
        P = cycle(8).matrix
        v = contraction_check(P, 1.5, kernels(P, [2.0]), seed=0)
        assert not v.passed

    def test_decay_past_float_range_is_inf(self):
        # e^{-kappa t} and e^{-2 kappa t} with kappa < 0 at a long t: inf on
        # the right side, with no overflow warning (an error under the
        # suite's RuntimeWarning filter), and np.exp's value below it.
        P = cycle(8).matrix
        K = heat_kernel(P, 2.0)
        v = contraction_check(P, -0.2, [(1.5, K)], seed=0)
        assert v.rhs == float(np.exp(0.2 * 1.5))
        v = contraction_check(P, -0.2, [(4000.0, K)], seed=0)
        assert v.rhs == math.inf and v.passed
        v = subcommutativity_check(P, -0.2, [(2000.0, K)], seed=0)
        assert v.rhs == math.inf and v.passed

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("n", [6, 8, 12, 16])
    def test_tied_edges_report_the_first(self, n, t):
        # A rotation maps every edge of the cycle onto every other, so their
        # W1 contractions tie; rounding must not pick the reported edge.
        P = cycle(n).matrix
        v = contraction_check(P, 0.0, kernels(P, [t]), seed=0)
        assert v.name == "w1-contraction"
        assert v.context["edge"] == (0, 1)


def contraction_loop(P, kappa, kernels, seed=0, starts=None):
    """Oracle for contraction_check: its Lipschitz half one draw at a time
    (curvature._SEMIGROUP_DRAWS draws of n per t from default_rng(seed), a
    draw replacing the worst only with a smaller slack), then the same
    screened W1 half."""
    edges = curvature._edges_at(P, starts)
    rng = np.random.default_rng(seed)
    worst = None
    for t, K in kernels:
        decay = float(np.exp(-kappa * t))
        for _ in range(curvature._SEMIGROUP_DRAWS):
            f = rng.standard_normal(P.n)
            lip = P.lip_norm(f)
            if lip == 0.0:
                continue
            cand = make_verdict("lipschitz-contraction",
                                P.lip_norm(K @ (f / lip)), decay, t=t,
                                kappa=kappa)
            if worst is None or cand.slack < worst.slack:
                worst = cand
        if P.n <= 128:
            bounds = curvature._tree_w1_bounds(P, K, edges)
            for (x, y), bound in zip(edges, bounds):
                if (worst is not None and decay - bound
                        - curvature._SCREEN_MARGIN > worst.slack):
                    continue
                [value], _, _ = curvature._w1_restricted(
                    curvature._support(K[x]), curvature._support(K[y]),
                    P.metric)
                cand = make_verdict("w1-contraction", value, decay, t=t,
                                    kappa=kappa, edge=(x, y))
                if worst is None or cand.slack < worst.slack - VERDICT_TOL:
                    worst = cand
    return worst


def subcommutativity_loop(P, kappa, kernels, seed=0):
    """Oracle for subcommutativity_check: one draw at a time, with the
    dense Gamma, each draw's verdict at its first worst state."""
    rng = np.random.default_rng(seed)
    worst = None
    for t, K in kernels:
        decay = float(np.exp(-2.0 * kappa * t))
        for _ in range(curvature._SEMIGROUP_DRAWS):
            f = rng.standard_normal(P.n)
            g = K @ f
            lhs = gamma_dense(P, g, g)
            rhs = decay * (K @ gamma_dense(P, f, f))
            i = int(np.argmax(lhs - rhs))
            cand = make_verdict("subcommutativity", lhs[i], rhs[i], t=t,
                                kappa=kappa, state=i)
            if worst is None or cand.slack < worst.slack:
                worst = cand
    return worst


def assert_close_verdict(a, b):
    assert (a.name, a.context) == (b.name, b.context)
    assert a.lhs == pytest.approx(b.lhs, rel=0, abs=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=0, abs=1e-12)


class TestBlockDraws:
    """The semigroup checks draw each t's observables as one block; the
    verdicts are those of the per-draw loops."""

    @settings(max_examples=30)
    @PROPERTY_CHAINS
    def test_subcommutativity_matches_loop(self, seed, n, lazy, hubs, tiny,
                                           twins):
        P = property_chain(seed, n, lazy, hubs, tiny, twins)
        ks = kernels(P, [0.3, 2.0])
        for kappa in (0.0, 0.4, -0.2):
            assert_close_verdict(subcommutativity_check(P, kappa, ks, seed=7),
                                 subcommutativity_loop(P, kappa, ks, seed=7))

    @settings(max_examples=15)
    @PROPERTY_CHAINS
    def test_contraction_matches_loop(self, seed, n, lazy, hubs, tiny, twins):
        P = property_chain(seed, n, lazy, hubs, tiny, twins)
        ks = kernels(P, [0.3, 2.0])
        for kappa in (0.0, 0.05, 1.5):
            try:
                loop = contraction_loop(P, kappa, ks, seed=seed)
            except CertificateFailed:
                # HiGHS can call the transport LP of far-reaching rows
                # infeasible (ROADMAP D13).
                reject()
            assert_close_verdict(contraction_check(P, kappa, ks, seed=seed),
                                 loop)

    @pytest.mark.parametrize("spec", [
        "hypercube:d=8", "cycle:n=32",
        "bd:p=" + ",".join(["0.35"] * 39) + ";q=" + ",".join(["0.15"] * 39)],
        ids=["hypercube", "cycle", "bd-drift"])
    def test_verify_chains_match_loops(self, spec):
        # The benchmark's verify chains, at verify's two times.
        inst = parse_family_spec(spec)
        P = inst.matrix
        ks = kernels(P, [0.5, inst.t_mix(0.25)])
        for kappa in (0.0, 0.1):
            assert_close_verdict(
                contraction_check(P, kappa, ks, starts=inst.starts),
                contraction_loop(P, kappa, ks, starts=inst.starts))
            assert_close_verdict(subcommutativity_check(P, kappa, ks),
                                 subcommutativity_loop(P, kappa, ks))


# ---------------------------------------------------------------------------
# Spanning-tree W1 bounds and the contraction check's LP screen
# ---------------------------------------------------------------------------

def ring_chain(seed, n, lazy):
    """Reversible chain on a ring plus n // 4 random chords, with random
    symmetric weights; a lazy chain holds with probability 0.1-0.6."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    W[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.5, n)
    u, v = rng.integers(0, n, (2, n // 4))
    W[u, v] = rng.uniform(0.5, 1.5, n // 4)
    W[np.arange(n), np.arange(n)] = 0.0
    W = W + W.T
    P = W / W.sum(axis=1, keepdims=True)
    if lazy:
        hold = rng.uniform(0.1, 0.6, n)
        P = np.diag(hold) + (1.0 - hold)[:, None] * P
    return StochasticMatrix(P)


def bd40(p, q):
    return birth_death([p] * 39, [q] * 39)


def unscreened(*args, **kwargs):
    """contraction_check with every edge's LP run."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(curvature, "_SCREEN_MARGIN", math.inf)
        return contraction_check(*args, **kwargs)


def assert_same_verdict(a, b):
    assert (a.name, a.context) == (b.name, b.context)
    assert (a.lhs, a.rhs) == (b.lhs, b.rhs)


class TestTreeBounds:
    @pytest.mark.parametrize("p, q", [(0.35, 0.15), (0.3, 0.3)])
    def test_path_is_the_cdf_formula(self, p, q):
        # The BFS tree of a path is the path, whose W1 is the l1 distance
        # of the CDFs.
        inst = bd40(p, q)
        P = inst.matrix
        for t in (0.5, inst.t_mix(0.25)):
            K = heat_kernel(P, t)
            bounds = curvature._tree_w1_bounds(P, K, P.edges())
            exact = [np.abs(np.cumsum(K[x] - K[y])).sum()
                     for x, y in P.edges()]
            np.testing.assert_allclose(bounds, exact, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        "cycle:n=7", "cycle:n=12", "hypercube:d=4", "complete:n=6",
        "bd:p=0.3,0.2,0.4;q=0.1,0.3,0.2"])
    def test_point_masses_give_tree_distances(self, spec):
        # From the root a BFS tree keeps graph distances, and elsewhere a
        # tree path is no shorter than a graph path.
        P = parse_family_spec(spec).matrix
        dist = P.metric.dist
        pairs = list(itertools.combinations(range(P.n), 2))
        bounds = curvature._tree_w1_bounds(P, np.eye(P.n), pairs)
        assert np.all(bounds >= [dist[x, y] for x, y in pairs])
        assert list(bounds[:P.n - 1]) == list(dist[0, 1:])

    @settings(max_examples=30)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.booleans(),
           st.sampled_from([0.5, 2.0, 20.0]))
    def test_bound_dominates_lp(self, seed, n, lazy, t):
        P = sparse_chain(seed, n, True, lazy)
        K = heat_kernel(P, t)
        bounds = curvature._tree_w1_bounds(P, K, P.edges())
        for (x, y), bound in zip(P.edges(), bounds):
            [value], _, _ = curvature._w1_restricted(
                curvature._support(K[x]), curvature._support(K[y]),
                P.metric)
            assert bound >= value - 1e-12

    @pytest.mark.parametrize("n", [5, 8, 13, 32])
    def test_bound_dominates_cycle_closed_form(self, n):
        # On a cycle W1 = sum |F - median F| with F the cumulative sums of
        # mu - nu around it.
        P = cycle(n).matrix
        for t in (0.5, 2.0, 20.0):
            K = heat_kernel(P, t)
            bounds = curvature._tree_w1_bounds(P, K, P.edges())
            for (x, y), bound in zip(P.edges(), bounds):
                F = np.cumsum(K[x] - K[y])
                assert bound >= np.abs(F - np.median(F)).sum() - 1e-14


class TestContractionScreen:
    @pytest.mark.parametrize("p, q", [(0.35, 0.15), (0.3, 0.3)])
    def test_birth_death_verdicts_unchanged(self, p, q):
        inst = bd40(p, q)
        grid = [0.5, inst.t_mix(0.25)]
        args = (inst.matrix, ollivier_curvature(inst.matrix).ollivier_min,
                kernels(inst.matrix, grid))
        assert_same_verdict(contraction_check(*args), unscreened(*args))

    @pytest.mark.parametrize("spec", [
        "cycle:n=32", "complete:n=12", "hypercube:d=6",
        "hypercube:d=4:lazy=0.5"])
    def test_transitive_verdicts_unchanged(self, spec):
        inst = parse_family_spec(spec)
        P, starts = inst.matrix, inst.starts
        args = (P, ollivier_curvature(P, starts).ollivier_min,
                kernels(P, [0.5, inst.t_mix(0.25)]))
        assert_same_verdict(
            contraction_check(*args, starts=starts),
            unscreened(*args, starts=starts))

    def test_inflated_kappa_verdict_unchanged(self):
        P = cycle(8).matrix
        args = (P, 1.5, kernels(P, [2.0]))
        assert_same_verdict(contraction_check(*args, seed=0),
                            unscreened(*args, seed=0))

    @settings(max_examples=10)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 30), st.booleans(),
           st.sampled_from([0.0, 0.05, 0.5]))
    def test_random_chain_verdicts_unchanged(self, seed, n, lazy, kappa):
        P = ring_chain(seed, n, lazy)
        args = (P, kappa, kernels(P, [0.5, 4.0]))
        try:
            full = unscreened(*args)
        except CertificateFailed:
            # HiGHS can call the transport LP of far-reaching rows
            # infeasible (ROADMAP D13); the screen may skip that LP.
            reject()
        assert_same_verdict(contraction_check(*args), full)

    def test_lp_above_the_bound_within_contract_still_runs(self,
                                                          monkeypatch):
        # A solver may return up to DUALITY_TOL plus its 1e-7 dual
        # tolerance above W1 <= U.  Stub every bound at 0.99 and let each
        # later LP overshoot it by more, within that allowance: each then
        # replaces the worst, so no LP may be skipped.  No draws: the LPs
        # alone set the worst.
        monkeypatch.setattr(curvature, "_SEMIGROUP_DRAWS", 0)
        P = cycle(8).matrix
        edges = P.edges()
        monkeypatch.setattr(curvature, "_tree_w1_bounds",
                            lambda P, K, pairs: np.full(len(pairs), 0.99))
        calls = []

        def overshoot(mu, nu, metric):
            calls.append(1)
            return [0.99 + 1e-7 * len(calls) / len(edges)], None, None
        monkeypatch.setattr(curvature, "_w1_restricted", overshoot)
        v = contraction_check(P, 0.0, kernels(P, [1.0]))
        assert len(calls) == len(edges)
        assert v.context["edge"] == edges[-1]


# ---------------------------------------------------------------------------
# Start sets on vertex-transitive chains
# ---------------------------------------------------------------------------

class TestStartSets:
    @pytest.mark.parametrize("spec", [
        "hypercube:d=4", "hypercube:d=4:lazy=0.5", "cycle:n=12",
        "complete:n=8", "sym:k=4", "hypercube:d=3+theta=0.1"])
    def test_start_set_minima_are_global(self, spec):
        # An automorphism of P carries every edge onto one at vertex 0 and
        # preserves P_t and the metric, so the start set's minima are the
        # all-edge and all-vertex minima, and the W1 contraction reports the
        # same first tied edge.  One t keeps the all-edge LPs cheap; the
        # perturbed cube has complete support (7 of its 28 edges at 0).
        if spec.endswith("+theta=0.1"):
            inst = perturb_toward_uniform(hypercube(3), 0.1)
        else:
            inst = parse_family_spec(spec)
        P, starts = inst.matrix, inst.starts
        assert inst.transitive and starts == [0]
        olli_all, olli = ollivier_curvature(P), ollivier_curvature(P, starts)
        assert set(olli.ollivier_edges) == {e for e in P.edges() if 0 in e}
        assert olli.ollivier_min == pytest.approx(olli_all.ollivier_min,
                                                  abs=1e-12)
        be_all = bakry_emery_curvature(P)
        be = bakry_emery_curvature(P, starts=starts)
        assert list(be.bakry_emery_vertices) == [0]
        assert be.bakry_emery_min == pytest.approx(be_all.bakry_emery_min,
                                                   abs=1e-12)
        kappa = olli_all.ollivier_min
        full = contraction_check(P, kappa, kernels(P, [1.0]), seed=0)
        fast = contraction_check(P, kappa, kernels(P, [1.0]), seed=0,
                                 starts=starts)
        assert (fast.name, fast.context) == (full.name, full.context)
        assert fast.lhs == pytest.approx(full.lhs, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        "hypercube:d=6", "cycle:n=9", "sym:k=4",
        "cayley-random:Z2^6:d=8:seed=2", "bd:p=0.3,0.2,0.4;q=0.1,0.3,0.2",
        "file"])
    def test_edges_at_read_the_start_rows(self, spec, tmp_path):
        # The edges at a start set, read from its rows of P.adjacency, are
        # P.edges() filtered to those with an endpoint in it, in order.
        if spec == "file":
            W = np.array([[2, 1, 0, 3, 1], [1, 0, 4, 0, 0], [0, 4, 1, 2, 0],
                          [3, 0, 2, 0, 5], [1, 0, 0, 5, 1]], dtype=float)
            path = tmp_path / "chain.txt"
            save_chain_file(StochasticMatrix(W / W.sum(axis=1)[:, None]),
                            path)
            P = load_chain_file(path)
        else:
            P = parse_family_spec(spec).matrix
        for starts in ([0], [3, 1], [2]):
            edges = curvature._edges_at(P, starts)
            assert edges == [(x, y) for x, y in P.edges()
                             if x in starts or y in starts]
            assert all(type(v) is int for e in edges for v in e)
        assert curvature._edges_at(P, None) == P.edges()

    def test_edges_at_need_symmetric_support(self):
        P = StochasticMatrix(np.roll(np.eye(4), 1, axis=1))
        for starts in ([0], None):
            with pytest.raises(AsymmetricSupport):
                curvature._edges_at(P, starts)

    def test_edges_at_vertex_zero_allocate_little(self):
        # The 16 edges at vertex 0 of the 16-cube come from its row, not
        # from a list of all 524,288 support edges (77 MiB traced as
        # tuples).
        P = parse_family_spec("hypercube:d=16").matrix
        ollivier_curvature(P, starts=[0])  # the metric row, kept on P
        tracemalloc.start()
        try:
            rep = ollivier_curvature(P, starts=[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.ollivier_edges) == 16 and peak < 4 * 2 ** 20

    def test_bakry_emery_at_vertex_zero_allocate_little(self):
        # The 2-ball size of vertex 0 is read from its row: no sum of the
        # neighbours' degrees over all 1,048,576 entries of the 16-cube
        # (16.5 MiB traced).
        P = parse_family_spec("hypercube:d=16").matrix
        bakry_emery_curvature(P, starts=[0])
        tracemalloc.start()
        try:
            rep = bakry_emery_curvature(P, starts=[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(rep.bakry_emery_vertices) == [0] and peak < 4 * 2 ** 20

    def test_support_metric_allocates_little(self):
        # Delta is 1 / min P(x, y), no array of 1 / P(x, y) over the
        # 16-cube's entries (8 MiB).
        P = parse_family_spec("hypercube:d=16").matrix
        tracemalloc.start()
        try:
            metric = chain._support_metric(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metric.delta == 16.0 and metric.diameter == 16
        assert peak < 2 ** 20

    def test_start_set_must_be_states(self):
        P = cycle(6).matrix
        for starts in ([], [6], [-1]):
            with pytest.raises(DimensionMismatch):
                ollivier_curvature(P, starts)
            with pytest.raises(DimensionMismatch):
                bakry_emery_curvature(P, starts=starts)
