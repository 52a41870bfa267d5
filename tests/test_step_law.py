"""Abelian group walks built from their step law (families.StepLaw,
StochasticMatrix.walk): the entries the law builds, the closed-form
stationary law, metric and spectrum against the dense paths, and guards
that the fast paths do no dense work.

The dense oracle of a declared walk is the same matrix built without its
declaration, which takes the LU solve, the all-pairs BFS and eigvalsh.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from cutoff_lab import chain, cli
from cutoff_lab.chain import (Distribution, StochasticMatrix, _KernelRows,
                              kernel_rows, metric_data, poisson_weights,
                              stationary)
from cutoff_lab.curvature import wasserstein1
from cutoff_lab.entropy import (d_star_at, entropy_profile, mixing_time,
                                v_star_at)
from cutoff_lab.errors import (DimensionMismatch, NotIrreducible,
                               TimeOutOfRange)
from cutoff_lab.families import (GroupSpec, StepLaw, parse_family_spec,
                                 perturb_toward_uniform)
from cutoff_lab.spectral import relaxation_time

DECLARING = ["hypercube:d=3", "hypercube:d=6", "hypercube:d=10",
             "hypercube:d=4:lazy=0.5", "hypercube:d=10:lazy=0.3",
             "cycle:n=2", "cycle:n=7", "cycle:n=200", "complete:n=12",
             "cayley:Z3xZ4xZ5:gens=20,-20,5,-5,1,-1",
             "cayley:Z6xZ4:gens=4,-4,1,-1,9,-9",
             "cayley-random:Z2^8:d=12:seed=3",
             "cayley-random:Z2^10:d=20:seed=1"]


def undeclared(P):
    return StochasticMatrix(P.entries)


def assert_matches_dense(P):
    """pi to 1e-15, the metric exactly and the spectrum to 1e-12 against
    the undeclared copy of P.

    pi is the uniform law exactly.  The LU pi's own error grows with n: it
    is 3.1e-15 off the exact 1/1024 on hypercube:d=10, so past n = 256 the
    bound on pi is 1e-15 n/256."""
    D = undeclared(P)
    assert P.step_law is not None and D.step_law is None
    assert np.all(P.pi.probs == 1.0 / P.n)
    assert (np.max(np.abs(P.pi.probs - D.pi.probs))
            <= 1e-15 * max(1.0, P.n / 256))
    assert np.array_equal(P.metric.dist, D.metric.dist)
    assert P.metric.diameter == D.metric.diameter
    assert P.metric.delta == D.metric.delta
    got, want = relaxation_time(P), relaxation_time(D)
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-12
    assert got.t_rel == pytest.approx(want.t_rel, rel=1e-11)


def negation(factors):
    """-g for every group element g, as mixed-radix indices."""
    coords = np.unravel_index(np.arange(np.prod(factors)), factors)
    return np.ravel_multi_index([(-c) % m for c, m in zip(coords, factors)],
                                factors)


def roll_matrix(factors, mu):
    """P(x, y) = mu(y - x) with x + g found by rolling the grid of states
    over ``factors`` (last factor fastest) by -g."""
    n = mu.size
    grid = np.arange(n).reshape(factors)
    E = np.zeros((n, n))
    for g in np.flatnonzero(mu):
        shift = [-int(c) for c in np.unravel_index(g, factors)]
        ys = np.roll(grid, shift, axis=tuple(range(grid.ndim))).ravel()
        E[np.arange(n), ys] = mu[g]
    return E


class TestClosedForms:
    @pytest.mark.parametrize("spec", DECLARING)
    def test_matches_dense_paths(self, spec):
        assert_matches_dense(parse_family_spec(spec).matrix)

    @pytest.mark.parametrize("spec", DECLARING)
    def test_law_builds_the_rolled_entries(self, spec):
        P = parse_family_spec(spec).matrix
        law = P.step_law
        want = roll_matrix(law.group.factors, law.mu)
        assert P.entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec, theta", [
        ("hypercube:d=8", 0.05),
        ("cayley:Z3xZ4xZ5:gens=20,-20,5,-5,1,-1", 0.3),
        ("cycle:n=7", 1.0), ("hypercube:d=4:lazy=0.5", 0.0)])
    def test_perturbed_walk_keeps_its_law(self, spec, theta):
        # (1 - theta) P + theta Pi of a walk is the walk of (1 - theta) mu +
        # theta/n: the matrix formula's entries bit for bit, pi = 1/n
        # exactly, and every nontrivial eigenvalue scaled by 1 - theta.
        inst = parse_family_spec(spec)
        n = inst.matrix.n
        Q = perturb_toward_uniform(inst, theta).matrix
        assert Q.step_law is not None
        want = ((1.0 - theta) * inst.matrix.entries
                + theta * np.full(n, 1.0 / n)[None, :])
        assert Q.entries.tobytes() == want.tobytes()
        assert np.all(Q.pi.probs == 1.0 / n)
        lambda2 = relaxation_time(inst.matrix).lambda2
        assert relaxation_time(Q).t_rel == pytest.approx(
            1.0 / (1.0 - (1.0 - theta) * lambda2), rel=1e-12)

    @pytest.mark.parametrize("spec", [
        "hypercube:d=8", "cycle:n=101", "cycle:n=7",
        "cayley:Z3xZ4xZ5:gens=20,-20,5,-5,1,-1"])
    def test_full_support_law_is_gathered(self, spec):
        # The law's CSR is mu gathered at the table of x + g, rows sorted:
        # the rolled entries bit for bit, on the walk's sparse law and on
        # its perturbation, whose law charges every element.
        inst = parse_family_spec(spec)
        for law in (inst.matrix.step_law,
                    perturb_toward_uniform(inst, 0.05).matrix.step_law):
            A = law.matrix()
            assert A.nnz == np.count_nonzero(law.mu) * law.group.N
            for x in range(law.group.N):
                assert np.all(np.diff(
                    A.indices[A.indptr[x]:A.indptr[x + 1]]) > 0)
            want = roll_matrix(law.group.factors, law.mu)
            assert A.toarray().tobytes() == want.tobytes()
        assert np.count_nonzero(law.mu) == law.group.N

    def test_uniform_law_and_character_spectrum(self):
        # hypercube:d=5: pi = 1/32 exactly; eigenvalues 1 - 2j/5 with
        # multiplicity C(5, j).
        P = parse_family_spec("hypercube:d=5").matrix
        assert np.all(P.pi.probs == 1.0 / 32)
        want = np.repeat(1.0 - 2.0 * np.arange(6) / 5, [1, 5, 10, 10, 5, 1])
        assert np.allclose(relaxation_time(P).eigenvalues, want, atol=1e-15)

    def test_asymmetric_step_law(self):
        # The biased cycle: the reversibilization is the simple walk, whose
        # spectrum cos(2 pi k/n) is the real part of the character sums.
        n = 9
        mu = np.zeros(n)
        mu[1], mu[-1] = 0.7, 0.3
        P = StochasticMatrix.walk(StepLaw(GroupSpec((n,)), mu))
        assert_matches_dense(P)
        want = np.sort(np.cos(2 * np.pi * np.arange(n) / n))[::-1]
        assert np.allclose(relaxation_time(P).eigenvalues, want, atol=1e-15)

    @settings(max_examples=60)
    @given(st.lists(st.integers(2, 5), min_size=1, max_size=3),
           st.integers(0, 2 ** 32 - 1), st.floats(0.2, 1.0), st.booleans(),
           st.booleans())
    def test_random_step_laws(self, factors, seed, density, symmetric, lazy):
        # Random step laws with symmetric support on small groups: the
        # closed forms agree with the dense paths, or both refuse a
        # disconnected walk.
        factors = tuple(factors)
        n = int(np.prod(factors))
        rng = np.random.default_rng(seed)
        neg = negation(factors)
        w = rng.uniform(0.5, 1.5, n) * (rng.random(n) < density)
        w[0] = rng.uniform(0.5, 1.5) if lazy else 0.0
        if symmetric:
            w = 0.5 * (w + w[neg])
        else:
            w = w * ((w > 0) & (w[neg] > 0))
        if not w.any():
            w[0] = 1.0
        P = StochasticMatrix.walk(StepLaw(GroupSpec(factors), w / w.sum()))
        if not P.irreducible:
            for get in (lambda M: M.pi, lambda M: M.metric):
                with pytest.raises(NotIrreducible):
                    get(P)
                with pytest.raises(NotIrreducible):
                    get(undeclared(P))
            return
        assert_matches_dense(P)


class TestDeclarationCheck:
    def test_only_walk_declares(self):
        P = parse_family_spec("cycle:n=6").matrix
        with pytest.raises(TypeError):
            StochasticMatrix(P.entries, step_law=P.step_law)

    def test_replace_drops_the_law(self):
        # New entries are a new matrix: it takes the dense paths.
        P = parse_family_spec("hypercube:d=3:lazy=0.25").matrix
        Q = dataclasses.replace(P, kernel=P.entries.copy())
        assert P.step_law is not None and Q.step_law is None
        assert np.array_equal(Q.entries, P.entries)

    @pytest.mark.parametrize("factors, size", [((2, 2), 8), ((2, 2, 2), 5)],
                             ids=["Z2xZ2-8", "Z2xZ2xZ2-5"])
    def test_wrong_size_is_refused(self, factors, size):
        # Z2^3's step law on the unit vectors 1, 2, 4, on a group of order
        # 4, or cut to 5 entries.
        mu = parse_family_spec("hypercube:d=3").matrix.step_law.mu[:size]
        with pytest.raises(DimensionMismatch):
            StepLaw(GroupSpec(factors), mu)

    def test_declared_walk_builds_unchanged(self):
        # The declaration does not alter the matrix: the lazy walk's entries
        # are alpha I + (1 - alpha) P of the plain walk.
        plain = parse_family_spec("hypercube:d=4").matrix.entries
        lazy = parse_family_spec("hypercube:d=4:lazy=0.3").matrix.entries
        assert np.array_equal(lazy, 0.3 * np.eye(16) + 0.7 * plain)

    @pytest.mark.parametrize("spec", [
        "bd:p=0.3,0.2,0.4;q=0.4,0.4,0.1", "sym:k=4",
        "perturb:theta=0.1:bd:p=0.3,0.2,0.4;q=0.4,0.4,0.1"])
    def test_other_families_undeclared_and_dense(self, spec):
        # Chains without a declaration take the dense paths, bit for bit:
        # the LU solve for pi, all-pairs BFS, and eigvalsh of S.
        P = parse_family_spec(spec).matrix
        assert P.step_law is None
        n = P.n
        A = P.entries.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        assert np.array_equal(P.pi.probs, pi / pi.sum())
        adj = P.adjacency
        d = shortest_path(csr_array((adj.data, adj.indices, adj.indptr),
                                    shape=adj.shape),
                          method="D", unweighted=True, directed=False)
        assert np.array_equal(P.metric.dist, d.astype(np.int64))
        s = np.sqrt(P.pi.probs)
        S = (s[:, None] * P.entries) / s[None, :]
        want = np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]
        assert np.array_equal(relaxation_time(P).eigenvalues, want)


class TestFastPathGuards:
    @pytest.mark.parametrize("spec", [
        "hypercube:d=6", "cayley:Z3xZ4xZ5:gens=20,-20,5,-5,1,-1"])
    def test_no_solve_and_no_eigenproblem(self, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra on a declared walk")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        inst = parse_family_spec(spec)
        P = inst.matrix
        assert relaxation_time(P).t_rel > 0
        assert P.metric.diameter > 0
        assert mixing_time(P, 0.25, starts=inst.starts) > 0

    def test_bfs_from_one_source(self, monkeypatch):
        # Construction runs one BFS, from 0 (irreducibility); a declared
        # walk's metric reads that row, and only an undeclared chain's
        # metric searches from every state.
        P = parse_family_spec("cayley-random:Z2^6:d=8:seed=2").matrix
        Q = undeclared(P)
        sources = []
        real = chain._bfs

        def recorded(A, starts):
            sources.append(list(starts))
            return real(A, starts)
        monkeypatch.setattr(chain, "_bfs", recorded)
        P.metric
        Q.metric
        assert sources == [list(range(64))]
        StochasticMatrix(P.csr)
        assert sources[1:] == [[0]]

    def test_sparse_rows_never_touch_dense_entries(self):
        class Refused(np.ndarray):
            def __rmatmul__(self, other):
                raise AssertionError("dense row product")
            __matmul__ = __rmatmul__

            def __array_ufunc__(self, *args, **kwargs):
                raise AssertionError("dense entries read")
        inst = parse_family_spec("hypercube:d=8")
        P = inst.matrix
        object.__setattr__(P, "entries", P.entries.view(Refused))
        rows = kernel_rows(P, 3.0, [0, 5])
        assert rows.shape == (2, 256)
        assert mixing_time(P, 0.25, starts=inst.starts) > 0

    def test_declared_walk_builds_no_dense_matrix(self, monkeypatch,
                                                  tmp_path):
        # A declared walk's pipeline (pi, metric, t_rel, two searches, d*
        # and V*) and the analyze command read only P's CSR: the dense
        # entries are never built.
        inst = parse_family_spec("hypercube:d=11")
        P = inst.matrix
        stationary(P)
        metric_data(P)
        relaxation_time(P)
        t25 = mixing_time(P, 0.25, starts=inst.starts)
        assert mixing_time(P, 0.75, starts=inst.starts) < t25
        d_star_at(P, t25, starts=inst.starts)
        v_star_at(P, t25, starts=inst.starts)
        assert "entries" not in vars(P)

        built = []

        def recorded(text):
            built.append(parse_family_spec(text))
            return built[-1]
        monkeypatch.setattr(cli.fam, "parse_family_spec", recorded)
        assert cli.main(["analyze", "--spec", "hypercube:d=8",
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        [inst] = built
        assert "entries" not in vars(inst.matrix)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--spec", "hypercube:d=8"],
        ["verify", "--spec", "hypercube:d=5"],
        ["verify", "--spec", "cycle:n=12"]])
    def test_commands_read_distance_blocks_only(self, monkeypatch, tmp_path,
                                                argv):
        # The curvature minima, the W1 LPs and the tree bounds of a
        # declared walk read blocks d(0, x - y) of its BFS row: no command
        # builds the n x n distance table, and analyze builds no n x n
        # table of x + g either (verify's W1 contraction LPs on
        # full-support kernel rows have n x n costs of their own).
        built, tables = [], []
        real_parse, real_add = cli.fam.parse_family_spec, GroupSpec.add

        def recorded(text):
            built.append(real_parse(text))
            return built[-1]

        def add(group, a, b):
            out = real_add(group, a, b)
            tables.append(out.size / group.N ** 2)
            return out
        monkeypatch.setattr(cli.fam, "parse_family_spec", recorded)
        monkeypatch.setattr(GroupSpec, "add", add)
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == \
            cli.EXIT_OK
        [inst] = built
        assert "dist" not in vars(inst.matrix.metric)
        if argv[0] == "analyze":
            assert tables and max(tables) < 1.0

    @pytest.mark.parametrize("spec", DECLARING)
    def test_metric_blocks_equal_the_table(self, spec):
        # at(xs[:, None], ys[None, :]) is the undeclared table's block,
        # int64, without building the declared walk's own table, and at(xs,
        # ys) its entries; W1 and its potential read through at are bit for
        # bit those through the table.
        P = parse_family_spec(spec).matrix
        want = undeclared(P).metric
        rng = np.random.default_rng(len(spec))
        xs = rng.integers(0, P.n, size=5)
        ys = rng.choice(P.n, size=min(P.n, 7), replace=False)
        got = P.metric.at(xs[:, None], ys[None, :])
        assert got.dtype == np.int64
        assert np.array_equal(got, want.dist[np.ix_(xs, ys)])
        k = min(xs.size, ys.size)
        pair = P.metric.at(xs[:k], ys[:k])
        assert np.array_equal(pair, want.dist[xs[:k], ys[:k]])
        mu = Distribution(np.bincount(xs, minlength=P.n) / xs.size)
        nu = Distribution(P.entries[ys[0]])
        a = wasserstein1(mu, nu, P.metric)
        b = wasserstein1(mu, nu, want)
        assert a.value == b.value and a.plan == b.plan
        assert a.dual_potential.tobytes() == b.dual_potential.tobytes()
        assert "dist" not in vars(P.metric)

    @pytest.mark.parametrize("spec", ["hypercube:d=11",
                                      "cayley-random:Z2^10:d=20:seed=1"])
    def test_pipeline_builds_no_distance_table(self, spec):
        # The pipeline reads the diameter (the BFS row's maximum) and Delta
        # (from the adjacency), never the n x n distance table.
        inst = parse_family_spec(spec)
        P = inst.matrix
        stationary(P)
        metric = metric_data(P)
        relaxation_time(P)
        t25 = mixing_time(P, 0.25, starts=inst.starts)
        d_star_at(P, t25, starts=inst.starts)
        v_star_at(P, t25, starts=inst.starts)
        assert metric.diameter > 0 and metric.delta > 1.0
        assert "dist" not in vars(P.metric)

    @pytest.mark.parametrize("spec", [
        "hypercube:d=6", "cayley:Z3xZ4xZ5:gens=20,-20,5,-5,1,-1",
        "cycle:n=7"])
    def test_distance_table_built_on_read(self, spec):
        # Read, the table is the all-pairs BFS of the undeclared copy, with
        # its dtype and read-only flag, and it is built once.
        P = parse_family_spec(spec).matrix
        metric = P.metric
        assert "dist" not in vars(metric)
        want = undeclared(P).metric.dist
        dist = metric.dist
        assert dist.dtype == want.dtype == np.int64
        assert not dist.flags.writeable and not want.flags.writeable
        assert np.array_equal(dist, want)
        assert metric.dist is dist and metric.diameter == dist.max()

    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 48),
           st.sampled_from([0.0, 0.02, 0.3, 1.0]), st.booleans(),
           st.lists(st.floats(0.0, 8.0), min_size=1, max_size=3))
    def test_csr_rows_match_dense_rows(self, seed, n, chords, lazy, times):
        # Start-set rows by P.row_times against the same series by dense
        # row-vector products, from a ring up to full support.
        rng = np.random.default_rng(seed)
        W = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < chords)
        W[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        W[np.arange(n), np.arange(n)] = 1.0 if lazy else 0.0
        P = StochasticMatrix(W / W.sum(axis=1, keepdims=True))
        starts = [0, n // 2]
        rows_at = _KernelRows(P, starts)
        for t in times:
            q = poisson_weights(t)
            V = np.eye(n)[starts]
            want = q[0] * V
            for qk in q[1:]:
                V = V @ P.entries
                want += qk * V
            assert np.max(np.abs(rows_at(t) - want)) <= 1e-15


class TestWalkRows:
    """A declared walk's start-set rows and its spectrum come off one
    Fourier transform of its step law (StepLaw, chain._KernelRows); the
    rows against the 40-digit reference are in test_reference.py."""

    @pytest.mark.parametrize("factors,runs", [
        ((2,) * 11, [64, 32]), ((65,), [65]), ((3, 4) + (2,) * 3, [48, 2])])
    def test_characters_match_fftn(self, factors, runs):
        # Runs of consecutive factors up to 64 are dense DFT matrices and a
        # larger factor goes through np.fft; both agree with fftn.
        n = math.prod(factors)
        mu = np.random.default_rng(n).random(n)
        law = StepLaw(GroupSpec(factors), mu / mu.sum())
        assert [M for M, _ in law._stages] == runs
        assert [W is None for _, W in law._stages] == [M > 64 for M in runs]
        want = np.fft.fftn(law.mu.reshape(factors)).real.ravel()
        assert np.max(np.abs(law.characters() - want)) <= 1e-15

    def test_reads_hold_no_powers(self):
        # Searches, d* and V* reads and profiles make no row product and
        # leave P's powers empty; a min_terms read still extends them.
        inst = parse_family_spec("hypercube:d=6")
        P = inst.matrix
        P.pi                            # its residual is a row product
        products = []
        row_times = P.row_times

        def counted(v):
            products.append(v.shape)
            return row_times(v)
        object.__setattr__(P, "row_times", counted)
        t = inst.t_mix(0.25)
        inst.t_mix(0.75)
        inst.entropies(t)
        d_star_at(P, t, starts=[0, 5])
        v_star_at(P, t, starts=[0, 5])
        entropy_profile(P, [0.0, 1.0, t], starts=[3])
        assert products == [] and P._powers == (None, None)
        rows = _KernelRows(P, [0])(t, min_terms=40)
        key, [powers] = P._powers
        assert key == (0,)
        assert len(powers) == len(poisson_weights(t, min_terms=40))
        assert len(products) == len(powers) - 1
        tv = 0.5 * np.abs(rows - kernel_rows(P, t, [0])).sum()
        assert tv <= chain._MASS_TOL

    @pytest.mark.parametrize("t", [1e308, sys.float_info.max])
    def test_huge_times_give_pi(self, t):
        # Every e_k but the trivial one underflows, or t (1 - mu^)
        # overflows, to 0 with no warning: each row is pi exactly.
        mu = np.zeros(9)
        mu[1], mu[-1] = 0.7, 0.3
        for P in (parse_family_spec("cycle:n=8").matrix,
                  parse_family_spec("hypercube:d=5").matrix,
                  StochasticMatrix.walk(StepLaw(GroupSpec((9,)), mu))):
            rows = kernel_rows(P, t, [0, 3])
            assert np.array_equal(rows, np.full((2, P.n), 1.0 / P.n))

    def test_zero_time_gives_unit_rows(self):
        # P_0 = I exactly, also where the twiddles are not +-1, so no
        # rounding noise reaches V* = 0 at a t_mix of 0.
        for spec in ("cycle:n=9", "complete:n=7", "hypercube:d=4"):
            P = parse_family_spec(spec).matrix
            assert np.array_equal(kernel_rows(P, 0.0, [0, 3]),
                                  np.eye(P.n)[[0, 3]])

    def test_times_checked(self):
        P = parse_family_spec("cycle:n=8").matrix
        with pytest.raises(ValueError):
            kernel_rows(P, -1.0, [0])
        for t in (math.inf, math.nan):
            with pytest.raises(TimeOutOfRange):
                kernel_rows(P, t, [0])
