"""Heat-kernel rows and tree W1 bounds against the high-precision
references of tests/reference.py, on small reversible chains."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoff_lab import chain
from cutoff_lab.chain import StochasticMatrix, _KernelRows
from cutoff_lab.curvature import _tree_w1_bounds
from cutoff_lab.families import GroupSpec, StepLaw, birth_death
from reference import row_ref, w1_path_ref


@st.composite
def reversible_chains(draw):
    """The dense P = W / rowsum(W) for symmetric weights W on 2 to 10
    states: a weighted ring, random chords, and, when lazy, a diagonal of
    up to the row weight."""
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    W = np.zeros((n, n))
    ring = np.arange(n)
    W[ring, (ring + 1) % n] += rng.uniform(0.5, 1.5, n)
    u, v = rng.integers(0, n, (2, n // 2))
    W[u, v] += rng.uniform(0.1, 1.0, len(u))
    W = W + W.T
    if draw(st.booleans()):
        W[ring, ring] += rng.uniform(0.0, 1.0, n) * W.sum(axis=1)
    return W / W.sum(axis=1, keepdims=True)


TIMES = st.lists(st.floats(0.0, 12.0), min_size=1, max_size=3)


def assert_rows_near_ref(E, rows, starts, t):
    for row, o in zip(rows, starts):
        tv = 0.5 * np.abs(row - row_ref(E, o, t)).sum()
        assert tv <= chain._MASS_TOL


@settings(max_examples=40)
@given(reversible_chains(), TIMES)
def test_full_kernel_rows(E, times):
    # Every row of the time engine's kernels, over an increasing grid.
    rows_at = _KernelRows(StochasticMatrix(E), None)
    for t in sorted(times):
        assert_rows_near_ref(E, rows_at(t), range(len(E)), t)


@settings(max_examples=60)
@given(reversible_chains(), TIMES, st.data())
def test_start_set_rows(E, times, data):
    starts = data.draw(st.lists(st.integers(0, len(E) - 1), min_size=1,
                                max_size=3, unique=True))
    rows_at = _KernelRows(StochasticMatrix(E), starts)
    for t in sorted(times):
        assert_rows_near_ref(E, rows_at(t), starts, t)


# Products of cyclic groups of order at most 64: dense runs of factors 2
# and of mixed factors, and single factors.
WALK_GROUPS = [(2,), (5,), (64,), (2, 2, 2), (3, 4), (2, 3, 5), (4, 4, 4),
               (7, 9), (2,) * 6, (6, 2, 5)]


@st.composite
def walk_laws(draw, groups=WALK_GROUPS):
    """A step law on one of ``groups``: random weights on a random
    support, lazy (mu(0) > 0) or not, symmetric (mu(-g) = mu(g)) or not;
    the walk need not be irreducible."""
    group = GroupSpec(draw(st.sampled_from(groups)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.uniform(0.1, 1.0, group.N) * (rng.random(group.N)
                                          < draw(st.floats(0.05, 1.0)))
    w[0] = rng.uniform(0.1, 1.0) if draw(st.booleans()) else 0.0
    if draw(st.booleans()):
        w = 0.5 * (w + w[group.neg(np.arange(group.N))])
    if not w.any():
        w[1] = 1.0
    return StepLaw(group, w / w.sum())


@settings(max_examples=40)
@given(walk_laws(), TIMES, st.data())
def test_walk_rows(law, times, data):
    # A declared walk's rows, read off its step law's transform, hold no
    # powers on P.
    P = StochasticMatrix.walk(law)
    starts = data.draw(st.lists(st.integers(0, P.n - 1), min_size=1,
                                max_size=3, unique=True))
    rows_at = _KernelRows(P, starts)
    for t in sorted(times):
        assert_rows_near_ref(P.entries, rows_at(t), starts, t)
    assert P._powers == (None, None)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5)),
                min_size=1, max_size=9),
       st.floats(0.0, 12.0))
def test_tree_bound_is_path_w1(rates, t):
    # The BFS tree of a birth-death chain is its path, where the tree bound
    # is W1 itself: every pair of kernel rows against exact rationals.
    p, q = zip(*rates)
    P = birth_death(p, q).matrix
    K = chain.heat_kernel(P, t)
    pairs = [(x, y) for x in range(P.n) for y in range(P.n) if x != y]
    got = _tree_w1_bounds(P, K, pairs)
    for (x, y), value in zip(pairs, got):
        want = float(w1_path_ref(K[x], K[y]))
        assert abs(value - want) <= 1e-14 * want
