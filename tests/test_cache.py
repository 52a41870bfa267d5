"""Heat-kernel cache: content addressing, round trips and corruption
fallback."""

import numpy as np

from cutoff_lab.cache import HeatKernelCache, matrix_digest
from cutoff_lab.chain import StochasticMatrix, heat_kernel
from cutoff_lab.families import cycle, hypercube


def test_digest_distinguishes_matrices():
    a = matrix_digest(cycle(8).matrix)
    b = matrix_digest(cycle(9).matrix)
    c = matrix_digest(hypercube(3).matrix)
    assert len({a, b, c}) == 3
    assert a == matrix_digest(cycle(8).matrix)


def test_digest_sees_one_ulp():
    entries = np.array(cycle(8).matrix.entries)
    bumped = entries.copy()
    bumped[3, 4] = np.nextafter(bumped[3, 4], 1.0)
    assert matrix_digest(StochasticMatrix(entries)) != \
        matrix_digest(StochasticMatrix(bumped))


def test_round_trip_bit_identical(tmp_path):
    cache = HeatKernelCache(tmp_path / "cache")
    P = cycle(10).matrix
    calls = []

    def compute():
        calls.append(1)
        return heat_kernel(P, 1.5)

    first = cache.get_or_compute(P, 1.5, None, compute)
    second = cache.get_or_compute(P, 1.5, None, compute)
    assert len(calls) == 1
    assert np.array_equal(first, second)


def test_key_includes_time_and_starts(tmp_path):
    cache = HeatKernelCache(tmp_path / "cache")
    P = cycle(6).matrix
    cache.get_or_compute(P, 1.0, None, lambda: heat_kernel(P, 1.0))
    calls = []
    cache.get_or_compute(P, 2.0, None,                     # different t
                         lambda: (calls.append(1), heat_kernel(P, 2.0))[1])
    cache.get_or_compute(P, 1.0, [0],                      # different starts
                         lambda: (calls.append(1), heat_kernel(P, 1.0)[:1])[1])
    assert len(calls) == 2


def test_start_restricted_entries(tmp_path):
    cache = HeatKernelCache(tmp_path / "cache")
    P = cycle(6).matrix
    rows = cache.get_or_compute(
        P, 1.0, [0, 3],
        lambda: np.vstack([heat_kernel(P, 1.0)[0],
                           heat_kernel(P, 1.0)[3]]))
    assert rows.shape == (2, 6)
    again = cache.get_or_compute(P, 1.0, [0, 3],
                                 lambda: (_ for _ in ()).throw(AssertionError))
    assert np.array_equal(rows, again)


def test_corrupt_entry_recomputed(tmp_path):
    cachedir = tmp_path / "cache"
    cache = HeatKernelCache(cachedir)
    P = cycle(8).matrix
    good = cache.get_or_compute(P, 1.0, None, lambda: heat_kernel(P, 1.0))
    files = list(cachedir.iterdir())
    assert len(files) == 1
    files[0].write_bytes(b"not a numpy file")
    recovered = cache.get_or_compute(P, 1.0, None,
                                     lambda: heat_kernel(P, 1.0))
    assert np.array_equal(good, recovered)
    # The corrupt entry was replaced by a readable one.
    assert np.array_equal(np.load(files[0]), good)


def test_wrong_shape_recomputed(tmp_path):
    cachedir = tmp_path / "cache"
    cache = HeatKernelCache(cachedir)
    P = cycle(8).matrix
    cache.get_or_compute(P, 1.0, None, lambda: np.zeros((2, 8)))
    rows = cache.get_or_compute(P, 1.0, None, lambda: heat_kernel(P, 1.0))
    assert rows.shape == (8, 8)
