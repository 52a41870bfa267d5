"""High-precision references for the tests, independent of cutoff_lab's
numerics: heat-kernel rows summed at 40 significant digits, and the path
W1 in exact rational arithmetic.

Test-only: needs mpmath (the ``test`` extra).
"""

from fractions import Fraction

import mpmath
import numpy as np

# Digits of the row reference, and the Poisson tail mass it leaves out.
ROW_DIGITS = 40
ROW_TAIL = mpmath.mpf("1e-30")


def row_ref(P: np.ndarray, o: int, t: float) -> np.ndarray:
    """P_t(o, .) = sum_k e^-t t^k / k! e_o P^k for the dense float matrix
    ``P``, summed in ``ROW_DIGITS``-digit arithmetic until the Poisson
    weights left out weigh less than ``ROW_TAIL``, then rounded to floats.
    Every float entry of P is taken exactly."""
    n = len(P)
    with mpmath.workdps(ROW_DIGITS):
        cols = [[mpmath.mpf(float(x)) for x in col]
                for col in np.asarray(P).T]
        t = mpmath.mpf(float(t))
        v = [mpmath.mpf(0)] * n
        v[o] = mpmath.mpf(1)
        weight = mpmath.exp(-t)
        acc = [weight * x for x in v]
        covered, k = weight, 0
        while 1 - covered >= ROW_TAIL or k < t:
            k += 1
            v = [mpmath.fdot(v, col) for col in cols]
            weight *= t / k
            covered += weight
            acc = [a + weight * x for a, x in zip(acc, v)]
        return np.array([float(a) for a in acc])


def w1_path_ref(mu, nu) -> Fraction:
    """W1(mu, nu) on the path 0 - 1 - ... - n-1 with unit edges:
    sum over the edges (k, k+1) of |F_mu(k) - F_nu(k)|, F the cumulative
    mass, in exact rationals of the float entries."""
    total, gap = Fraction(0), Fraction(0)
    for a, b in zip(list(mu)[:-1], list(nu)[:-1]):
        gap += Fraction(float(a)) - Fraction(float(b))
        total += abs(gap)
    return total
