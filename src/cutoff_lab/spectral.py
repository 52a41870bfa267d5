"""Additive reversibilization, relaxation time and the carre du champ /
Poincare inequality.  A declared group walk takes its spectrum
from its step law's character sums, any other chain from eigvalsh."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (lazy in numpy 2: load it at import)

from .chain import StochasticMatrix
from .errors import CertificateFailed, DimensionMismatch, NotIrreducible

POINCARE_SLACK = 1e-9
# Standard-normal observables, drawn from default_rng(0) one n-vector after
# another, on which relaxation_time certifies the Poincare inequality.
POINCARE_SAMPLES = 50


@dataclass(frozen=True)
class SpectralReport:
    """Relaxation time and the spectrum of the symmetrized reversibilization.

    ``t_rel = 1/gap`` with ``gap = 1 - lambda2``, lambda2 the second-largest
    eigenvalue (not modulus) of (P + P*)/2.  ``eigenvalues`` is the full real
    spectrum, descending.
    """

    t_rel: float
    gap: float
    lambda2: float
    eigenvalues: np.ndarray


def reversibilization(P: StochasticMatrix) -> StochasticMatrix:
    """Additive reversibilization K = (P + P*)/2, with the adjoint
    P*(x,y) = pi(y) P(y,x) / pi(x) for pi = P.pi; reversible w.r.t. pi."""
    p = P.pi.probs
    star = (P.entries.T * p[None, :]) / p[:, None]
    return StochasticMatrix(0.5 * (P.entries + star), labels=P.labels)


def gamma_form(P: StochasticMatrix, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Carre du champ Gamma(f,g)(x) = 1/2 sum_y P(x,y)(f(y)-f(x))(g(y)-g(x)),
    by P.apply (P's CSR), with P f taken once when ``g`` is ``f``.

    ``f`` and ``g`` are observables of length n, or two (n, m) blocks of
    observables taken column by column.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape or f.shape[:1] != (P.n,) or f.ndim > 2:
        raise DimensionMismatch("observables must have length n")
    Pf = P.apply(f)
    Pg = Pf if g is f else P.apply(g)
    fg = f * g
    return 0.5 * (P.apply(fg) - f * Pg - g * Pf + fg)


def dirichlet_energy(P: StochasticMatrix, f: np.ndarray):
    """E_pi[Gamma(f,f)] for pi = P.pi, the Dirichlet form of the
    reversibilization; one value per column when ``f`` is an (n, m) block.

    Summed against pi, gamma_form's P(f^2) is (pi P) f^2, so the energy is
    1/2 ((pi P) f^2 - 2 pi (f P f) + pi f^2), at one product by P per
    observable: pi P is formed once per chain and kept on P.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape[:1] != (P.n,) or f.ndim > 2:
        raise DimensionMismatch("observables must have length n")
    ff = f * f
    return 0.5 * (P._pi_step @ ff - 2.0 * (P.pi.probs @ (f * P.apply(f)))
                  + P.pi.probs @ ff)


def relaxation_time(P: StochasticMatrix) -> SpectralReport:
    """Relaxation time from the spectrum of the reversibilization K, read
    off the symmetric S = D^(1/2) K D^(-1/2) = (M + M^T)/2, with
    M = D^(1/2) P D^(-1/2) and D = diag(pi).

    A declared group walk (families.StepLaw) has uniform pi, and K is the
    walk with step law (mu(g) + mu(-g))/2, whose eigenvalues are the real
    parts of the character sums y(chi) = sum_g mu(g) chi(g):
    ``law.characters()``, with no eigenproblem.  A priori, the law's
    transform computes every y within eps ||mu||_1 = eps.  Each of its
    steps multiplies by a matrix whose entries have modulus 1, so the
    partial sums stay below ||mu||_1 in modulus, and the steps' errors add
    to first order:

    - a run of length M <= 64 sums M products, adding at most
      w + gamma_{M+2}, where w is the error of its stored entries: 0 for
      a run of factors 2, whose entries are +-1 and whose products are
      exact, and a few units of roundoff u otherwise (the rounded twiddles
      and their products); gamma_k = k u/(1 - k u);
    - a factor m > 64 goes through np.fft, whose 2-norm bound for a
      radix-2 FFT (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed. 2002, Sec. 24.1, Thm 24.2) gives at most
      sqrt(m) log2(m) eta per entry, where eta = w + gamma_4 (sqrt(2) +
      w); pocketfft's mixed-radix transforms have bounds of the same
      form.

    So every eigenvalue is within eps of its exact value.  On
    hypercube:d=11 (runs of 64 and 32 factors 2) eps is gamma_66 +
    gamma_34 = 1.1e-14.

    Also certifies the Poincare inequality Var(f) <= t_rel E[Gamma(f,f)]
    on the POINCARE_SAMPLES observables, up to POINCARE_SLACK, one n-vector
    at a time, and reports the first that fails.
    """
    if not P.irreducible:
        raise NotIrreducible("relaxation time requires an irreducible chain")
    p = P.pi.probs
    law = P.step_law
    if law is not None:
        eigs = np.sort(law.characters())[::-1]
    else:
        s = np.sqrt(p)
        S = (s[:, None] * P.entries) / s[None, :]
        S = 0.5 * (S + S.T)
        eigs = np.linalg.eigvalsh(S)[::-1]
    lambda2 = float(eigs[1])
    gap = 1.0 - lambda2
    if gap <= 0:
        raise NotIrreducible("zero spectral gap (chain not irreducible?)")
    t_rel = 1.0 / gap
    rng = np.random.default_rng(0)
    for _ in range(POINCARE_SAMPLES):
        f = rng.standard_normal(P.n)
        var = p @ (f - p @ f) ** 2
        bound = t_rel * dirichlet_energy(P, f)
        if var - bound > POINCARE_SLACK:
            raise CertificateFailed(f"Poincare certificate failed: Var={var} "
                                    f"> t_rel*E[Gamma]={bound}")
    return SpectralReport(t_rel=t_rel, gap=gap, lambda2=lambda2,
                          eigenvalues=eigs)
