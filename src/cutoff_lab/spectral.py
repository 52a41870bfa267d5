"""Additive reversibilization, relaxation time and the carre du champ /
Poincare inequality.  A declared group walk takes its spectrum from its
step law's character sums and certifies them by one identity check of P
against the law's transform; any other chain takes eigvalsh and checks the
Poincare inequality on sampled observables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (lazy in numpy 2: load it at import)

from .chain import StochasticMatrix
from .errors import CertificateFailed, DimensionMismatch, NotIrreducible

POINCARE_SLACK = 1e-9
# Standard-normal observables, drawn from default_rng(0) one n-vector after
# another, on which relaxation_time certifies the Poincare inequality of a
# chain that is not a declared walk (a walk takes the first one only).
POINCARE_SAMPLES = 50
# Unit roundoff of float64.
_U = 2.0 ** -53


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


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * _U / (1.0 - k * _U)


def _transform_eps(law) -> float:
    """eps, the entrywise error of ``law._transform(x)`` per unit of
    ||x||_1, summed over the transform's runs (see relaxation_time)."""
    eps = 0.0
    for M, W in law._stages:
        if W is None:
            w = 8 * _U
            eps += math.sqrt(M) * math.log2(M) * (
                w + _gamma(4) * (math.sqrt(2.0) + w))
        else:
            eps += (0.0 if W.dtype == np.float64 else 48 * _U) + _gamma(M + 2)
    return eps


def _walk_identity(P: StochasticMatrix, f: np.ndarray) -> tuple:
    """(max|P f - C f|, tau) on a declared walk P: P f through P's CSR,
    C f = Re T(mu^ conj(T f)) / N through its step law's transform T, and
    tau the a-priori bound on their difference (see relaxation_time)."""
    law = P.step_law
    Cf = law._transform(law._hat * np.conj(law._transform(f))).real / P.n
    deviation = float(np.max(np.abs(P.apply(f) - Cf)))
    k = np.count_nonzero(law.mu)
    tau = ((3.0 * _transform_eps(law) + 4 * _U) * float(np.abs(f).sum())
           + _gamma(k + 1) * float(np.abs(f).max()))
    return deviation, tau


def relaxation_time(P: StochasticMatrix) -> SpectralReport:
    """Relaxation time from the spectrum of the reversibilization K, read
    off the symmetric S = D^(1/2) K D^(-1/2) = (M + M^T)/2, with
    M = D^(1/2) P D^(-1/2) and D = diag(pi).

    A declared group walk (families.StepLaw) has uniform pi, and K is the
    walk with step law (mu(g) + mu(-g))/2, whose eigenvalues are the real
    parts of the character sums y(chi) = sum_g mu(g) chi(g):
    ``law.characters()``, with no eigenproblem.  A priori, the law's
    transform T computes every entry of T x within eps ||x||_1, so every y
    within eps ||mu||_1 = eps.  Each of its steps multiplies by a matrix
    whose entries have modulus 1, so the partial sums stay below ||x||_1
    in modulus, and the steps' errors add to first order
    (_transform_eps):

    - a run of length M <= 64 sums M products, adding at most
      w + gamma_{M+2}, where w is the error of its stored entries and
      gamma_k = k u/(1 - k u): w = 0 for a run of factors 2, whose entries
      are +-1 and whose products are exact; otherwise each twiddle is
      within 8u (its angle rounded three times, then exp; 4.2u measured
      against 40 digits) and each Kronecker product adds at most 8u more,
      so w = 16u per factor over 2, at most three of them in a run
      (3^4 > 64): w = 48u;
    - a factor m > 64 goes through np.fft, whose 2-norm bound for a
      radix-2 FFT (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed. 2002, Sec. 24.1, Thm 24.2) gives at most
      sqrt(m) log2(m) eta per entry, where eta = w + gamma_4 (sqrt(2) +
      w), with w = 8u for pocketfft's twiddles; its mixed-radix
      transforms have bounds of the same form.

    So every eigenvalue is within eps of its exact value.  On
    hypercube:d=11 (runs of 64 and 32 factors 2) eps is gamma_66 +
    gamma_34 = 1.1e-14.

    Every chain that is not a declared walk certifies the Poincare
    inequality Var(f) <= t_rel E[Gamma(f,f)] (dirichlet_energy) on the
    POINCARE_SAMPLES observables, up to POINCARE_SLACK, one n-vector at a
    time, and reports the first that fails.

    A declared walk takes only the first of those observables, f, and
    checks it twice.  First, the characters diagonalize every
    translation-invariant operator, so P = T^-1 diag(conj mu^) T exactly,
    T the law's transform, and as T^-1 y = conj(T conj y) / N and P f is
    real, P f = C f := Re T(mu^ conj(T f)) / N.  P f is taken through P's
    CSR, C f through T, and max|P f - C f| > tau raises CertificateFailed,
    with tau bounding the rounding of both sides to first order:

    - T f is within eps ||f||_1 of its exact value and mu^ within eps,
      and they are at most ||f||_1 and 1 in modulus, so their product is
      within (2 eps + sqrt(2) gamma_2) ||f||_1 entrywise;
    - the second T adds eps times that product's l1 norm, at most
      N ||f||_1, and turns the product's error into at most N times its
      entrywise bound; the division by N rounds once more.  So C f is
      within (3 eps + 4u) ||f||_1 of P f's exact value;
    - each entry of P f sums k = |supp mu| products mu(g) f(x + g), within
      gamma_k ||f||_inf as sum mu = 1, and the difference rounds once.

    So tau = (3 eps + 4u) ||f||_1 + gamma_(k+1) ||f||_inf, about 6e-11 on
    hypercube:d=11.  A Gaussian f has every T f(k) nonzero almost surely,
    and an error delta in one mu^(k) moves C f by |delta T f(k)| / N in
    modulus, so any eigenvalue off by more than the check's resolution is
    caught, and with it any other disagreement between P's CSR and the
    transform whose image on f passes tau.  Example: with the characters
    at lambda2 moved to lambda3, the Poincare inequality still holds on all
    POINCARE_SAMPLES observables, at a t_rel 2x too small on
    hypercube:d=6 and d=11 and 4x on cycle:n=32; this check fails on each,
    with deviations 0.24, 0.035 and 0.013.  Second, f's Poincare
    inequality is checked as on any chain.
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
    for _ in range(POINCARE_SAMPLES if law is None else 1):
        f = rng.standard_normal(P.n)
        if law is not None:
            deviation, tau = _walk_identity(P, f)
            if not deviation <= tau:            # NaN included
                raise CertificateFailed(
                    f"transform certificate failed: max|Pf - Cf| = "
                    f"{deviation} > {tau}")
        var = p @ (f - p @ f) ** 2
        bound = t_rel * dirichlet_energy(P, f)
        if var - bound > POINCARE_SLACK:
            raise CertificateFailed(f"Poincare certificate failed: Var={var} "
                                    f"> t_rel*E[Gamma]={bound}")
    return SpectralReport(t_rel=t_rel, gap=gap, lambda2=lambda2,
                          eigenvalues=eigs)
