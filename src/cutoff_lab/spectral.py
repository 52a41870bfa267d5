"""Adjoint, additive reversibilization, relaxation time and the carre du
champ / Poincare inequality.  A declared group walk takes its spectrum
from its step law's character sums, any other chain from eigvalsh."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Distribution, StochasticMatrix
from .errors import CertificateFailed, DimensionMismatch, NotIrreducible

POINCARE_SLACK = 1e-9


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


def adjoint(P: StochasticMatrix, pi: Distribution | None = None) -> StochasticMatrix:
    """Adjoint kernel P*(x,y) = pi(y) P(y,x) / pi(x); pi defaults to P.pi."""
    if pi is None:
        pi = P.pi
    p = pi.probs
    if p.shape[0] != P.n:
        raise DimensionMismatch("pi length does not match chain")
    if np.any(p <= 0):
        raise ValueError("pi must be fully supported")
    star = (P.entries.T * p[None, :]) / p[:, None]
    return StochasticMatrix(star, labels=P.labels)


def reversibilization(P: StochasticMatrix,
                      pi: Distribution | None = None) -> StochasticMatrix:
    """Additive reversibilization K = (P + P*)/2; reversible w.r.t. pi."""
    if pi is None:
        pi = P.pi
    K = 0.5 * (P.entries + adjoint(P, pi).entries)
    return StochasticMatrix(K, labels=P.labels)


def gamma_form(P: StochasticMatrix, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Carre du champ Gamma(f,g)(x) = 1/2 sum_y P(x,y)(f(y)-f(x))(g(y)-g(x)).

    ``f`` and ``g`` are observables of length n, or two (n, m) blocks of
    observables taken column by column.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape or f.shape[:1] != (P.n,) or f.ndim > 2:
        raise DimensionMismatch("observables must have length n")
    E = P.entries
    return 0.5 * (E @ (f * g) - f * (E @ g) - g * (E @ f) + f * g)


def dirichlet_energy(P: StochasticMatrix, pi: Distribution, f: np.ndarray):
    """E_pi[Gamma(f,f)], the Dirichlet form of the reversibilization; one
    value per column when ``f`` is an (n, m) block.  As gamma_form, with
    the products by P.apply (P's CSR)."""
    f = np.asarray(f, dtype=np.float64)
    ff = f * f
    return pi.probs @ (0.5 * (P.apply(ff) - 2.0 * f * P.apply(f) + ff))


def relaxation_time(P: StochasticMatrix, seed: int = 0,
                    n_certificates: int = 50) -> SpectralReport:
    """Relaxation time from the spectrum of the reversibilization K, read
    off the symmetric S = D^(1/2) K D^(-1/2) = (M + M^T)/2, with
    M = D^(1/2) P D^(-1/2) and D = diag(pi).

    A declared group walk (families.StepLaw) has uniform pi, and K is the
    walk with step law (mu(g) + mu(-g))/2, whose eigenvalues are the real
    parts of the character sums y(chi) = sum_g mu(g) chi(g):
    ``law.characters()``, with no eigenproblem.  A priori, a radix-2
    FFT on N = 2^k points (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed. 2002, Sec. 24.1, Thm 24.2) computes y within
    k eta / (1 - k eta) ||y||_2 in 2-norm, hence every eigenvalue within
    that, where eta = w + gamma_4 (sqrt(2) + w), w is the error of the
    computed twiddle factors, gamma_4 = 4u/(1 - 4u) and ||y||_2 =
    sqrt(N) ||mu||_2.  On hypercube:d=11 (k = 11, ||mu||_2 = 11^(-1/2),
    w ~ u) that is 1.1e-13; other lengths take pocketfft's mixed-radix
    transforms, whose bounds have the same form.

    Also certifies the Poincare inequality Var(f) <= t_rel E[Gamma(f,f)]
    on ``n_certificates`` seeded standard-normal observables.
    """
    if not P.irreducible:
        raise NotIrreducible("relaxation time requires an irreducible chain")
    pi = P.pi
    p = pi.probs
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
    F = np.random.default_rng(seed).standard_normal((n_certificates, P.n)).T
    var = p @ (F - p @ F) ** 2
    excess = var - t_rel * dirichlet_energy(P, pi, F)
    bad = np.flatnonzero(excess > POINCARE_SLACK)
    if bad.size:
        i = bad[0]
        raise CertificateFailed(
            f"Poincare certificate failed: Var={var[i]} > "
            f"t_rel*E[Gamma]={var[i] - excess[i]}")
    return SpectralReport(t_rel=t_rel, gap=gap, lambda2=lambda2,
                          eigenvalues=eigs)
