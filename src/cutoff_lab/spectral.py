"""Adjoint, additive reversibilization, relaxation time and the carre du
champ / Poincare inequality."""

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
    """Carre du champ Gamma(f,g)(x) = 1/2 sum_y P(x,y)(f(y)-f(x))(g(y)-g(x))."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != (P.n,) or g.shape != (P.n,):
        raise DimensionMismatch("observables must have length n")
    E = P.entries
    return 0.5 * (E @ (f * g) - f * (E @ g) - g * (E @ f) + f * g)


def dirichlet_energy(P: StochasticMatrix, pi: Distribution, f: np.ndarray) -> float:
    """E_pi[Gamma(f,f)], the Dirichlet form of the reversibilization."""
    return float(pi.probs @ gamma_form(P, f, f))


def relaxation_time(P: StochasticMatrix, seed: int = 0,
                    n_certificates: int = 50) -> SpectralReport:
    """Relaxation time via symmetric eigendecomposition of D^(1/2) K D^(-1/2).

    Also certifies the Poincare inequality Var(f) <= t_rel E[Gamma(f,f)]
    on ``n_certificates`` seeded standard-normal observables.
    """
    if not P.irreducible:
        raise NotIrreducible("relaxation time requires an irreducible chain")
    pi = P.pi
    K = reversibilization(P, pi)
    s = np.sqrt(pi.probs)
    S = (s[:, None] * K.entries) / s[None, :]
    S = 0.5 * (S + S.T)          # kill roundoff asymmetry before eigh
    eigs = np.linalg.eigvalsh(S)[::-1]
    lambda2 = float(eigs[1])
    gap = 1.0 - lambda2
    if gap <= 0:
        raise NotIrreducible("zero spectral gap (chain not irreducible?)")
    t_rel = 1.0 / gap
    rng = np.random.default_rng(seed)
    p = pi.probs
    for _ in range(n_certificates):
        f = rng.standard_normal(P.n)
        mean = p @ f
        var = p @ (f - mean) ** 2
        energy = dirichlet_energy(P, pi, f)
        if var > t_rel * energy + POINCARE_SLACK:
            raise CertificateFailed(
                f"Poincare certificate failed: Var={var} > "
                f"t_rel*E[Gamma]={t_rel * energy}")
    return SpectralReport(t_rel=t_rel, gap=gap, lambda2=lambda2,
                          eigenvalues=eigs)
