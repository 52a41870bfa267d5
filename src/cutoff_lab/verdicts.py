"""Verdict record for checked inequalities."""

from __future__ import annotations

from dataclasses import dataclass, field

# Slack below zero that a verdict still passes: absorbs the rounding of the
# two sides, far above the heat kernels' 1e-13 truncation (chain._MASS_TOL).
VERDICT_TOL = 1e-9
# A curvature minimum down to -KAPPA_SLACK counts as certified non-negative:
# the Ollivier values carry the transport LPs' duality tolerance
# (curvature.DUALITY_TOL = 1e-8).
KAPPA_SLACK = 1e-8


@dataclass(frozen=True)
class InequalityVerdict:
    """One checked inequality: lhs <= rhs up to ``VERDICT_TOL``.

    ``slack = rhs - lhs`` and ``passed`` is equivalent to
    ``slack >= -VERDICT_TOL``.  ``context`` carries the parameters the check
    was run with (epsilon, t, start, ...).
    """

    name: str
    lhs: float
    rhs: float
    context: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -VERDICT_TOL

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: lhs={self.lhs:.6g} rhs={self.rhs:.6g} "
                f"slack={self.slack:.3g}")


def make_verdict(name, lhs, rhs, **context) -> InequalityVerdict:
    return InequalityVerdict(name=name, lhs=float(lhs), rhs=float(rhs),
                             context=context)
