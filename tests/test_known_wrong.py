"""Standing wrong answers, one strict xfail each (ROADMAP D25).

Each test asserts the right answer.  ``raises=`` names the way it fails
today, so a different failure still fails the test; a fix makes it XPASS,
which ``strict`` turns into a failure until the fixing change makes it a
plain test.  ``reason`` names the ROADMAP item that mends it.
"""

import math

import pytest

from cutoff_lab.chain import load_chain_file, save_chain_file
from cutoff_lab.cli import verdict_suite
from cutoff_lab.curvature import bakry_emery_curvature
from cutoff_lab.entropy import EPS_GRID, entropic_lower_bound_check
from cutoff_lab.errors import CertificateFailed, UnderflowRisk
from cutoff_lab.families import ChainInstance, birth_death, hypercube
from cutoff_lab.spectral import relaxation_time
from test_chain import random_reversible


def assert_bd_t_rel(p, q, n):
    # The n-state chain with constant rates p up and q down has
    # t_rel = 1/(p + q - 2 sqrt(pq) cos(pi/n)).
    P = birth_death([p] * (n - 1), [q] * (n - 1)).matrix
    exact = 1.0 / (p + q - 2.0 * math.sqrt(p * q) * math.cos(math.pi / n))
    assert relaxation_time(P).t_rel == pytest.approx(exact, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "D7: pi's small entries have no relative accuracy; t_rel 29.62, "
    "exact 4.9416"))
def test_drifting_bd_t_rel():
    assert_bd_t_rel(0.45, 0.05, 25)


@pytest.mark.xfail(strict=True, raises=UnderflowRisk, reason=(
    "D7: the LU solve gives pi entries <= 0, exit 4"))
@pytest.mark.parametrize("n", [30, 40, 200])
def test_drifting_bd_solves(n):
    assert_bd_t_rel(0.45, 0.05, n)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "D7: t_rel 155.27, exact 1.8974"))
def test_strongly_drifting_bd_t_rel():
    assert_bd_t_rel(0.9, 0.05, 40)


@pytest.mark.xfail(strict=True, raises=CertificateFailed, reason=(
    "D13: verify --chain-file on random_chain_weights(1, 64) exits 3, a "
    "W1 LP reports kInfeasible"))
def test_random_chain_verifies(tmp_path):
    path = tmp_path / "chain.txt"
    save_chain_file(random_reversible(1, 64), path)
    inst = ChainInstance(load_chain_file(path), family="file")
    assert all(v.passed for v in verdict_suite(inst, EPS_GRID))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "D3: the 1/2-lazy 4-cube reports kappa_BE = 0; exact (1/2)(2/4)"))
def test_lazy_hypercube_bakry_emery():
    P = hypercube(4, laziness=0.5).matrix
    assert bakry_emery_curvature(P).bakry_emery_min == pytest.approx(
        0.25, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "D22: on hypercube:d=8, 4 of the 7 entropic-lower-bound rows of "
    "verify are vacuous (eps 0.05, 0.25, 0.75, 0.9)"))
def test_entropic_lower_bound_decided():
    inst = hypercube(8)
    vacuous = [e for e in EPS_GRID if entropic_lower_bound_check(
        inst.entropies(inst.t_mix(1.0 - e)).worst_row, inst.matrix.pi,
        e).context["vacuous"]]
    assert vacuous == []
