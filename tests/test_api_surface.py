"""Parameter names of the public functions that have exactly one
configuration in use, and the flags of each CLI command, so a new knob on
any of them shows up as an edit here."""

import argparse
import inspect

import pytest

import cutoff_lab
from cutoff_lab import cli, curvature, entropy, families, spectral


@pytest.mark.parametrize("fn,params", [
    (curvature.bakry_emery_curvature, ["P", "starts"]),
    (curvature.bakry_emery_vertex, ["P", "x"]),
    (curvature.contraction_check, ["P", "kappa", "kernels", "seed",
                                   "starts"]),
    (curvature.subcommutativity_check, ["P", "kappa", "kernels", "seed"]),
    (entropy.local_concentration_sweep, ["P", "kernels", "kappa", "seed"]),
    (entropy.entropic_upper_bound, ["inst", "t", "eps"]),
    (entropy.cutoff_window_bound, ["inst", "eps"]),
    (entropy.worst_profile, ["rows_at", "pi", "times"]),
    (cli.verdict_suite, ["inst", "eps_list", "seed"]),
    (curvature.full_curvature_report, ["P"]),
    (spectral.relaxation_time, ["P"]),
    (spectral.reversibilization, ["P"]),
    (spectral.dirichlet_energy, ["P", "f"]),
    (families.perturb_toward_uniform, ["inner", "theta"]),
], ids=lambda v: getattr(v, "__name__", ""))
def test_parameter_names(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_adjoint_not_exported():
    # P's adjoint is formed inside reversibilization, from P.pi.
    assert not hasattr(cutoff_lab, "adjoint")
    assert not hasattr(spectral, "adjoint")


def test_state_cap_removed():
    # The one size rule is chain._admit, from chain._KERNEL_BYTES.
    assert not hasattr(families, "STATE_CAP")
    assert not hasattr(families, "_check_cap")


def test_curvature_claim_removed():
    # A walk on an abelian group is the matrix with P.step_law set: no
    # label on the instance, no bd monotonicity flag, no distance-block or
    # group-sum-table reader beside MetricData.at and GroupSpec.add.
    for name in ("CLAIM_ABELIAN", "CLAIM_OTHER", "CLAIM_UNKNOWN"):
        assert not hasattr(families, name)
    fields = families.ChainInstance.__dataclass_fields__
    assert "curvature_claim" not in fields
    assert not hasattr(families.GroupSpec, "sums")
    assert not hasattr(cutoff_lab.chain.MetricData, "block")
    assert "nondegenerate" not in \
        cutoff_lab.chain.ValidationReport.__dataclass_fields__


def test_cli_flags():
    # Flags are the CLI's only settings: no config file, no environment.
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(f for a in p._actions for f in a.option_strings)
             for name, p in sub.choices.items()}
    shared = sorted(["-h", "--help", "--spec", "--chain-file", "--eps",
                     "--tgrid", "--seed", "--out", "--no-cache"])
    assert flags == {name: shared for name in
                     ["analyze", "verify", "scan", "curvature",
                      "random-cayley"]}
