"""Workload definitions: the ops each workload runs and the inputs it builds
from the seed.

Imports numpy only, never ``cutoff_lab``, so the checker in the parent
process stays independent of the code under test.

An op is a dict:

- ``name``: unique within the workload;
- ``kind``: ``"cli"`` (``cutoff_lab.cli.main(argv)`` in-process) or
  ``"pipeline"`` (the cutoff-ratio library pipeline on one spec);
- ``argv`` (cli) or ``spec`` (pipeline);
- ``check``: what the output check compares against (see check.py);
- ``reference``: true when the inputs do not depend on the seed, so the
  outputs are also compared with values recorded from the seed code.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("scale-cayley", "general-long")

# Birth-death chains on 40 states with constant rates.  The drifting chain
# (p > q) has t_mix of 100-265; the symmetric one crosses the t <= 700
# limit of the Poisson weights and fails at the seed code.
BD_STATES = 40
BD_DRIFT = (0.35, 0.15)
BD_SYMMETRIC = (0.3, 0.3)

# Random reversible chain written to a chain file during set-up.
RANDOM_CHAIN_N = 192
RANDOM_CHAIN_CHORDS = 2        # random chords per state, on top of a ring

# Vertex-transitive chains (starts=[0]) verified in general-long: W1 LPs
# and per-vertex Bakry-Emery work dominate them.  Keep n > 128: at n <= 128
# contraction_check solves one dense W1 LP per edge (hypercube:d=7 takes
# about 145 s).
VERIFY_CAYLEY = (("hypercube", "hypercube:d=8"), ("cycle", "cycle:n=32"))

OUTPUT_FILES = ("analysis.csv", "verdicts.csv", "profile.svg")   # checked

ANALYZE_EPS = "0.25,0.75"      # for the random chain; bd uses the default


def bd_spec(p: float, q: float, states: int = BD_STATES) -> str:
    m = states - 1
    return f"bd:p={','.join([repr(p)] * m)};q={','.join([repr(q)] * m)}"


def random_chain_weights(seed: int, n: int = RANDOM_CHAIN_N,
                         chords: int = RANDOM_CHAIN_CHORDS) -> np.ndarray:
    """Symmetric edge weights W of a reversible chain P = W / rowsum(W).

    A weighted ring keeps the chain irreducible; random chords make it an
    expander-like graph whose mixing time stays far below the t <= 700
    limit; a diagonal of half the row weight makes it 1/3-lazy.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    W = np.zeros((n, n))
    for x in range(n):
        y = (x + 1) % n
        w = rng.uniform(0.5, 1.5)
        W[x, y] += w
        W[y, x] += w
    for _ in range(chords * n // 2):
        x, y = (int(v) for v in rng.integers(0, n, size=2))
        if x != y:
            w = rng.uniform(0.5, 1.5)
            W[x, y] += w
            W[y, x] += w
    W[np.arange(n), np.arange(n)] += 0.5 * W.sum(axis=1)
    return W


def write_chain_file(W: np.ndarray, path: str):
    """Chain-file text format of cutoff-lab: n, then the rows of P."""
    P = W / W.sum(axis=1, keepdims=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# random reversible chain, {len(P)} states\n{len(P)}\n")
        for row in P:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def ops(workload: str, seed: int, work: str) -> list:
    """The ordered op list of one pass; ``work`` is the pass directory."""
    out = lambda name: os.path.join(work, name)      # noqa: E731
    if workload == "scale-cayley":
        return [{"name": f"pipeline:{name}", "kind": "pipeline", "spec": spec,
                 "check": {"kind": "cayley"}, "reference": fixed}
                for name, spec, fixed in (
                    ("hypercube", "hypercube:d=11", True),
                    ("cayley-random", f"cayley-random:Z2^10:d=20:seed={seed}",
                     False))]
    if workload == "general-long":
        chain = os.path.join(work, "chain.txt")
        rnd = out("random")
        drift, sym = bd_spec(*BD_DRIFT), bd_spec(*BD_SYMMETRIC)
        analyze = ["analyze", "--eps", ANALYZE_EPS]
        return [
            {"name": "analyze:random-cold", "kind": "cli",
             "argv": analyze + ["--chain-file", chain, "--out", rnd],
             "out": rnd, "check": {"kind": "random-chain"}, "reference": False},
            {"name": "analyze:random-warm", "kind": "cli",
             "argv": analyze + ["--chain-file", chain, "--out", rnd],
             "out": rnd, "check": {"kind": "random-chain",
                                   "same_as": "analyze:random-cold"},
             "reference": False},
            {"name": "verify:bd-drift", "kind": "cli",
             "argv": ["verify", "--spec", drift, "--out", out("bd-drift-v")],
             "spec": drift, "out": out("bd-drift-v"),
             "check": {"kind": "bd", "p": BD_DRIFT}, "reference": True},
            {"name": "analyze:bd-drift", "kind": "cli",
             "argv": ["analyze", "--spec", drift, "--out", out("bd-drift-a")],
             "out": out("bd-drift-a"), "check": {"kind": "bd", "p": BD_DRIFT},
             "reference": True},
            {"name": "analyze:bd-symmetric", "kind": "cli",
             "argv": ["analyze", "--spec", sym, "--out", out("bd-sym-a")],
             "out": out("bd-sym-a"),
             "check": {"kind": "bd", "p": BD_SYMMETRIC}, "reference": True},
            {"name": "verify:bd-symmetric", "kind": "cli",
             "argv": ["verify", "--spec", sym, "--out", out("bd-sym-v")],
             "spec": sym, "out": out("bd-sym-v"),
             "check": {"kind": "bd", "p": BD_SYMMETRIC}, "reference": True},
        ] + [{"name": f"verify:{name}", "kind": "cli",
              "argv": ["verify", "--spec", spec, "--out", out(name)],
              "spec": spec, "out": out(name), "check": {"kind": "cayley"},
              "reference": True}
             for name, spec in VERIFY_CAYLEY]
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, seed: int, work: str):
    """Write the files the workload's ops read (the seed's chain file)."""
    os.makedirs(work, exist_ok=True)
    if workload == "general-long":
        write_chain_file(random_chain_weights(seed),
                         os.path.join(work, "chain.txt"))
