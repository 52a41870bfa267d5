"""Acceptance gate: one test per criterion, one pass/fail line each.

Each test prints ``ACCEPTANCE <k>: PASS/FAIL -- <detail>`` before its final
assertions, and enforces the stated runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom

from cutoff_lab.chain import (Distribution, StochasticMatrix, heat_kernel,
                              metric_data, poisson_weights, stationary)
from cutoff_lab.cli import main, verdict_suite
from cutoff_lab.curvature import (bakry_emery_vertex, gamma2_form,
                                  ollivier_curvature, wasserstein1)
from cutoff_lab.entropy import (EPS_GRID, cutoff_window_bound,
                                entropic_concentration_ratio, mixing_time)
from cutoff_lab.families import (GroupSpec, birth_death, complete_graph,
                                 cycle, hypercube,
                                 perturb_toward_uniform,
                                 random_abelian_cayley)
from cutoff_lab.spectral import gamma_form

FLIP = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")


def theorem_suite_instances():
    return [
        ("hypercube:d=4", hypercube(4)),
        ("hypercube:d=6", hypercube(6)),
        ("hypercube:d=8", hypercube(8)),
        ("cycle:n=16", cycle(16)),
        ("cycle:n=32", cycle(32)),
        ("complete:n=20", complete_graph(20)),
        ("cayley-random:Z64:d=4:seed=7",
         random_abelian_cayley(GroupSpec((64,)), 4, seed=7)),
        ("bd:n=20", birth_death([0.3] * 19, [0.3] * 19)),
    ]


def random_irreducible_chain(rng, n):
    base = rng.dirichlet(np.ones(n), size=n)
    shift = np.roll(np.eye(n), 1, axis=1)
    return StochasticMatrix(0.8 * base + 0.2 * shift)


def random_connected_chain(rng, n):
    adj = np.zeros((n, n), dtype=bool)
    for v in range(1, n):
        u = int(rng.integers(0, v))
        adj[u, v] = adj[v, u] = True
    for u, v in rng.integers(0, n, size=(n, 2)):
        if u != v:
            adj[u, v] = adj[v, u] = True
    P = adj / adj.sum(axis=1, keepdims=True)
    return StochasticMatrix(0.5 * np.eye(n) + 0.5 * P)


def random_distribution(rng, n):
    k = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=k, replace=False)
    p = np.zeros(n)
    p[support] = rng.dirichlet(np.ones(k))
    return Distribution(p)


def taylor_heat_kernel(P, t, depth):
    """Independent oracle: plain Taylor series of e^{t(P-I)} summed to
    ``depth`` terms in extended (80-bit) precision."""
    n = P.n
    E = P.entries.astype(np.longdouble)
    V = np.eye(n, dtype=np.longdouble)
    w = np.exp(np.longdouble(-t))
    acc = w * V
    for k in range(1, depth + 1):
        V = V @ E
        w = w * np.longdouble(t) / k
        acc = acc + w * V
    return acc.astype(np.float64)


def hypercube_tv(d, t):
    """Independent oracle: TV from 0 of the continuous-time walk on {0,1}^d
    (Diaconis-Graham-Morrison product formula). Each coordinate flips at
    rate 1/d, so it is flipped at time t with probability
    p = (1 - e^{-2t/d})/2 and the Hamming weight is Binomial(d, p)."""
    p = -0.5 * math.expm1(-2.0 * t / d)
    k = np.arange(d + 1)
    return 0.5 * float(np.abs(binom.pmf(k, d, p) - binom.pmf(k, d, 0.5)).sum())


def hypercube_mixing_time(d, eps):
    """Closed-form crossing of ``hypercube_tv`` at ``eps`` and the doubling
    bracket ``hi`` that ``mixing_time`` reaches before it bisects."""
    hi = 1.0
    while hypercube_tv(d, hi) > eps:
        hi *= 2.0
    t = brentq(lambda s: hypercube_tv(d, s) - eps, 0.0, hi, xtol=1e-12,
               rtol=4 * np.finfo(float).eps)
    return t, hi


def w1_exhaustive(mu, nu, dist):
    """Enumerate integer 1-Lipschitz potentials (integral dual optimum
    exists for integer costs); exact on supports up to 6 states."""
    n = len(mu)
    diam = int(dist.max())
    grids = np.array(list(itertools.product(range(-diam, diam + 1),
                                            repeat=n - 1)), dtype=np.int64)
    F = np.hstack([np.zeros((len(grids), 1), dtype=np.int64), grids])
    ok = np.ones(len(F), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            ok &= np.abs(F[:, i] - F[:, j]) <= dist[i, j]
    return float(np.max(F[ok] @ (mu - nu)))


def test_criterion_1_heat_kernel_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 21))
        P = random_irreducible_chain(rng, n)
        for t in (0.1, 1.0, 5.0, 10.0):
            depth = 4 * len(poisson_weights(t))
            K = heat_kernel(P, t)
            oracle = taylor_heat_kernel(P, t, depth)
            worst = max(worst, float(np.max(np.abs(K - oracle))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, ok, f"max entrywise error {worst:.3g} over 20 chains x 4 "
                  f"times ({elapsed:.1f}s)")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_complete_graph_mixing():
    start = time.monotonic()
    worst = 0.0
    for n in (10, 50):
        P = complete_graph(n).matrix
        for eps in (0.05, 0.25, 0.5):
            got = mixing_time(P, eps, starts=[0])
            want = (n - 1) / n * math.log((1 - 1 / n) / eps)
            worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 5.0
    report(2, ok, f"max |t_mix - closed form| = {worst:.3g} ({elapsed:.1f}s)")
    assert worst < 1e-3
    assert elapsed < 5.0


def test_criterion_3_transport_duality():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    worst_dual = 0.0
    worst_oracle = 0.0
    n_small = 0
    for trial in range(200):
        n = int(rng.integers(2, 7)) if trial % 3 == 0 else \
            int(rng.integers(2, 31))
        P = random_connected_chain(rng, n)
        metric = metric_data(P)
        mu = random_distribution(rng, n)
        nu = random_distribution(rng, n)
        plan = wasserstein1(mu, nu, metric)
        f = plan.dual_potential
        assert np.max(np.abs(f[:, None] - f[None, :]) - metric.dist) <= 1e-9
        worst_dual = max(worst_dual,
                         abs(f @ (mu.probs - nu.probs) - plan.value))
        if n <= 6:
            n_small += 1
            oracle = w1_exhaustive(mu.probs, nu.probs, metric.dist)
            worst_oracle = max(worst_oracle, abs(plan.value - oracle))
    elapsed = time.monotonic() - start
    ok = worst_dual < 1e-8 and worst_oracle < 1e-9 and elapsed < 30.0
    report(3, ok, f"200 instances: duality gap {worst_dual:.3g}, oracle gap "
                  f"{worst_oracle:.3g} on {n_small} small cases "
                  f"({elapsed:.1f}s)")
    assert worst_dual < 1e-8
    assert worst_oracle < 1e-9
    assert elapsed < 30.0


def test_criterion_4_curvature_ground_truths():
    start = time.monotonic()
    # Cycles are Ollivier-flat.
    cycle_err = max(abs(ollivier_curvature(cycle(n).matrix).ollivier_min)
                    for n in (6, 16, 32))
    # Every abelian Cayley instance of the theorem-suite test set is
    # non-negatively curved.
    cayley_min = min(
        ollivier_curvature(inst.matrix).ollivier_min
        for _, inst in theorem_suite_instances()
        if inst.matrix.step_law is not None)
    # Flip chain: the hand-expanded Rayleigh quotient is identically 2.
    kappa, _ = bakry_emery_vertex(FLIP, 0)
    rng = np.random.default_rng(104)
    quot_err = 0.0
    for _ in range(50):
        f = rng.standard_normal(2)
        den = gamma_form(FLIP, f, f)[0]
        if den < 1e-12:
            continue
        quot_err = max(quot_err, abs(gamma2_form(FLIP, f)[0] / den - 2.0))
    be_err = max(abs(kappa - 2.0), quot_err)
    elapsed = time.monotonic() - start
    ok = cycle_err < 1e-8 and cayley_min >= -1e-8 and be_err < 1e-8 \
        and elapsed < 60.0
    report(4, ok, f"cycle |kappa| {cycle_err:.3g}, Cayley min {cayley_min:.3g}, "
                  f"flip-chain error {be_err:.3g} ({elapsed:.1f}s)")
    assert cycle_err < 1e-8
    assert cayley_min >= -1e-8
    assert be_err < 1e-8
    assert elapsed < 60.0


def test_criterion_5_theorem_suite():
    start = time.monotonic()
    failures = []
    total = 0
    for name, inst in theorem_suite_instances():
        for v in verdict_suite(inst, EPS_GRID, seed=0):
            total += 1
            if not v.passed:
                failures.append(f"{name}: {v}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 600.0
    report(5, ok, f"{total} verdicts on 8 instances, "
                  f"{len(failures)} failures ({elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < 600.0


def test_criterion_6_hypercube_cutoff_trend():
    start = time.monotonic()
    ratios = []
    exact_ratios = []
    worst_err = 0.0      # max |t_mix - closed form| / tol_t
    windows_ok = True
    for d in range(4, 11):
        inst = hypercube(d)
        P = inst.matrix
        starts = inst.starts
        got, want = {}, {}
        for eps in (0.25, 0.75):
            got[eps] = mixing_time(P, eps, starts=starts)
            want[eps], hi = hypercube_mixing_time(d, eps)
            # mixing_time's documented accuracy: tol_t = 1e-4 max(1, hi).
            worst_err = max(worst_err,
                            abs(got[eps] - want[eps]) / (1e-4 * max(1.0, hi)))
        ratios.append(got[0.25] / got[0.75])
        exact_ratios.append(want[0.25] / want[0.75])
        wb = cutoff_window_bound(inst, 0.25)
        windows_ok = windows_ok and wb.passed
    # The trend reaches 1.35 only near d = 10^4, far beyond the size rule,
    # so that figure is checked on the closed form.
    far_ratio = hypercube_mixing_time(10 ** 4, 0.25)[0] \
        / hypercube_mixing_time(10 ** 4, 0.75)[0]
    elapsed = time.monotonic() - start
    agrees = worst_err <= 1.0
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    far_below = far_ratio < 1.35
    ok = agrees and decreasing and far_below and windows_ok \
        and elapsed < 900.0
    report(6, ok, "ratios d=4..10: "
           + ", ".join(f"{r:.3f}" for r in ratios)
           + " (closed form "
           + ", ".join(f"{r:.3f}" for r in exact_ratios)
           + f"; {far_ratio:.3f} at d=10^4); max |t_mix - closed form| "
             f"= {worst_err:.2f} tol_t; strictly decreasing={decreasing}, "
             f"window bound holds={windows_ok} ({elapsed:.1f}s)")
    assert agrees, f"t_mix off the closed form by {worst_err:.2f} tol_t"
    assert decreasing
    assert windows_ok
    assert far_below, (f"closed-form t_mix(1/4)/t_mix(3/4) = {far_ratio:.3f} "
                       f"at d=10^4, required < 1.35")
    assert elapsed < 900.0


def test_hypercube_14_analyze_matches_product_formula(tmp_path):
    # 2^14 states, past the former 5000-state cap: analyze's t_mix(1/4)
    # and t_mix(3/4) lie on the closed-form crossing within mixing_time's
    # tolerance, 1e-4 times its doubling bracket.
    out = tmp_path / "o"
    assert main(["analyze", "--spec", "hypercube:d=14", "--eps", "0.25,0.75",
                 "--no-cache", "--out", str(out)]) == 0
    lines = (out / "analysis.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["n"] == str(2 ** 14)
    for eps in (0.25, 0.75):
        want, hi = hypercube_mixing_time(14, eps)
        assert abs(float(row[f"tmix_{eps}"]) - want) <= 1e-4 * max(1.0, hi)


def test_criterion_7_perturbation_counterexample():
    start = time.monotonic()
    inst = hypercube(8)
    P = inst.matrix
    t14 = mixing_time(P, 0.25, starts=inst.starts)
    ratio0 = t14 / mixing_time(P, 0.75, starts=inst.starts)
    theta = 5.0 / t14
    pert = perturb_toward_uniform(inst, theta)
    Q = pert.matrix
    ratio1 = mixing_time(Q, 0.25, starts=pert.starts) \
        / mixing_time(Q, 0.75, starts=pert.starts)
    delta0 = metric_data(P).delta
    delta1 = metric_data(Q).delta
    factor = delta1 / delta0
    # Pairs not adjacent in P get Q(x,y) = theta pi(y), so the perturbation
    # lifts Delta to 1/(theta min pi) (= 2^8/theta on the uniform cube).
    required = 0.9 / (theta * stationary(P).probs.min())
    elapsed = time.monotonic() - start
    ratio_ok = ratio1 >= 1.2 * ratio0
    delta_ok = delta1 >= required
    ok = ratio_ok and delta_ok and elapsed < 300.0
    report(7, ok, f"theta={theta:.3f}: ratio {ratio0:.3f} -> {ratio1:.3f} "
                  f"(x{ratio1 / ratio0:.3f}), Delta {delta0:.3g} -> "
                  f"{delta1:.4g} (x{factor:.1f}, required {required:.1f} "
                  f"= 0.9/(theta min pi)) ({elapsed:.1f}s)")
    assert ratio_ok
    assert delta_ok, (f"Delta {delta1:.1f} < required {required:.1f} "
                      f"= 0.9/(theta min pi)")
    assert elapsed < 300.0


def test_criterion_8_cycle_negative_control():
    start = time.monotonic()
    concs = []
    ratios = []
    for n in range(8, 65, 8):
        inst = cycle(n)
        P = inst.matrix
        starts = inst.starts
        concs.append(entropic_concentration_ratio(inst, 0.25))
        ratios.append(mixing_time(P, 0.25, starts=starts)
                      / mixing_time(P, 0.75, starts=starts))
    elapsed = time.monotonic() - start
    conc_ok = min(concs) >= 0.5
    ratio_ok = min(ratios) > 1.5
    ok = conc_ok and ratio_ok and elapsed < 300.0
    report(8, ok, f"cycle n=8..64: concentration min {min(concs):.3f} "
                  f"(>=0.5), mixing ratio min {min(ratios):.3f} (>1.5) "
                  f"({elapsed:.1f}s)")
    assert conc_ok
    assert ratio_ok
    assert elapsed < 300.0


def test_criterion_9_reproducibility(tmp_path):
    outputs = {"verify": [], "scan": []}
    for run in ("a", "b"):
        out = tmp_path / f"verify_{run}"
        assert main(["verify", "--spec", "hypercube:d=4",
                     "--eps", "0.25,0.75", "--seed", "11",
                     "--out", str(out)]) == 0
        outputs["verify"].append((out / "verdicts.csv").read_bytes())
        out = tmp_path / f"scan_{run}"
        assert main(["scan", "--spec", "cycle:n=8..16..4",
                     "--eps", "0.25,0.75", "--seed", "11",
                     "--out", str(out)]) == 0
        outputs["scan"].append((out / "scan.csv").read_bytes())
    ok = outputs["verify"][0] == outputs["verify"][1] \
        and outputs["scan"][0] == outputs["scan"][1]
    report(9, ok, "verify and scan CSVs byte-identical across reruns")
    assert outputs["verify"][0] == outputs["verify"][1]
    assert outputs["scan"][0] == outputs["scan"][1]
