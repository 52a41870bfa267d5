"""Command-line interface: commands, exit codes, CSV format, option
checks, caching and reproducibility."""

import math
import time
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoff_lab import chain, cli, curvature, families
from cutoff_lab import entropy as ent
from cutoff_lab.chain import load_chain_file
from cutoff_lab.cli import (CSV_VERSION, EXIT_CAP, EXIT_OK, EXIT_SPEC,
                            EXIT_VERDICT, main, verdict_suite)
from cutoff_lab.entropy import EPS_GRID, EPS_MIN


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# {CSV_VERSION}"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestAnalyze:
    def test_cycle(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--spec", "cycle:n=12",
                     "--eps", "0.25,0.75", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "analysis.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["n"] == "12"
        assert float(row["kappa_ollivier"]) == pytest.approx(0.0, abs=1e-9)
        assert float(row["tmix_0.25"]) > float(row["tmix_0.75"])
        assert (out / "profile.svg").exists()

    def test_chain_file_input(self, tmp_path):
        chain = tmp_path / "chain.txt"
        chain.write_text("2\n0 1\n1 0\n")
        code = main(["analyze", "--chain-file", str(chain),
                     "--eps", "0.25", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK

    def test_profile_grid_shares_one_power_sequence(self, tmp_path,
                                                    monkeypatch):
        # The 25 grid rows of a start set are drawn from one _KernelRows,
        # and every output and cache file equals that of one-shot rows.
        made = []

        class Counted(chain._KernelRows):
            def __init__(self, P, starts):
                made.append(starts)
                super().__init__(P, starts)
        argv = ["analyze", "--spec", "cycle:n=12", "--eps", "0.25", "--out"]
        monkeypatch.setattr(cli, "_KernelRows", Counted)
        assert main(argv + [str(tmp_path / "shared")]) == EXIT_OK
        assert made == [[0]]
        monkeypatch.setattr(cli, "_KernelRows", lambda P, starts: partial(
            chain.kernel_rows, P, starts=starts))
        assert main(argv + [str(tmp_path / "one-shot")]) == EXIT_OK

        def files(name):
            root = tmp_path / name
            return {str(f.relative_to(root)): f.read_bytes()
                    for f in root.rglob("*") if f.is_file()}
        shared = files("shared")
        assert len([f for f in shared if f.startswith("cache")]) == 25
        assert shared == files("one-shot")

    def test_long_cycle_on_the_default_eps_grid(self, tmp_path):
        # The 1000-cycle's profile grid runs to 1.5 t_mix(0.05) = 193338,
        # past where the Poisson rows' powers would fit in _KERNEL_BYTES;
        # its rows are read off the step law's transform.
        out = tmp_path / "out"
        assert main(["analyze", "--spec", "cycle:n=1000", "--no-cache",
                     "--out", str(out)]) == EXIT_OK
        header, [row] = read_csv(out / "analysis.csv")
        row = dict(zip(header, row))
        assert row["tmix_0.25"] == "47434"
        assert row["tmix_0.75"] == "2615.625"

    def test_slow_lazy_walk_is_fast(self, tmp_path):
        # t_mix(1/4) = 881376 on 4 states: about a million row products on
        # the Poisson path, a few dozen transforms here.
        start = time.perf_counter()
        assert main(["analyze", "--spec", "hypercube:d=2:lazy=0.999999",
                     "--eps", "0.25", "--no-cache",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert time.perf_counter() - start < 1.0
        header, [row] = read_csv(tmp_path / "out" / "analysis.csv")
        assert dict(zip(header, row))["tmix_0.25"] == "881376"

    def test_explicit_tgrid(self, tmp_path):
        code = main(["analyze", "--spec", "cycle:n=8", "--eps", "0.5",
                     "--tgrid", "0:4:9", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK


class TestVerify:
    def test_all_pass_on_hypercube(self, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--spec", "hypercube:d=3",
                     "--eps", "0.25,0.75", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "verdicts.csv")
        i = header.index("pass")
        assert rows and all(r[i] == "1" for r in rows)
        names = {r[0] for r in rows}
        assert {"entropic-upper-bound", "entropic-lower-bound",
                "cutoff-window-bound", "diameter-bound",
                "log-gradient-bound", "local-concentration",
                "varentropy-bound-18",
                "varentropy-bound-composition"} <= names

    def test_negative_curvature_at_long_times(self, tmp_path):
        # The 80-state p = q = 0.3 bd chain: kappa_BE = -0.2, so the
        # semigroup checks' e^{-2 kappa t} passes the float range at the
        # long t_mix of the grid.  No overflow warning (an error under the
        # suite's filter), and the semigroup rows written before the fix.
        out = tmp_path / "out"
        spec = "bd:p={0};q={0}".format(",".join(["0.3"] * 79))
        assert main(["verify", "--spec", spec, "--out", str(out)]) == EXIT_OK
        lines = (out / "verdicts.csv").read_text().splitlines()
        assert lines[-2:] == [
            "w1-contraction,edge=(5/6);kappa=0;t=0.5,0.999999915904,1,"
            "8.4095579389e-08,1",
            "subcommutativity,kappa=-0.2;state=0;t=0.5,0.000623580255052,"
            "0.0032738090784,0.00265022882334,1"]

    def test_suite_computes_each_mixing_time_once(self, monkeypatch):
        calls = Counter()
        real = families.mixing_time

        def counting(P, eps, **kwargs):
            calls[eps] += 1
            return real(P, eps, **kwargs)
        monkeypatch.setattr(families, "mixing_time", counting)
        solves = Counter()
        for name, helper in (("stationary", "_solve_stationary"),
                             ("metric_data", "_support_metric")):
            def counted(P, _real=getattr(chain, helper), _name=name):
                solves[_name] += 1
                return _real(P)
            monkeypatch.setattr(chain, helper, counted)
        inst = families.hypercube(3)
        verdict_suite(inst, EPS_GRID)
        # t_mix(1 - 0.9) and t_mix(0.1) are one search: 7 distinct eps.
        assert len(calls) == 7 and set(calls.values()) == {1}
        assert solves == {"stationary": 1, "metric_data": 1}
        P = inst.matrix
        assert P.pi is P.pi

    def test_suite_reads_each_entropy_once(self, monkeypatch):
        # The start rows are read once at each distinct time: the t_mix(eps)
        # and t_mix(1 - eps) of the grid, t_mix(1/2) among them; the
        # log-gradient norm once at each t_mix(eps) and at the log-gradient
        # check's time.  Every verdict that reads d*, V* or the norm equals,
        # exactly, the one built from d_star_at, v_star_at and _max_log_lip
        # on a fresh instance.
        from cutoff_lab.verdicts import make_verdict
        reads, lips = Counter(), Counter()

        def counted(P, t, starts, _real=chain.kernel_rows):
            reads[t] += 1
            return _real(P, t, starts)

        def counted_lip(P, t, starts, _real=ent._max_log_lip):
            lips[t] += 1
            return _real(P, t, starts)
        for module in (chain, families, ent):
            monkeypatch.setattr(module, "kernel_rows", counted)
        for module in (families, ent):
            monkeypatch.setattr(module, "_max_log_lip", counted_lip)
        rates = ([0.35] * 9, [0.15] * 9)
        inst = families.birth_death(*rates)
        suite = verdict_suite(inst, EPS_GRID)
        monkeypatch.undo()
        times = {inst.t_mix(x) for e in EPS_GRID for x in (e, 1.0 - e)}
        assert inst.t_mix(0.5) in times and len(times) == len(EPS_GRID)
        assert reads == Counter(times)
        t_log = max(inst.matrix.metric.diameter / 4.0, inst.t_mix(0.25))
        assert lips == Counter({t_log} | {inst.t_mix(e) for e in EPS_GRID})

        fresh = families.birth_death(*rates)
        P, starts, t_rel = fresh.matrix, fresh.starts, fresh.t_rel
        delta = P.metric.delta
        t_half = fresh.t_mix(0.5)
        d_half = ent.d_star_at(P, t_half, starts)
        built = []
        for e in EPS_GRID:
            built.append(make_verdict(
                "entropic-upper-bound", fresh.t_mix(e),
                t_half + (t_rel / e) * (1.0 + d_half), eps=e, t=t_half))
            hi, lo = fresh.t_mix(e), fresh.t_mix(1.0 - e)
            if e < 0.5:
                v = ent.v_star_at(P, lo, starts)
                built.append(make_verdict(
                    "cutoff-window-bound", hi - lo,
                    (2.0 * t_rel / e ** 2) * (1.0 + math.sqrt(v)), eps=e,
                    t_mix_eps=hi, t_mix_1meps=lo, v_star=v))
            v = ent.v_star_at(P, hi, starts)
            lip = ent._max_log_lip(P, hi, starts)
            built.append(make_verdict(
                "varentropy-bound-18", v,
                18.0 * hi * (1.0 + math.log(delta)) ** 2, eps=e, t_mix=hi))
            built.append(make_verdict(
                "varentropy-bound-composition", v, 2.0 * hi * lip ** 2,
                eps=e, t_mix=hi, log_lip=lip))
        counts = Counter(v.name for v in built)
        assert counts == {"entropic-upper-bound": 7, "cutoff-window-bound": 3,
                          "varentropy-bound-18": 7,
                          "varentropy-bound-composition": 7}
        for name in counts:
            assert ([v for v in suite if v.name == name]
                    == [v for v in built if v.name == name])

    def test_transitive_curvature_from_start_vertex(self, tmp_path):
        # hypercube:d=6 is vertex-transitive: its curvature minima and W1
        # contraction are read at the edges of vertex 0 (and the reported
        # tied edge is the first of the full edge list).
        out = tmp_path / "out"
        assert main(["verify", "--spec", "hypercube:d=6",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "verdicts.csv")
        w1 = [dict(zip(header, r)) for r in rows if r[0] == "w1-contraction"]
        assert w1 and "edge=(0/1)" in w1[0]["context"].split(";")

    def test_contraction_lps_screened_on_birth_death(self, tmp_path,
                                                     monkeypatch):
        # The benchmark's 40-state drifting chain: the spanning-tree bound
        # (the path's CDF distance) rules out every edge at t_mix(1/4) and
        # some at t = 0.5, so at most 40 of its 79 W1 LPs run (one is
        # Ollivier's shared LP), and the reported edge and value stay.
        calls = []
        real = curvature._w1_restricted

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(curvature, "_w1_restricted", counted)
        spec = f"bd:p={','.join(['0.35'] * 39)};q={','.join(['0.15'] * 39)}"
        out = tmp_path / "out"
        assert main(["verify", "--spec", spec, "--out", str(out)]) == EXIT_OK
        assert len(calls) <= 40
        header, rows = read_csv(out / "verdicts.csv")
        [w1] = [dict(zip(header, r)) for r in rows
                if r[0] == "w1-contraction"]
        assert "edge=(33/34)" in w1["context"].split(";")
        assert float(w1["lhs"]) == pytest.approx(0.99999987416, abs=1e-10)

    def test_other_chains_use_every_edge(self, monkeypatch):
        # A birth-death chain is not vertex-transitive: no start set, so the
        # curvature reports cover every edge and every vertex.
        seen = {}
        for name in ("ollivier_curvature", "bakry_emery_curvature",
                     "contraction_check"):
            def wrapped(*args, _real=getattr(cli, name), _name=name,
                        **kwargs):
                seen[_name] = kwargs["starts"], _real(*args, **kwargs)
                return seen[_name][1]
            monkeypatch.setattr(cli, name, wrapped)
        inst = families.parse_family_spec("bd:p=0.3,0.3,0.3;q=0.2,0.2,0.2")
        assert not inst.transitive
        verdict_suite(inst, [0.25])
        assert {k: v[0] for k, v in seen.items()} == {
            "ollivier_curvature": None, "bakry_emery_curvature": None,
            "contraction_check": None}
        P = inst.matrix
        assert sorted(seen["ollivier_curvature"][1].ollivier_edges) \
            == P.edges()
        assert sorted(seen["bakry_emery_curvature"][1].bakry_emery_vertices) \
            == list(range(P.n))


SCAN_COMPLETE_06 = """\
# cutoff-lab-csv-v1
param,n,delta,diam,t_rel,kappa_ollivier,kappa_bakry_emery,tmix_0.6,window,\
ratio,d_star,v_star,concentration_ratio,sparse_condition,th1_window_scale,\
th2_window_bound
2,2,1,1,0.5,0,2,0,0,inf,0.69314718056,0,inf,inf,0,nan
3,3,2,1,0.666666666667,0.5,1.25,0.0702209472656,0,1,0.807530622945,\
0.690838188433,17.3848102275,0.328850328275,0.122452468337,nan
4,4,3,1,0.75,0.666666666667,1,0.167327880859,0,1,0.798860938008,\
1.02345609808,9.01669850276,0.246465921802,0.337046538632,nan
"""


class TestScan:
    def test_cycle_scan(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scan", "--spec", "cycle:n=8..12..2",
                     "--eps", "0.25,0.75", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "scan.csv")
        assert [r[0] for r in rows] == ["8", "10", "12"]
        assert (out / "cutoff_ratio.svg").exists()
        assert (out / "window.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["--spec", "cycle:n=8..9"],
        ["--spec", "complete:n=3..4", "--eps", "0.25,0.75"],
        ["--spec", "complete:n=3..4", "--eps", "0.75"],
    ], ids=["cycle-default-eps", "complete", "complete-one-eps"])
    def test_zero_mixing_time_members(self, tmp_path, argv):
        # t_mix(max eps) = 0 on every member: each ratio is inf, and with a
        # single eps so is the concentration ratio.
        out = tmp_path / "out"
        assert main(["scan"] + argv + ["--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "scan.csv")
        assert [r[header.index("ratio")] for r in rows] == ["inf", "inf"]
        assert (out / "cutoff_ratio.svg").exists()
        assert (out / "window.svg").exists()

    def test_each_mixing_time_searched_once(self, tmp_path, monkeypatch):
        # The table's t_mix and the cutoff-window verdict share one search
        # per (member, eps): 3 members x 7 eps.
        calls = Counter()
        real = families.mixing_time

        def counting(P, eps, **kwargs):
            calls[(P.n, eps)] += 1
            return real(P, eps, **kwargs)
        monkeypatch.setattr(families, "mixing_time", counting)
        assert main(["scan", "--spec", "cycle:n=8..12..2",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == 21 and set(calls.values()) == {1}

    @pytest.mark.parametrize("argv", [
        ["--spec", "hypercube:d=2..5", "--eps", "0.1,0.25,0.75"],
        ["--spec", "complete:n=2..4", "--eps", "0.6"],
        ["--spec", "cycle:n=6..7"]], ids=["hypercube", "complete", "cycle"])
    def test_concentration_ratio_is_the_library_value(self, argv):
        # Bit for bit entropic_concentration_ratio at the smallest eps, on
        # a fresh instance of each member (inf where t_mix = 0).
        opts = cli.Options(cli.build_parser().parse_args(["scan"] + argv))
        header, rows = cli.scan_rows(opts)
        col = header.index("concentration_ratio")
        members = families.parse_family_range(opts.spec)
        assert [r[col] for r in rows] == [
            ent.entropic_concentration_ratio(inst, min(opts.eps))
            for _, inst in members]

    def test_complete_scan_at_large_eps(self, tmp_path):
        # complete:n=2 is mixed at t = 0 for eps = 0.6: its ratios are inf
        # and the command still succeeds, writing this table.
        out = tmp_path / "out"
        assert main(["scan", "--spec", "complete:n=2..4", "--eps", "0.6",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "scan.csv").read_text() == SCAN_COMPLETE_06

    def test_scan_needs_range(self, tmp_path):
        code = main(["scan", "--spec", "cycle:n=8",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_SPEC


class TestCurvature:
    def test_table(self, tmp_path):
        out = tmp_path / "out"
        code = main(["curvature", "--spec", "cycle:n=6", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "curvature.csv")
        kinds = {r[0] for r in rows}
        assert kinds == {"edge", "vertex"}
        for r in rows:
            assert float(r[3]) == pytest.approx(0.0, abs=1e-9)


class TestRandomCayley:
    def test_emits_loadable_chain(self, tmp_path):
        out = tmp_path / "out"
        code = main(["random-cayley", "--spec",
                     "cayley-random:Z2^4:d=6:seed=3", "--out", str(out)])
        assert code == EXIT_OK
        P = load_chain_file(out / "chain.txt")
        assert P.n == 16 and P.irreducible

    def test_rejects_other_specs(self, tmp_path):
        code = main(["random-cayley", "--spec", "cycle:n=8",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_SPEC


class TestExitCodes:
    def test_bad_spec(self, tmp_path):
        assert main(["analyze", "--spec", "nonsense:x=1",
                     "--out", str(tmp_path / "o")]) == EXIT_SPEC

    def test_missing_input(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "o")]) == EXIT_SPEC

    def test_missing_chain_file(self, tmp_path):
        assert main(["analyze", "--chain-file", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")]) == EXIT_SPEC

    def test_state_cap(self, tmp_path):
        # The size rule counts entries, not states: hypercube:d=13 (8192 x
        # 13) runs, and complete:n=5182 (5182 x 5181) is refused.
        assert main(["analyze", "--spec", "hypercube:d=13", "--eps",
                     "0.25,0.75", "--out", str(tmp_path / "o")]) == EXIT_OK
        assert main(["analyze", "--spec", "complete:n=5182",
                     "--out", str(tmp_path / "o")]) == EXIT_CAP

    @pytest.mark.parametrize("spec", [
        "cayley:Z2^1000000000000:gens=1,-1", "hypercube:d=1000000000000",
        "complete:n=1000000000000"])
    def test_huge_group_refused_before_expansion(self, tmp_path, spec):
        tracemalloc.start()
        code = main(["analyze", "--spec", spec, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == EXIT_CAP and peak < 2 ** 20

    @pytest.mark.parametrize("argv, table", [
        # Dense P of 8192^2 floats, which verify's full kernels and the
        # chain file would need; the walk itself is admitted.
        (["verify", "--spec", "hypercube:d=13"], 8 * 2 ** 26),
        (["random-cayley", "--spec", "cayley-random:Z2^13:d=26:seed=1"],
         8 * 2 ** 26),
        # The int32 tables of x + g, 2^13 x 2^13 and 2^21 x 21.
        (["analyze", "--spec", "perturb:theta=0.1:hypercube:d=13"],
         4 * 2 ** 26),
        (["analyze", "--spec", "hypercube:d=21"], 4 * 21 * 2 ** 21),
        (["analyze", "--spec", "bd:p=" + ",".join(["0.3"] * 5181)
          + ";q=" + ",".join(["0.3"] * 5181)], 8 * 5182 ** 2),
    ], ids=["verify-hypercube13", "random-cayley13", "perturb-hypercube13",
            "hypercube21", "bd5182"])
    def test_refused_before_allocating(self, tmp_path, argv, table):
        # Exit 4 from the size rule, with a peak below the array it guards.
        out = tmp_path / "o"
        tracemalloc.start()
        code = main(argv + ["--eps", "0.25,0.75", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == EXIT_CAP and peak < table
        assert not (out / "chain.txt").exists()

    def test_chain_file_refused_at_its_header(self, tmp_path):
        # 5182^2 entries: refused before the rows, so the bad row after the
        # header, a spec error (exit 2) if it were read, is never parsed.
        path = tmp_path / "big.txt"
        path.write_text("5182\nnot a row\n")
        tracemalloc.start()
        code = main(["analyze", "--chain-file", str(path),
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == EXIT_CAP and peak < 2 ** 20

    @pytest.mark.parametrize("spec", ["sym:k=1", "sym:k=0",
                                      "hypercube:d=3:lazzy=0.5"])
    def test_malformed_spec_exits_spec(self, tmp_path, spec):
        assert main(["analyze", "--spec", spec,
                     "--out", str(tmp_path / "o")]) == EXIT_SPEC

    def test_certificate_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(curvature, "DUALITY_TOL", -1.0)
        assert main(["curvature", "--spec", "cycle:n=6",
                     "--out", str(tmp_path / "o")]) == EXIT_VERDICT

    def test_failed_stationary_solve_exits_verdict(self, tmp_path,
                                                   monkeypatch):
        # A uniform "solution" is not invariant for this chain.
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, b: np.full(len(b), 1.0 / len(b)))
        assert main(["analyze", "--spec", "bd:p=0.3,0.3;q=0.6,0.6",
                     "--no-cache", "--out", str(tmp_path / "o")]) \
            == EXIT_VERDICT

    @pytest.mark.parametrize("n, code", [(80, EXIT_CAP), (40, EXIT_OK)])
    def test_stationary_underflow_exits_cap(self, tmp_path, n, code):
        # pi ~ 18^i: on 80 states its smallest entries (near 1e-99) come out
        # of the solve at or below 0, a numerical limit, not a bad spec.
        p, q = ",".join(["0.9"] * (n - 1)), ",".join(["0.05"] * (n - 1))
        assert main(["analyze", "--spec", f"bd:p={p};q={q}", "--no-cache",
                     "--out", str(tmp_path / "o")]) == code

    def test_long_times_from_full_kernels_and_rows(self, tmp_path):
        # The symmetric 40-state birth-death chain is not vertex-transitive,
        # so its mixing-time searches square full kernels: tmix(0.05) is
        # near 1375.
        rates = ",".join(["0.3"] * 39)
        out = tmp_path / "bd"
        assert main(["analyze", "--spec", f"bd:p={rates};q={rates}",
                     "--no-cache", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "analysis.csv")
        got = float(dict(zip(header, rows[0]))["tmix_0.05"])
        # Worst TV from an eigendecomposition: P is symmetric, pi uniform.
        P = families.birth_death([0.3] * 39, [0.3] * 39).matrix.entries
        w, V = np.linalg.eigh(P)

        def tv(t):
            K = (V * np.exp(t * (w - 1.0))) @ V.T
            return 0.5 * np.abs(K - 1.0 / 40).sum(axis=1).max()
        lo, hi = 1024.0, 2048.0
        assert tv(lo) > 0.05 >= tv(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if tv(mid) <= 0.05 else (mid, hi)
        # The search bisects its last bracket [1024, 2048] to a width of
        # 1e-4 * 2048 and returns the midpoint.
        assert abs(got - hi) <= 0.5e-4 * 2048
        # A vertex-transitive chain searches rows from one start: on
        # cycle:n=200 they reach t = 8192 while doubling.  Worst TV from
        # the character sum P_t(0, x) = (1/n) sum_k e^{t (cos(2 pi k/n) - 1)}
        # e^{2 pi i k x/n}.
        out = tmp_path / "cycle"
        assert main(["analyze", "--spec", "cycle:n=200", "--eps", "0.05,0.25",
                     "--no-cache", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "analysis.csv")
        got = dict(zip(header, rows[0]))
        rate = np.cos(2 * np.pi * np.arange(200) / 200) - 1.0

        def cycle_tv(t):
            return 0.5 * np.abs(np.fft.ifft(np.exp(t * rate)).real
                                - 1.0 / 200).sum()
        for eps in (0.05, 0.25):
            lo, hi = 0.0, 8192.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if cycle_tv(mid) <= eps else (mid, hi)
            # Within the width of the search's last bracket, 1e-4 times its
            # power-of-two end.
            top = 2.0 ** math.ceil(math.log2(hi))
            assert abs(float(got[f"tmix_{eps}"]) - hi) <= 1e-4 * top

    @pytest.mark.parametrize("argv", [
        ["analyze", "--eps", "1e-300"],
        ["analyze", "--eps", "1e-15"],
        ["analyze", "--eps", "4e-13"],
        ["analyze", "--eps", "1e-11"],
        ["analyze", "--eps", "0.9999999999999"],
        ["verify", "--eps", "4e-13"],
        ["verify", "--eps", "0.9999999999999"],
    ], ids=["eps-tiny", "eps-below-kernel", "eps-small", "eps-below-floor",
            "eps-rounds-to-one", "verify-eps-small", "verify-eps-near-one"])
    def test_eps_beyond_kernel_resolution(self, tmp_path, argv):
        # The heat kernel's 1e-13 tail mass resolves no eps below EPS_MIN =
        # 1e-10, and verify also searches t_mix(1 - eps).
        assert main(argv + ["--spec", "cycle:n=8", "--no-cache",
                            "--out", str(tmp_path / "o")]) == EXIT_SPEC

    def test_eps_at_floor(self, tmp_path):
        assert main(["verify", "--spec", "cycle:n=8", "--eps", repr(EPS_MIN),
                     "--no-cache", "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_bad_eps(self, tmp_path):
        assert main(["analyze", "--spec", "cycle:n=8", "--eps", "1.5",
                     "--out", str(tmp_path / "o")]) == EXIT_SPEC

    @pytest.mark.parametrize("argv", [
        ["scan"],
        ["scan", "--spec", "cycle:n=a..12"],
        ["analyze", "--spec", "cycle:n=8", "--eps", "quarter"],
        ["analyze", "--spec", "cycle:n=8", "--seed", "1.5"],
        ["analyze", "--chain-file", "{dir}"],
        ["analyze", "--chain-file", "{nan}"],
        ["analyze", "--chain-file", "{binary}"],
        ["analyze", "--spec", "cycle:n=8", "--tgrid", "0:4:0"],
        ["verify", "--spec", "cycle:n=6", "--seed=-1"],
        ["analyze", "--spec", "cycle:n=8", "--tgrid", "nan:1:3"],
        ["analyze", "--spec", "cycle:n=8", "--tgrid", "0:inf:3"],
        ["analyze", "--spec", "cycle:n=8", "--tgrid=-5:4:3"],
    ], ids=["scan-no-spec", "scan-bad-range", "eps-word", "seed-float", "chain-file-dir", "chain-file-nan",
            "chain-file-not-utf8", "tgrid-zero-steps", "seed-negative",
            "tgrid-nan", "tgrid-inf", "tgrid-negative"])
    def test_bad_input_exits_spec(self, tmp_path, argv):
        nan_file = tmp_path / "nan.txt"
        nan_file.write_text("2\nnan 1\n1 0\n")
        binary_file = tmp_path / "binary.txt"
        binary_file.write_bytes(b"\xff\xfe2\n0 1\n1 0\n")
        argv = [a.format(dir=tmp_path, nan=nan_file, binary=binary_file)
                for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_SPEC

    @pytest.mark.parametrize("spec,tgrid,code", [
        ("bd:p=0.3,0.3;q=0.3,0.3", "1e16:1e16:2", EXIT_OK),
        ("bd:p=0.3,0.3;q=0.3,0.3", "0:5e-324:2", EXIT_OK),
        ("bd:p=0.3,0.3;q=0.3,0.3", "0:1.7e308:2", EXIT_OK),
        ("bd:p=0.3,0.3;q=0.3,0.3", "2e-308:3e-308:2", EXIT_OK),
        ("sym:k=3", "1e308:1e308:2", EXIT_CAP),
        ("cycle:n=8", "1e308:1e308:2", EXIT_OK),
    ], ids=["span-past-2^53", "span-subnormal", "span-overflow",
            "span-tiny", "power-cap-overflow", "walk-rows-at-1e308"])
    def test_extreme_tgrid(self, tmp_path, spec, tgrid, code):
        # The profile axis of a zero, underflowing or overflowing span is
        # drawn, t |starts| n past the largest double still meets the
        # rows' power cap, and a declared walk's rows, which hold no
        # powers, answer there: no warning (an error under this suite).
        assert main(["analyze", "--spec", spec, "--eps", "0.25", "--tgrid",
                     tgrid, "--no-cache", "--out", str(tmp_path)]) == code

    # Zero, subnormal, tiny, ordinary, past 2^53 and near-overflow times.
    TIMES = [0.0, 5e-324, 2e-308, 1e-300, 0.5, 9.1e15, 1e16, 1e308, 1.7e308]

    @settings(max_examples=40)
    @given(st.sampled_from(TIMES), st.sampled_from(TIMES),
           st.integers(1, 3),
           st.sampled_from(["bd:p=0.3,0.3;q=0.3,0.3", "cycle:n=8"]))
    def test_tgrid_extremes_keep_exit_contract(self, tmp_path_factory,
                                               a, b, steps, spec):
        # Degenerate, subnormal and overflowing profile axes are drawn,
        # and a declared walk's rows answer at every finite time, with no
        # warning.
        a, b = sorted((a, b))
        out = tmp_path_factory.mktemp("o")
        assert main(["analyze", "--spec", spec, "--eps", "0.25",
                     "--tgrid", f"{a!r}:{b!r}:{steps}", "--no-cache",
                     "--out", str(out)]) in (EXIT_OK, EXIT_SPEC,
                                             EXIT_VERDICT, EXIT_CAP)


    def test_tgrid_step_cap(self, tmp_path, monkeypatch):
        # A 10^12-point grid exits 4 before any work: no analysis, no out.
        def forbidden(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(cli, "_analysis", forbidden)
        out = tmp_path / "o"
        assert main(["analyze", "--spec", "cycle:n=8", "--eps", "0.25",
                     "--tgrid", "0:1:1000000000000",
                     "--out", str(out)]) == EXIT_CAP
        assert not out.exists()
        args = cli.build_parser().parse_args(
            ["analyze", "--tgrid", f"0:1:{cli.TGRID_STEPS_CAP}"])
        assert cli.Options(args).tgrid == (0.0, 1.0, cli.TGRID_STEPS_CAP)

    @settings(max_examples=30)
    @given(st.floats(0.0, 1e300), st.floats(0.0, 1e300),
           st.integers(cli.TGRID_STEPS_CAP + 1, 10 ** 30))
    def test_huge_tgrid_refused_without_allocating(self, tmp_path_factory,
                                                   a, b, steps):
        # Refused in Options: no grid is built, and the whole command
        # allocates under 1 MiB.
        out = tmp_path_factory.mktemp("o") / "out"
        tracemalloc.start()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "_t_grid", None)
            code = main(["analyze", "--spec", "cycle:n=8", "--tgrid",
                         f"{a!r}:{b!r}:{steps}", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == EXIT_CAP and peak < 2 ** 20
        assert not out.exists()


class TestOptions:
    def test_default_eps_is_the_grid(self):
        # The default --eps is built from EPS_GRID, and its string (hence
        # the default CSV headers) is unchanged.
        args = cli.build_parser().parse_args(["analyze", "--spec", "cycle:n=8"])
        assert args.eps == "0.05,0.1,0.25,0.5,0.75,0.9,0.95"
        assert tuple(cli.Options(args).eps) == EPS_GRID

    def test_repeated_eps_is_one_value(self):
        # Values equal to 12 significant digits share a key: the first one
        # given is kept, in its place.
        for text, kept in (("0.25,0.25", [0.25]),
                           ("0.1,0.1000000000001", [0.1]),
                           ("0.1000000000001,0.75,0.1", [0.1000000000001,
                                                         0.75]),
                           ("0.75,0.25,0.75,0.5", [0.75, 0.25, 0.5])):
            args = cli.build_parser().parse_args(
                ["analyze", "--spec", "cycle:n=8", "--eps", text])
            assert cli.Options(args).eps == kept

    @pytest.mark.parametrize("argv,name", [
        (["analyze", "--spec", "cycle:n=8"], "analysis.csv"),
        (["verify", "--spec", "cycle:n=8"], "verdicts.csv"),
        (["scan", "--spec", "cycle:n=6..7"], "scan.csv"),
    ], ids=["analyze", "verify", "scan"])
    def test_repeated_eps_writes_each_column_once(self, tmp_path, capsys,
                                                  argv, name):
        # A repeated eps writes the files and stdout of the list without
        # the repeats: no duplicate column, row or verdict.
        outs = []
        for i, eps in enumerate(("0.25,0.1,0.25,0.1000000000001,0.75",
                                 "0.25,0.1,0.75")):
            out = tmp_path / str(i)
            assert main(argv + ["--eps", eps, "--out", str(out)]) == EXIT_OK
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.is_file()}
            outs.append((files, capsys.readouterr().out))
        assert outs[0] == outs[1]
        header, rows = read_csv(tmp_path / "0" / name)
        assert len(set(header)) == len(header)
        if name == "verdicts.csv":
            assert len({tuple(r[:2]) for r in rows}) == len(rows)

    def test_config_refused(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--spec", "cycle:n=8", "--config",
                  str(tmp_path / "run.cfg")])
        assert exc.value.code == 2

    def test_bad_tgrid_refused_before_any_work(self, tmp_path):
        out = tmp_path / "o"
        assert main(["analyze", "--spec", "cycle:n=8", "--tgrid", "0:4:0",
                     "--out", str(out)]) == EXIT_SPEC
        assert not out.exists()


class TestCache:
    def test_cache_populated_and_reused(self, tmp_path):
        out = tmp_path / "out"
        args = ["analyze", "--spec", "cycle:n=10", "--eps", "0.25",
                "--out", str(out)]
        assert main(args) == EXIT_OK
        entries = list((out / "cache").iterdir())
        assert entries
        mtimes = {p: p.stat().st_mtime_ns for p in entries}
        assert main(args) == EXIT_OK
        for p, stamp in mtimes.items():
            assert p.stat().st_mtime_ns == stamp     # reused, not rewritten

    def test_corrupt_cache_recovered(self, tmp_path):
        out = tmp_path / "out"
        args = ["analyze", "--spec", "cycle:n=10", "--eps", "0.25",
                "--out", str(out)]
        main(args)
        for p in (out / "cache").iterdir():
            p.write_bytes(b"garbage")
        assert main(args) == EXIT_OK

    def test_no_cache_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--spec", "cycle:n=10", "--eps", "0.25",
                     "--out", str(out), "--no-cache"]) == EXIT_OK
        assert not (out / "cache").exists()


class TestReproducibility:
    def test_verify_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["verify", "--spec", "hypercube:d=3",
                         "--eps", "0.25,0.75", "--seed", "7",
                         "--out", str(out)])
            assert code == EXIT_OK
            outs.append((out / "verdicts.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_scan_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["scan", "--spec", "cycle:n=8..10..2",
                         "--eps", "0.25,0.75", "--seed", "7",
                         "--out", str(out)])
            assert code == EXIT_OK
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1]
