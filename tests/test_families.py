"""Chain families: group arithmetic, constructors, metadata and the family
spec grammar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoff_lab import chain, families
from cutoff_lab.chain import StochasticMatrix, metric_data, stationary
from cutoff_lab.errors import (GenerationFailed, NotGenerating,
                               NotSymmetricSet, SpecParseError,
                               StateCapExceeded)
from cutoff_lab.families import (ChainInstance, GroupSpec, _generating,
                                 abelian_cayley, birth_death, complete_graph,
                                 conjugacy_walk, cycle, hypercube,
                                 parse_family_range, parse_family_spec,
                                 perturb_toward_uniform,
                                 random_abelian_cayley)


class TestGroupSpec:
    def test_parse_forms(self):
        assert GroupSpec.parse("Z12xZ2").factors == (12, 2)
        assert GroupSpec.parse("Z2^4").factors == (2, 2, 2, 2)
        assert GroupSpec.parse("Z101").factors == (101,)
        assert GroupSpec.parse("Z3^2xZ5").factors == (3, 3, 5)

    @pytest.mark.parametrize("text", ["", "12", "Zx", "Z2^x", "Z1", "Z0xZ2"])
    def test_parse_rejects(self, text):
        with pytest.raises(SpecParseError):
            GroupSpec.parse(text)

    def test_encode_decode_round_trip(self):
        spec = GroupSpec((3, 4, 2))
        idx = np.arange(spec.N)
        assert np.array_equal(spec.encode(spec.decode(idx)), idx)

    def test_mixed_radix_order(self):
        # Last factor fastest: in Z3 x Z2, index 1 is (0, 1), index 2 is
        # (1, 0).
        spec = GroupSpec((3, 2))
        assert spec.decode(1).tolist() == [0, 1]
        assert spec.decode(2).tolist() == [1, 0]

    def test_add_and_neg(self):
        spec = GroupSpec((5,))
        assert int(spec.add(3, 4)) == 2
        # add broadcasts: the table of x + g for x in 0..4 and g in {1, 4}.
        table = spec.add(np.arange(5)[:, None], np.array([1, 4])[None, :])
        assert table.tolist() == [[1, 4], [2, 0], [3, 1], [4, 2], [0, 3]]
        assert int(spec.neg(2)) == 3
        assert int(spec.neg(0)) == 0


class TestAbelianCayley:
    def test_cycle_as_cayley(self):
        inst = abelian_cayley(GroupSpec((6,)), [1, -1])
        P = inst.matrix.entries
        assert P[0, 1] == pytest.approx(0.5)
        assert P[0, 5] == pytest.approx(0.5)
        assert inst.transitive
        assert inst.starts == [0]

    def test_multiset_weights(self):
        # A repeated generator doubles its step probability.
        inst = abelian_cayley(GroupSpec((5,)), [1, 1, -1, -1, 2, -2])
        P = inst.matrix.entries
        assert P[0, 1] == pytest.approx(2.0 / 6.0)
        assert P[0, 2] == pytest.approx(1.0 / 6.0)

    def test_symmetric_matrix(self):
        inst = abelian_cayley(GroupSpec((4, 3)), [1, -1, 3, -3])
        assert np.allclose(inst.matrix.entries, inst.matrix.entries.T)

    def test_rejects_asymmetric_multiset(self):
        with pytest.raises(NotSymmetricSet):
            abelian_cayley(GroupSpec((5,)), [1, 1, -1])

    def test_rejects_non_generating(self):
        with pytest.raises(NotGenerating):
            abelian_cayley(GroupSpec((4,)), [2, -2])

    def test_state_cap(self):
        # The size rule counts a walk's N |S| entries: the 6000-cycle is
        # admitted, the complete graph on Z_5182 (5182 x 5181 entries) is
        # refused, and so is a group whose order alone passes the limit.
        assert abelian_cayley(GroupSpec((6000,)), [1, -1]).matrix.n == 6000
        with pytest.raises(StateCapExceeded):
            abelian_cayley(GroupSpec((5182,)), range(1, 5182))
        with pytest.raises(StateCapExceeded):
            GroupSpec((chain._KERNEL_BYTES // 40 + 1,))

    def test_involution_self_inverse(self):
        # In Z2^d every element is its own inverse; a single generator is a
        # legal symmetric multiset.
        inst = abelian_cayley(GroupSpec((2, 2)), [1, 2, 3])
        assert inst.matrix.irreducible


class TestRandomCayley:
    def test_deterministic_given_seed(self):
        a = random_abelian_cayley(GroupSpec((32,)), 3, seed=9)
        b = random_abelian_cayley(GroupSpec((32,)), 3, seed=9)
        assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert a.params["draws"] == b.params["draws"]

    def test_different_seeds_differ(self):
        a = random_abelian_cayley(GroupSpec((32,)), 3, seed=1)
        b = random_abelian_cayley(GroupSpec((32,)), 3, seed=2)
        assert not np.array_equal(a.matrix.entries, b.matrix.entries)

    def test_generates(self):
        # Z2^4 needs at least 4 independent involutions; 6 draws succeed
        # after at most a few redraws.
        inst = random_abelian_cayley(GroupSpec((2,) * 4), 6, seed=0)
        assert inst.matrix.irreducible
        assert inst.transitive

    def test_redraw_exhaustion(self, monkeypatch):
        # A single draw in Z2 x Z2 generates with probability < 1; with one
        # attempt allowed a non-generating seed must fail loudly.
        monkeypatch.setattr(families, "MAX_REDRAWS", 1)
        with pytest.raises(GenerationFailed):
            for seed in range(50):
                random_abelian_cayley(GroupSpec((2, 2)), 1, seed=seed)

    def test_one_generation_test_per_draw(self, monkeypatch):
        # Z2^4 with 4 draws needs two redraws at seed 1; only the accepted
        # draw generates, and each draw is tested once.
        results = []

        def recorded(spec, gens):
            results.append(_generating(spec, gens))
            return results[-1]
        monkeypatch.setattr(families, "_generating", recorded)
        random_abelian_cayley(GroupSpec((2,) * 4), 4, seed=1)
        assert results == [False, False, True]


def _gf2_rank(vectors) -> int:
    pivots = {}                     # leading bit -> reduced vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


class TestGenerating:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(0, 2 ** k - 1), max_size=12))))
    def test_hypercube_group_is_gf2_rank(self, case):
        # Z2^k is GF(2)^k with index bits as coordinates.
        k, S = case
        assert _generating(GroupSpec((2,) * k), S) == (_gf2_rank(S) == k)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 600).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=6))))
    def test_cyclic_group_is_gcd(self, case):
        n, S = case
        assert _generating(GroupSpec((n,)), S) == (math.gcd(n, *S) == 1)


class TestNamedFamilies:
    def test_hypercube_matrix(self):
        inst = hypercube(3)
        P = inst.matrix.entries
        for x in range(8):
            for y in range(8):
                expected = 1.0 / 3.0 if bin(x ^ y).count("1") == 1 else 0.0
                assert P[x, y] == pytest.approx(expected)
        assert metric_data(inst.matrix).diameter == 3

    def test_lazy_hypercube(self):
        inst = hypercube(3, laziness=0.4)
        P = inst.matrix.entries
        assert P[0, 0] == pytest.approx(0.4)
        assert P[0, 1] == pytest.approx(0.6 / 3.0)
        with pytest.raises(SpecParseError):
            hypercube(3, laziness=1.0)

    def test_cycle_and_complete(self):
        assert metric_data(cycle(10).matrix).diameter == 5
        P = complete_graph(6).matrix.entries
        assert np.allclose(P, (np.ones((6, 6)) - np.eye(6)) / 5.0)

    def test_birth_death_stationary(self):
        # pi(i) proportional to prod p/q = (p/q)^i.
        inst = birth_death([0.2, 0.2], [0.4, 0.4])
        pi = stationary(inst.matrix).probs
        expected = np.array([1.0, 0.5, 0.25])
        expected /= expected.sum()
        assert np.allclose(pi, expected, atol=1e-12)

    def test_birth_death_claims(self):
        # A bd chain carries no curvature label and no step law, and its
        # start set is every state.
        assert birth_death([0.3] * 4, [0.3] * 4).starts is None
        assert birth_death([0.6, 0.1], [0.6, 0.1]).matrix.step_law is None

    def test_birth_death_rejects_bad_rates(self):
        with pytest.raises(SpecParseError):
            birth_death([0.0, 0.3], [0.3, 0.3])
        with pytest.raises(SpecParseError):
            birth_death([0.7, 0.7], [0.5, 0.5])   # 0.7 + 0.5 > 1 at state 1
        with pytest.raises(SpecParseError):
            birth_death([0.3], [0.3, 0.3])

    def test_conjugacy_walk_transpositions(self):
        inst = conjugacy_walk(3)
        P = inst.matrix.entries
        assert P.shape == (6, 6)
        # Three transpositions in S_3, each with weight 1/3.
        assert sorted(set(np.round(P[0], 12))) == [0.0, pytest.approx(1 / 3)]
        assert np.allclose(P.sum(axis=0), 1.0)
        assert inst.transitive

    def test_conjugacy_walk_three_cycles(self):
        inst = conjugacy_walk(4, cls="3")
        # Eight 3-cycles in S_4.
        assert np.max(inst.matrix.entries) == pytest.approx(1.0 / 8.0)

    def test_conjugacy_walk_gates(self, monkeypatch):
        # S_k holds (k!)^2 dense entries: S_8 is past the default limit,
        # and at a limit of 24^2 S_4 is admitted and S_5 is not.  k < 2 is
        # a malformed spec.
        with pytest.raises(StateCapExceeded):
            conjugacy_walk(8)
        for k in (1, 0, -3):
            with pytest.raises(SpecParseError):
                conjugacy_walk(k)
        with pytest.raises(SpecParseError):
            conjugacy_walk(3, cls="4")
        monkeypatch.setattr(chain, "_KERNEL_BYTES", 40 * 24 ** 2)
        assert conjugacy_walk(4).matrix.n == 24
        with pytest.raises(StateCapExceeded):
            conjugacy_walk(5)

    @pytest.mark.parametrize("build", [
        lambda: hypercube(4), lambda: hypercube(4, laziness=0.3),
        lambda: cycle(8), lambda: complete_graph(6),
        lambda: abelian_cayley(GroupSpec((4, 3)), [1, -1, 3, -3])],
        ids=["hypercube", "lazy-hypercube", "cycle", "complete", "cayley"])
    def test_one_matrix_per_walk(self, monkeypatch, build):
        built = []

        class Counted(StochasticMatrix):
            def __post_init__(self, kernel):
                built.append(self)
                super().__post_init__(kernel)
        monkeypatch.setattr(families, "StochasticMatrix", Counted)
        build()
        assert len(built) == 1


class TestPerturbation:
    def test_rows_are_convex_combination(self):
        inst = hypercube(3)
        pert = perturb_toward_uniform(inst, 0.2)
        expected = 0.8 * inst.matrix.entries + 0.2 / 8.0
        assert np.allclose(pert.matrix.entries, expected, atol=1e-14)
        assert pert.transitive
        assert pert.matrix.step_law is not None

    def test_preserves_stationary_law(self):
        inst = birth_death([0.3, 0.2], [0.4, 0.4])
        pert = perturb_toward_uniform(inst, 0.3)
        assert np.allclose(stationary(pert.matrix).probs,
                           stationary(inst.matrix).probs, atol=1e-10)
        assert pert.matrix.step_law is None
        assert pert.params == {"theta": 0.3, "inner": "bd"}
        assert not pert.transitive

    def test_theta_bounds(self):
        inst = cycle(5)
        perturb_toward_uniform(inst, 0.0)
        perturb_toward_uniform(inst, 1.0)
        with pytest.raises(SpecParseError):
            perturb_toward_uniform(inst, -0.1)
        with pytest.raises(SpecParseError):
            perturb_toward_uniform(inst, 1.1)


class TestSpecGrammar:
    @pytest.mark.parametrize("text,family,n", [
        ("cayley:Z12xZ2:gens=2,-2,1,-1", "cayley", 24),
        ("cayley-random:Z2^8:d=16:seed=42", "cayley-random", 256),
        ("hypercube:d=4:lazy=0.0", "hypercube", 16),
        ("hypercube:d=4", "hypercube", 16),
        ("cycle:n=32", "cycle", 32),
        ("complete:n=50", "complete", 50),
        ("bd:p=0.3,0.3;q=0.4,0.4", "bd", 3),
        ("sym:k=4:class=transpositions", "sym", 24),
        ("perturb:theta=0.01:cycle:n=8", "perturb", 8),
    ])
    def test_round_trips(self, text, family, n):
        inst = parse_family_spec(text)
        assert inst.family == family
        assert inst.matrix.n == n

    def test_perturb_nests(self):
        inst = parse_family_spec("perturb:theta=0.5:hypercube:d=3")
        assert inst.params["theta"] == 0.5
        assert inst.params["inner"] == "hypercube"

    @pytest.mark.parametrize("text", [
        "", "unknown:n=3", "cycle", "cycle:m=3", "cycle:n=x",
        "cayley:Z6", "cayley:Z6:stuff=1", "bd:p=0.3", "bd:p=0.3;r=0.4",
        "perturb:alpha=0.1:cycle:n=8", "hypercube:d=4:lazy=2",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(SpecParseError):
            parse_family_spec(text)

    def test_non_generating_set_rejected(self):
        # In Z12 x Z2 the elements (0,1) and (2,1) only reach the
        # even-first-coordinate subgroup.
        with pytest.raises(NotGenerating):
            parse_family_spec("cayley:Z12xZ2:gens=1,-1,5,-5")

    def test_state_cap_flows_through(self):
        # hypercube:d=13 (8192 x 13 entries) is admitted; d=21 (2^21 x 21)
        # and sym:k=8 ((8!)^2) are refused.
        assert parse_family_spec("hypercube:d=13").matrix.n == 2 ** 13
        for text in ("hypercube:d=21", "sym:k=8"):
            with pytest.raises(StateCapExceeded):
                parse_family_spec(text)

    @pytest.mark.parametrize("text, key", [
        ("cayley:Z4:gens=1,-1:extra=2", "extra"),
        ("cayley-random:Z2^4:d=4:sed=3", "sed"),
        ("hypercube:d=3:lazzy=0.5", "lazzy"),
        ("cycle:n=5:m=3", "m"),
        ("complete:n=5:k=2", "k"),
        ("sym:k=4:klass=3", "klass"),
        ("perturb:theta=0.1:cycle:n=8:x=1", "x"),
    ], ids=["cayley", "cayley-random", "hypercube", "cycle", "complete",
            "sym", "perturb"])
    def test_rejects_unknown_key(self, text, key):
        # A misspelt key is refused by name, not dropped for its default.
        with pytest.raises(SpecParseError, match=f"unknown key '{key}'"):
            parse_family_spec(text)

    def test_range_expansion(self):
        members = parse_family_range("cycle:n=4..8..2")
        assert [v for v, _ in members] == [4, 6, 8]
        assert all(inst.matrix.n == v for v, inst in members)
        members = parse_family_range("hypercube:d=2..4")
        assert [v for v, _ in members] == [2, 3, 4]

    def test_range_rejects(self):
        with pytest.raises(SpecParseError):
            parse_family_range("cycle:n=8")
        with pytest.raises(SpecParseError):
            parse_family_range("cycle:n=8..4")
        with pytest.raises(SpecParseError):
            parse_family_range("cycle:n=4..8..0")
