import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (brute_bracket, brute_s1, brute_s2, brute_schreier,
                      escape_by_listing, tail_by_listing)
from schreierlab import families
from schreierlab.constructions import _repeated_average
from schreierlab.families import (Explicit, Family, FamilyError,
                                  ResourceBoundError, _cursor_step, _escape,
                                  _fold, _longest, _row, _walk, bracket,
                                  explicit_family, index_symbolic,
                                  parse_family, power, schreier,
                                  schreier_member, tail_domination)
from schreierlab.ordinal import parse as parse_ordinal


def subsets(universe, max_size=None):
    max_size = max_size or universe
    for r in range(0, max_size + 1):
        yield from itertools.combinations(range(1, universe + 1), r)


class TestSchreierMembership:
    def test_s1_closed_form(self):
        s1 = schreier(1)
        for F in subsets(12, 5):
            assert s1.member(F) == brute_s1(F), F

    def test_s2_decomposition_oracle(self):
        s2 = schreier(2)
        for F in subsets(10, 6):
            assert s2.member(F) == brute_s2(F), F

    def test_limit_family_uses_convention(self):
        # S_w: member iff F in S_n for some n <= min F
        sw = schreier(parse_ordinal("w"))
        assert sw.member((1,))
        assert sw.member((2, 3, 4))  # in S_2
        assert not sw.member((1, 2))  # only S_1 available, |F| > 1
        assert sw.member(())

    @pytest.mark.parametrize("alpha, F", [("w^3", tuple(range(9, 19))),
                                          ("w^2*2", tuple(range(15, 31)))])
    def test_deep_limit_membership(self, alpha, F):
        # at min F the fundamental sequences run through long chains of
        # successors, one nesting level each
        a = parse_ordinal(alpha)
        assert schreier_member(a, F) is brute_schreier(a, F) is True

    @pytest.mark.parametrize("alpha", ["1", "2", "w"])
    def test_enumerate_in_lexicographic_order(self, alpha):
        # a spreading scan's witness is the first failing member, so the
        # order itself is checked, not just the set
        a = parse_ordinal(alpha)
        want = sorted(F for F in subsets(10) if brute_schreier(a, F))
        assert schreier(a).enumerate(10) == want

    def test_enumerate_matches_member(self):
        fam = schreier(parse_ordinal("w+1"))
        members = set(fam.enumerate(9))
        for F in subsets(9, 6):
            assert (F in members) == fam.member(F)

    @given(st.integers(1, 8), st.data())
    def test_hereditary_and_spreading(self, n, data):
        s2 = schreier(2)
        members = [F for F in s2.enumerate(n) if F]
        if not members:
            return
        F = data.draw(st.sampled_from(members))
        i = data.draw(st.integers(0, len(F) - 1))
        assert s2.member(F[:i] + F[i + 1:])
        shifted = tuple(e + 1 for e in F)
        assert s2.member(shifted)


class TestMaximality:
    def test_examples(self):
        s1 = schreier(1)
        assert s1.is_maximal((2, 3), 10)
        assert not s1.is_maximal((2,), 10)
        # right extensions beyond the universe still count
        assert not s1.is_maximal((5, 6, 7), 8)

    def test_non_member_rejected(self):
        with pytest.raises(FamilyError):
            schreier(1).is_maximal((1, 2), 10)


class TestDerivative:
    def test_s1_iterated_closed_form(self):
        s1 = schreier(1)
        for k in range(1, 6):
            got = set(s1.iterated_derivative(k, 20).enumerate(20))
            want = {F for F in s1.enumerate(20)
                    if not F or len(F) + k <= F[0]}
            assert got == want, k

    def test_probes_skip_the_membership_cache(self):
        # each probe set lies far above the universe and is asked once,
        # so caching it would only fill schreier_member's cache
        fam = schreier(parse_ordinal("w+1"))
        before = schreier_member.cache_info().currsize
        kept = fam.iterated_derivative(1, 12).enumerate(12)
        assert schreier_member.cache_info().currsize == before
        assert kept == [F for F in fam.enumerate(12)
                        if fam.member(F + (100,))]

    def test_s0_dies_in_two_steps(self):
        s0 = schreier(0)
        d1 = s0.derivative(8)
        assert set(d1.enumerate(8)) == {()}
        d2 = d1.derivative(8)
        assert set(d2.enumerate(8)) == set()

    def test_explicit_fixed_point_is_representable(self):
        empty = explicit_family([], close=False)
        assert not empty.member(())
        assert empty.derivative(5).enumerate(5) == []

    def test_explicit_extension_beyond_universe_counts(self):
        # the listed set (30,) extends () although 30 lies far outside
        # the universe, so () is neither maximal nor dropped
        far = explicit_family([(30,)])
        assert not far.is_maximal((), 10)
        assert far.derivative(10).enumerate(10) == [()]
        assert far.iterated_derivative(2, 10).enumerate(10) == []
        near = explicit_family([(3,)])
        assert near.is_maximal((3,), 10)
        assert near.derivative(10).enumerate(10) == [()]

    @pytest.mark.parametrize("close", [False, True])
    def test_explicit_chains_are_derivatives_one_step_at_a_time(self, close):
        # oracle: one derivative keeps the listed sets inside the universe
        # that a listed set extends by one point on the right, and F is
        # maximal when no listed set adds one point to F, inside the
        # universe or on the right.  The sets are some of the prefixes of
        # a few drawn sets, so chains run long with links missing, and
        # points up to universe + 3 let extensions leave the universe
        def inside(sets, universe):
            return {F for F in sets if all(e <= universe for e in F)}

        def one_step(sets, universe):
            return {F for F in inside(sets, universe)
                    if any(len(G) == len(F) + 1 and G[:len(F)] == F
                           for G in sets)}

        rng = random.Random(27)
        for _ in range(150):
            universe = rng.randint(1, 8)
            drawn = [sorted(rng.sample(range(1, universe + 4),
                                       rng.randint(0, min(6, universe + 3))))
                     for _ in range(rng.randint(0, 12))]
            sets = {tuple(G[:i]) for G in drawn for i in range(len(G) + 1)
                    if rng.random() < 0.7}
            fam = explicit_family(sets, close=close)
            listed, stepped = set(fam.sets), fam
            for k in range(5):
                got = fam.iterated_derivative(k, universe)
                assert got.sets == inside(listed, universe), (sets, universe, k)
                assert got.enumerate(universe) == stepped.enumerate(universe)
                listed = one_step(listed, universe)
                stepped = stepped.derivative(universe)
            for F in fam.enumerate(universe):
                grown = [set(G) - set(F) for G in fam.sets
                         if len(G) == len(F) + 1 and set(F) < set(G)]
                assert fam.is_maximal(F, universe) == (not any(
                    max(g) <= universe or not F or max(g) > F[-1]
                    for g in grown)), (sets, universe, F)

    @pytest.mark.parametrize("text", ["S(1)", "POW(S(1),2)", "BR(S(1),S(2))",
                                      "EXPL[{1,2}]"])
    def test_negative_order_is_refused(self, text):
        # -1 was read as a probe of no points (cursor families, every
        # member kept) or as an extension by -1 points (explicit, none)
        fam = parse_family(text)
        with pytest.raises(FamilyError, match="derivative order must be >= 0, "
                                              "got -1"):
            fam.iterated_derivative(-1, 4)
        assert fam.iterated_derivative(0, 4).enumerate(4) == fam.enumerate(4)


class TestMaxMass:
    def test_explicit_beyond_enumeration_bound(self):
        # the listed sets are searched directly, so max F may exceed the
        # enumeration bound
        fam = explicit_family([(3, 30), (40,)])
        weights = {3: Fraction(1, 2), 30: Fraction(1, 3), 40: Fraction(2, 3),
                   50: Fraction(1)}
        assert fam.max_mass((3, 30, 40, 50), weights) == Fraction(5, 6)
        assert fam.max_mass((3, 40, 50), weights) == Fraction(2, 3)
        assert fam.max_mass((50,), weights) == 0

    def test_fold_past_the_recursion_limit(self):
        # the 889 points of the S_2 repeated averages from 7 overflowed the
        # recursive DP; the largest S_1 mass is one block's 1/7
        pairs = _repeated_average(parse_ordinal("2"), 7)
        F = tuple(m for m, _ in pairs)
        assert len(F) == 889
        assert schreier(1).max_mass(F, dict(pairs)) == Fraction(1, 7)

    @pytest.mark.parametrize("text", ["S(1)", "S(2)", "POW(S(1),2)"])
    def test_signed_weights(self, text):
        # a negative weight is skipped, and the empty member carries 0
        fam = parse_family(text)
        rng = random.Random(text)
        for _ in range(12):
            F = tuple(sorted(rng.sample(range(1, 10), rng.randint(1, 7))))
            weights = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for m in F}
            want = max(sum(weights[m] for m in G) for G in subsets(9)
                       if set(G) <= set(F) and brute_bracket(fam, G))
            assert fam.max_mass(F, weights) == want, (F, weights)


class TestSetSize:
    @pytest.mark.parametrize("text", ["1", "2", "3", "w", "w+1", "w*2"])
    def test_longest_is_the_repeated_average_length(self, text):
        # both follow the one block recursion; compared wherever the set
        # is small enough to build
        xi = parse_ordinal(text)
        sizes = [_longest(xi, s, 10 ** 6) for s in range(1, 10)]
        built = [(s, n) for s, n in enumerate(sizes, 1) if n <= 1024]
        assert built
        for s, n in built:
            assert n == len(_repeated_average(xi, s)), s

    def test_deep_descents_run_on_a_stack(self):
        # w^1000 at 1 descends a thousand limits to the point mass {1}
        deep = parse_ordinal("w^1000")
        assert _longest(deep, 1, 1025) == 1
        assert _repeated_average(deep, 1) == [(1, Fraction(1))]
        for text, m in [("w^3", 7), ("w^3*2", 6), ("w^4", 5), ("w^5", 4),
                        ("w^6", 3), ("w^8", 2)]:
            assert _longest(parse_ordinal(text), m, 1025) == 1025, text
        with pytest.raises(ResourceBoundError,
                           match=r"^ordinal terms sizing a run of S_w\^400 from 2: "
                           "100087 exceeds LONGEST_WORK_BOUND = 100000$"):
            _longest(parse_ordinal("w^400"), 2, 1025)


FOLD_FAMILIES = [kind % alpha for kind in ["S(%s)", "BR(S(1),S(%s))",
                                           "POW(S(%s),2)"]
                 for alpha in ["0", "1", "2", "w", "w+1"]]


def fold_point_sets(text):
    """Consecutive and seeded point sets of 0 to 16 points."""
    rng = random.Random(text)
    for N in (0, 1, 6, 11, 16):
        yield range(1, N + 1)
        yield tuple(sorted(rng.sample(range(1, 30), N)))


class TestFold:
    """families._fold against _walk, the listing over the same table."""

    @pytest.mark.parametrize("text", FOLD_FAMILIES)
    def test_against_the_listing(self, text):
        fam = parse_family(text)
        rng = random.Random(text)
        for points in fold_point_sets(text):
            values = [rng.randint(-9, 9) for _ in points]
            mass = dict(zip(points, values))
            members = list(_walk(fam._key, points))
            assert _fold(fam, points, values) == (
                max((sum(map(mass.get, G)) for G in members), default=None),
                len(members), max(map(len, members), default=0)), points

    @pytest.mark.parametrize("text", FOLD_FAMILIES)
    def test_rows_are_the_readable_positions(self, text):
        # a row stops at the first position it cannot read; probing every
        # position and dropping the empty steps gives the same row, on
        # every pair of the table
        key = parse_family(text)._key
        for points in fold_point_sets(text):
            last, seen, todo = len(points) - 1, set(), [(None, 0)]
            while todo:
                states, i = todo.pop()
                probed = [(nxt, j + 1) for j in range(last, i - 1, -1)
                          for nxt in [_cursor_step(key, states, points[j],
                                                   last - j)] if nxt]
                assert _row(key, points, states, i) == probed, (points, i)
                todo += [pair for pair in probed if pair not in seen]
                seen.update(probed)

    def test_rows_are_sized_before_they_are_built(self, monkeypatch):
        # the bound is exact: at the cells a fold probes it answers, and
        # one below it the last row that probes any is refused unbuilt,
        # with the cells the fold would have reached
        built, row = [], families._row

        def recording(key, points, states, i):
            built.append((states, i))
            return row(key, points, states, i)

        monkeypatch.setattr(families, "_row", recording)
        fam, points = parse_family("S(w+1)"), range(1, 21)
        want = _fold(fam, points, points)
        rows, cells = list(built), sum(len(points) - i for _, i in built)
        monkeypatch.setattr(families, "FOLD_CELL_BOUND", cells)
        built.clear()
        assert _fold(fam, points, points) == want
        monkeypatch.setattr(families, "FOLD_CELL_BOUND", cells - 1)
        built.clear()
        with pytest.raises(ResourceBoundError) as refused:
            _fold(fam, points, points)
        # the rows before the refused one were built, and after it come
        # only rows at the end of the points, which probe no cell
        assert built == rows[:len(built)]
        (_, i), *after = rows[len(built):]
        assert i < len(points) and all(j == len(points) for _, j in after)
        assert str(refused.value) == (
            "walk-table cells folding S(w+1) over 20 points: %d exceeds "
            "FOLD_CELL_BOUND = %d" % (cells, cells - 1))


class TestBracketAndPower:
    def test_power_is_iterated_bracket(self):
        p2 = power(schreier(1), 2)
        b = bracket(schreier(1), schreier(1))
        for F in subsets(7, 5):
            assert p2.member(F) == b.member(F)

    def test_power_one_is_base(self):
        p1 = power(schreier(2), 1)
        for F in subsets(7, 5):
            assert p1.member(F) == schreier(2).member(F)


class TestBracketOracle:
    """The bracket cursor against conftest.brute_bracket, which tries every
    split into runs and every witness."""

    DESCRIPTORS = ["BR(S(1),S(1))", "BR(S(1),S(2))", "BR(S(2),S(1))",
                   "BR(S(0),S(1))", "POW(S(1),2)", "POW(S(1),3)",
                   "POW(S(2),2)", "POW(S(0),3)", "BR(S(2),POW(S(1),2))",
                   "BR(S(w+1),S(w))"]
    ALL = list(subsets(10))

    @pytest.mark.parametrize("text", DESCRIPTORS)
    def test_member_and_enumerate(self, text):
        fam = parse_family(text)
        want = [F for F in self.ALL if brute_bracket(fam, F)]
        assert [F for F in self.ALL if fam.member(F)] == want
        assert fam.enumerate(10) == sorted(want)

    # brute_bracket reads S(a) through conftest.brute_schreier
    @pytest.mark.parametrize("text", ["POW(S(1),2)", "BR(S(1),S(2))",
                                      "BR(S(w+1),S(w))", "S(1)", "S(2)",
                                      "S(w)"])
    def test_max_mass(self, text):
        fam = parse_family(text)
        rng = random.Random(text)
        for _ in range(12):
            F = tuple(sorted(rng.sample(range(1, 11), rng.randint(1, 8))))
            weights = {m: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                       for m in F}
            want = max(sum(weights[m] for m in G) for G in subsets(10)
                       if set(G) <= set(F) and brute_bracket(fam, G))
            assert fam.max_mass(F, weights) == want, F

    @pytest.mark.parametrize("text, k", [("POW(S(1),2)", 1), ("POW(S(1),2)", 2),
                                         ("POW(S(1),2)", 3), ("BR(S(1),S(2))", 2),
                                         ("BR(S(w+1),S(w))", 2)])
    def test_iterated_derivative(self, text, k):
        # a member survives k steps when k points far above the universe
        # extend it; the family is spreading, so farther points do no worse
        fam = parse_family(text)
        probe = tuple(range(20, 20 + k))
        got = fam.iterated_derivative(k, 8).enumerate(8)
        want = [F for F in subsets(8) if brute_bracket(fam, F + probe)]
        assert sorted(got) == sorted(want)

    def test_power_two_derivative_keeps_late_sets(self):
        got = set(power(schreier(1), 2).iterated_derivative(2, 10).enumerate(10))
        assert len(got) == 420 and (2, 3, 4, 10) in got

    def test_high_powers_on_short_sets(self):
        # levels beyond the set size change nothing, so the cursor keeps
        # at most |F| of the 500 and stays inside the recursion limit
        high = parse_family("POW(S(1),40)")
        for F in subsets(8, 5):
            want = brute_bracket(high, F)
            assert high.member(F) == power(schreier(1), 500).member(F) == want, F

    def test_power_levels_past_bound_are_a_resource_bound(self):
        # each power level the cursor keeps nests its recursion once more
        with pytest.raises(ResourceBoundError,
                           match="^power levels: 205 exceeds POWER_BOUND = 100$"):
            parse_family("POW(S(1),100000)").member(tuple(range(5, 210)))

    def test_power_levels_at_bound_answer(self):
        fam = parse_family("POW(S(1),100)")
        assert fam.member(tuple(range(5, 105)))
        assert not fam.member(tuple(range(1, 101)))

    def test_nested_power_levels_add_up(self):
        # nested powers nest their levels one inside the other, so the
        # bound applies to their sum
        with pytest.raises(ResourceBoundError,
                           match="^power levels: 300 exceeds POWER_BOUND = 100$"):
            parse_family("POW(POW(POW(S(1),100),100),100)").member(
                tuple(range(1, 200)))

    def test_nested_powers_on_short_sets_answer(self):
        nested = parse_family("POW(POW(S(1),100),100)")
        for F in subsets(7, 4):
            assert nested.member(F) == brute_bracket(nested, F), F
        # 40 + 40 levels on 40 points
        assert nested.member(tuple(range(5, 45)))
        high = parse_family("POW(S(1),100000)")
        assert high.member(tuple(range(5, 45)))
        assert not high.member(tuple(range(1, 40)))

    def test_explicit_operands_refused(self):
        # an explicit family has no cursor key for the bracket to read; a
        # power of order 0 is refused for its order first
        expl = explicit_family([(2, 3)])
        refusal = "brackets and powers need regular \\(non-explicit\\) families"
        for build in (lambda: bracket(expl, schreier(1)),
                      lambda: bracket(schreier(1), expl),
                      lambda: power(expl, 2), lambda: power(expl, 1)):
            with pytest.raises(FamilyError, match=refusal):
                build()
        with pytest.raises(FamilyError, match="power must be >= 1"):
            power(expl, 0)


class TestIndex:
    def test_schreier_indices(self):
        assert str(index_symbolic(schreier(1))) == "w^(1)"
        assert str(index_symbolic(schreier(2))) == "w^(2)"
        assert str(index_symbolic(schreier(0))) == "1"

    def test_power_index(self):
        p = power(schreier(2), 3)
        assert str(index_symbolic(p)) == "w^(6)"

    def test_explicit_has_no_symbolic_index(self):
        with pytest.raises(FamilyError):
            index_symbolic(explicit_family([(1,)]))


def tail_oracle(in_A, in_B, universe):
    """Least n0 <= universe with every member of B inside {1..universe}
    whose minimum is >= n0 lying in A, checked n0 by n0 over all
    subsets; None if there is none."""
    members = [F for F in subsets(universe) if F and in_B(F)]
    for n0 in range(1, universe + 1):
        if all(in_A(F) for F in members if F[0] >= n0):
            return n0
    return None


class TestTailDomination:
    def test_subfamily_dominated_everywhere(self):
        assert tail_domination(schreier(2), schreier(1), 12) == 1

    def test_s1_absorbs_s2_tail(self):
        # within {1..12}: an S_2 set with min >= 7 has at most 6 elements
        # and is already in S_1, while {6,...,12} witnesses n0 > 6
        n0 = tail_domination(schreier(1), schreier(2), 12)
        assert n0 == 7
        s1, s2 = schreier(1), schreier(2)
        assert s2.member((6, 7, 8, 9, 10, 11, 12))
        assert not s1.member((6, 7, 8, 9, 10, 11, 12))
        for F in s2.enumerate(12):
            if F and F[0] >= 7:
                assert s1.member(F)

    @pytest.mark.parametrize("a,b", [("0", "1"), ("1", "0"), ("1", "2"),
                                     ("2", "1"), ("0", "2"), ("1", "w"),
                                     ("w", "1"), ("2", "w"), ("w", "2")])
    @pytest.mark.parametrize("universe", [6, 8, 10])
    def test_against_definition(self, a, b, universe):
        A, B = parse_ordinal(a), parse_ordinal(b)
        want = tail_oracle(lambda F: brute_schreier(A, F),
                           lambda F: brute_schreier(B, F), universe)
        assert tail_domination(schreier(A), schreier(B), universe) == want

    def test_none_when_the_last_singleton_escapes(self):
        # every singleton is in S_0, but only subsets of {1,2,3} are in A
        A = explicit_family([(1, 2, 3)])
        want = tail_oracle(lambda F: set(F) <= {1, 2, 3},
                           lambda F: brute_schreier(parse_ordinal("0"), F), 5)
        assert want is None
        assert tail_domination(A, schreier(0), 5) is None


class TestEscape:
    """families._escape and tail_domination against the listings they
    replace (conftest)."""

    @pytest.mark.parametrize("b", FOLD_FAMILIES)
    def test_tail_against_the_listing(self, b):
        B = parse_family(b)
        for universe in (0, 5, 10, 16):
            for a in FOLD_FAMILIES:
                A = parse_family(a)
                assert tail_domination(A, B, universe) == tail_by_listing(
                    A, B, universe), (a, universe)

    @pytest.mark.parametrize("text", FOLD_FAMILIES)
    def test_powers_against_the_listing(self, text):
        fam = parse_family(text)
        for universe in (4, 8, 12):
            for a in ("0", "1", "2", "w"):
                for n in range(1, 7):
                    other = power(schreier(parse_ordinal(a)), n)
                    assert _escape(fam, other, range(1, universe + 1)) == (
                        escape_by_listing(fam, other, universe)), (a, n)

    def test_past_the_universe_bound_is_refused(self):
        # the walk lists no member, but its universe keeps the listing's cap
        with pytest.raises(ResourceBoundError, match="ENUMERATION_BOUND"):
            tail_domination(schreier(1), schreier(2), 25)


class TestRegularity:
    def test_schreier_families_regular(self):
        for a in ("1", "2", "w"):
            rep = schreier(parse_ordinal(a)).check_regular(8)
            assert rep.hereditary and rep.spreading
            assert rep.compactness == "not evaluated"

    def test_counterexample_reported(self):
        fam = explicit_family([(1, 2)], close=False)
        rep = fam.check_regular(4)
        assert not rep.hereditary
        assert rep.counterexamples["hereditary"]


class TestDescriptorGrammar:
    # each descriptor with the family its constructors build and its print
    BUILT = {
        "S(1)": (lambda: schreier(1), "S(1)"),
        "S(w^2+3)": (lambda: schreier(parse_ordinal("w^2+3")), "S(w^2+3)"),
        "BR(S(1),S(2))": (lambda: bracket(schreier(1), schreier(2)),
                          "BR(S(1),S(2))"),
        "POW(S(1),3)": (lambda: power(schreier(1), 3), "POW(S(1),3)"),
        "POW(BR(S(1),POW(S(w),2)),2)": (
            lambda: power(bracket(schreier(1),
                                  power(schreier(parse_ordinal("w")), 2)), 2),
            "POW(BR(S(1),POW(S(w),2)),2)"),
        "POW(S(2),1)": (lambda: power(schreier(2), 1), "POW(S(2),1)"),
        "EXPL[{1,2},{3}]": (lambda: explicit_family([(1, 2), (3,)]),
                            "EXPL[{1},{1,2},{2},{3}]"),
    }

    @pytest.mark.parametrize("text", list(BUILT))
    def test_round_trip(self, text):
        # a parsed family is the value its constructors build: equal, with
        # equal hashes, and printed back to a descriptor of itself
        build, printed = self.BUILT[text]
        fam = parse_family(text)
        assert fam == build() and hash(fam) == hash(build())
        assert str(fam) == printed
        again = parse_family(str(fam))
        assert again == fam and hash(again) == hash(fam)
        if isinstance(fam, Explicit):
            with pytest.raises(FamilyError, match="regular"):
                fam._key
        else:
            assert fam._key is not None

    def test_explicit_parse_closes_hereditarily(self):
        fam = parse_family("EXPL[{1,2}]")
        assert fam.member((1,)) and fam.member((2,)) and fam.member(())

    @pytest.mark.parametrize("bad", ["S(", "FOO(1)", "S(1)x", "BR(S(1))",
                                     "EXPL[1,2]", "EXPL[{1,,2}]",
                                     "EXPL[}{1]", "EXPL[{{1}}]"])
    def test_rejects(self, bad):
        with pytest.raises(FamilyError):
            parse_family(bad)

    def test_resource_bound(self):
        with pytest.raises(ResourceBoundError) as refused:
            schreier(1).enumerate(99)
        exc = refused.value
        assert (exc.what, exc.amount, exc.bound, exc.limit) == (
            "universe", 99, "ENUMERATION_BOUND", 24)
        assert str(exc) == "universe: 99 exceeds ENUMERATION_BOUND = 24"
