import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (allowable_oracle, brute_s1, brute_s2, brute_schreier,
                      dual_lower_by_patterns, implicit_norm_oracle,
                      interval_partitions, successive_partitions,
                      tsirelson_table_01)
from schreierlab import spaces
from schreierlab.families import _cursor_start, _cursor_step
from schreierlab.ordinal import Ordinal
from schreierlab.ordinal import parse as parse_ordinal
from schreierlab.spaces import (C0, L1, Bounds, Derived, FsVector,
                                MixedTsirelson, Schlumprecht, SpaceError,
                                Tsirelson, assoc_norm, dual_assoc_norm,
                                dual_norm, minimax_admissible_cover, norm,
                                norm_n, parse_space, primal_from_dual,
                                space_mode)


def seeded_vector(rng, size, top):
    """A signed rational vector on `size` seeded points of 1..top."""
    return FsVector.from_pairs(
        (i, Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3)))
        for i in sorted(rng.sample(range(1, top + 1), size)))


T12 = Tsirelson(Ordinal.from_int(1), Fraction(1, 2))
T22 = Tsirelson(Ordinal.from_int(2), Fraction(1, 2))
MT12 = MixedTsirelson(((Ordinal.from_int(1), Fraction(1, 2)),
                       (Ordinal.from_int(2), Fraction(1, 4))))
NN_T12 = Derived(T12, ("nn", 2))
MEMBER = {0: lambda F: len(F) <= 1, 1: brute_s1, 2: brute_s2}
ALLOWABLE_ALPHAS = [parse_ordinal(a) for a in ("0", "1", "2", "w")]
# fixed signed rational vectors for the partition-DP oracles
VECTORS = [
    FsVector.from_pairs([(2, 1), (3, "-1/2"), (5, "3/4"), (6, 1)]),
    FsVector.from_pairs([(1, "1/4"), (2, 1), (3, 1), (4, -1), (5, 1)]),
    FsVector.from_pairs([(1, -1), (2, "1/4"), (4, "1/2"), (7, "-1/2"),
                         (8, 1), (10, "3/2")]),
    FsVector.from_pairs([(3, "1/2"), (4, -1), (5, "1/3"), (6, 2),
                         (8, "-3/4"), (9, "1/4"), (11, 1)]),
]

# signed vectors with support <= 8 inside {1..10}, where T(S_w), T(S_{w+1})
# and T(S_{w^2}) are checked exactly; on some of them T(S_w) and T(S_{w+1})
# differ (0 of the 127 indicators of {1..7} tell them apart)
LIMIT_VECTORS = VECTORS[:3] + [
    FsVector.from_pairs([(1, "-3/2"), (2, "-4/3"), (3, -4), (4, -3), (5, 2),
                         (7, "3/4"), (9, "1/4"), (10, -1)]),
    FsVector.from_pairs([(1, "1/3"), (2, -4), (3, "-1/4"), (4, "-1/2"),
                         (6, 2), (7, 2), (8, "3/4"), (10, "-3/2")]),
    FsVector.from_pairs([(2, "3/2"), (3, "-3/2"), (4, -3), (5, "1/4"),
                         (6, "-3/2"), (7, 3), (8, "2/3"), (9, "2/3")]),
    FsVector.from_pairs([(1, -4), (2, "3/2"), (4, "4/3"), (5, 3), (6, 4),
                         (8, -1), (9, -3)]),
    FsVector.from_pairs([(2, "4/3"), (3, "-2/3"), (5, -1), (7, "3/4"),
                         (8, "3/4"), (9, "-1/3")]),
]


@lru_cache(maxsize=None)
def limit_oracle(alpha, x):
    """T(S_alpha, 1/2) norm of x by the subset-recursion oracle."""
    a = parse_ordinal(alpha)
    return implicit_norm_oracle(
        x.entries, [(lambda F: brute_schreier(a, F), Fraction(1, 2))])


def small_vectors():
    entry = st.tuples(st.integers(1, 9),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.lists(entry, max_size=5).map(
        lambda pairs: FsVector.from_pairs(dict(pairs).items()))


# exact and float coefficients, zero included, for the vector-algebra oracle
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.floats(min_value=-3, max_value=3, allow_nan=False, width=32))


@st.composite
def vector_pairs(draw):
    """Two coefficient dicts whose supports are successive, interleaved,
    overlapping or partly cancelling; either may be empty."""
    layout = draw(st.sampled_from(
        ["successive", "interleaved", "overlapping", "cancelling"]))
    x = draw(st.dictionaries(st.integers(1, 8), COEFFS, max_size=6))
    if layout == "successive":
        shift = max(x, default=0) + draw(st.integers(0, 3))
        y = {i + shift: v for i, v in draw(st.dictionaries(
            st.integers(1, 8), COEFFS, max_size=6)).items()}
    elif layout == "interleaved":
        x = {2 * i - 1: v for i, v in x.items()}
        y = {2 * i: v for i, v in draw(st.dictionaries(
            st.integers(1, 8), COEFFS, max_size=6)).items()}
    elif layout == "overlapping":
        y = draw(st.dictionaries(st.integers(1, 8), COEFFS, max_size=6))
    else:
        y = {i: -v for i, v in x.items() if draw(st.booleans())}
        y.update(draw(st.dictionaries(st.integers(9, 12), COEFFS, max_size=2)))
    return x, y


def dict_oracle(pairs):
    """The vector a coefficient dict stands for: ints become Fractions,
    zeros are dropped."""
    exact = {i: Fraction(v) if isinstance(v, int) else v for i, v in pairs}
    return {i: v for i, v in exact.items() if v != 0}


def merge_oracle(x, y):
    out = dict(x)
    for i, v in y.items():
        out[i] = out.get(i, 0) + v
    return {i: v for i, v in out.items() if v != 0}


class TestFsVector:
    def test_validation(self):
        with pytest.raises(SpaceError):
            FsVector(((2, Fraction(1)), (1, Fraction(1))))
        with pytest.raises(SpaceError):
            FsVector(((1, Fraction(0)),))
        with pytest.raises(SpaceError):
            FsVector(((0, Fraction(1)),))

    def test_from_pairs_drops_zeros(self):
        x = FsVector.from_pairs([(3, 0), (1, "1/2")])
        assert x.entries == ((1, Fraction(1, 2)),)

    def test_algebra(self):
        x = FsVector.basis(1) + FsVector.basis(2).scale(Fraction(1, 2))
        y = x - FsVector.basis(1)
        assert y.entries == ((2, Fraction(1, 2)),)
        assert (x + y.scale(-1))[2] == 0

    def test_restrict_and_pair(self):
        x = FsVector.indicator([1, 2, 3, 5])
        # a pair of ints is an index set like any other, not an interval
        assert x.restrict((2, 5)).support == (2, 5)
        assert x.restrict([1, 5]).support == (1, 5)
        assert x.restrict(range(2, 6)).support == (2, 3, 5)
        assert x.pair(FsVector.basis(5)) == 1
        assert x.interval_support() == (1, 5)

    @given(small_vectors(), small_vectors())
    def test_pair_symmetric(self, x, y):
        assert x.pair(y) == y.pair(x)

    @given(vector_pairs())
    def test_algebra_against_dict_oracle(self, xy):
        px, py = xy
        x, y = FsVector.from_pairs(px.items()), FsVector.from_pairs(py.items())
        ox, oy = dict_oracle(px.items()), dict_oracle(py.items())
        minus_oy = {i: -v for i, v in oy.items()}
        for vec, want in ((x, ox), (y, oy), (x + y, merge_oracle(ox, oy)),
                          (x - y, merge_oracle(ox, minus_oy))):
            assert vec.support == tuple(sorted(want))
            assert dict(vec.entries) == want
            # exact values stay Fraction; a float anywhere makes a float
            assert [type(v) for _, v in vec.entries] == [
                type(want[i]) for i in vec.support]
            assert norm(C0(), vec) == max(map(abs, want.values()), default=0)
        if x.entries and y.entries and x.max_support() >= y.min_support():
            with pytest.raises(SpaceError):
                FsVector(x.entries + y.entries)

    def test_invalid_vectors_raise(self):
        with pytest.raises(SpaceError):
            FsVector.from_pairs([(2, 1), (2, "1/2")])
        with pytest.raises(SpaceError):
            FsVector.from_pairs([(1, 1j)])
        with pytest.raises(SpaceError):
            FsVector(((1, 0.0),))
        with pytest.raises(SpaceError):
            FsVector.average([])


class TestDescriptorParsing:
    @pytest.mark.parametrize("text", [
        "C0", "L1", "SCHL", "T(S(1),1/2)", "T(S(w+1),2/3)",
        "MT[(S(1),1/2),(S(2),1/4)]", "NN(T(S(1),1/2),3)",
        "ASSOC(C0,S(2),adm)", "ASSOC(T(S(1),1/2),S(1),allow)",
    ])
    def test_round_trip(self, text):
        sp = parse_space(text)
        assert parse_space(str(sp)) == sp

    @pytest.mark.parametrize("bad", ["", "T(S(1))", "T(S(1),2)", "X9",
                                     "ASSOC(C0,S(1),weird)", "C0junk",
                                     "MT[(Q(1),1/2)]", "MT[S(1),1/2]",
                                     "MT[((S(1),1/2))]", "T(S(1);1/2)",
                                     "MT[(S(1),2)]"])
    def test_rejects(self, bad):
        with pytest.raises(SpaceError):
            parse_space(bad)

    def test_tsirelson_is_the_one_level_mixed_space(self):
        # T(S_1,1/2) norms as MT[(S(1),1/2)], but the two descriptors stay
        # unequal values that print as they are written
        one = ((Ordinal.from_int(1), Fraction(1, 2)),)
        t, mt = Tsirelson(*one[0]), MixedTsirelson(one)
        assert isinstance(t, MixedTsirelson) and t == T12
        assert t != mt and mt != t
        assert (str(t), str(mt)) == ("T(S(1),1/2)", "MT[(S(1),1/2)]")
        assert parse_space(str(t)) == t and parse_space(str(mt)) == mt
        assert spaces._levels(t) == spaces._levels(mt) == one
        x = VECTORS[3]
        assert norm(t, x) == norm(mt, x)

    def test_constructors_coerce_their_levels(self):
        # an int alpha is read as an ordinal and an int or Fraction theta
        # as a Fraction; a float theta, a text alpha or no level is refused
        x = FsVector.from_pairs([(3, 1), (4, 1), (5, 1)])
        assert Tsirelson(1, Fraction(1, 2)) == T12
        assert norm(Tsirelson(1, Fraction(1, 2)), x) == Fraction(3, 2)
        assert MixedTsirelson(((1, Fraction(1, 2)),)).levels == T12.levels
        for alpha, theta in [(Ordinal.from_int(1), 0.5), ("1", Fraction(1, 2)),
                             (1, 1)]:
            with pytest.raises(SpaceError):
                Tsirelson(alpha, theta)
        with pytest.raises(SpaceError, match="^MT needs at least one level$"):
            MixedTsirelson(())

    def test_modes(self):
        assert space_mode(parse_space("SCHL")) == "float"
        assert space_mode(parse_space("NN(SCHL,2)")) == "float"
        assert space_mode(parse_space("T(S(1),1/2)")) == "exact"


class TestBaseNorms:
    def test_c0_l1(self):
        x = FsVector.from_pairs([(1, "1/2"), (4, "-2")])
        assert norm(C0(), x) == 2
        assert norm(L1(), x) == Fraction(5, 2)
        assert norm(C0(), FsVector()) == 0

    def test_c0_signs(self):
        negative = FsVector.from_pairs([(1, "-1/2"), (3, -3), (4, "-5/2")])
        mixed = FsVector.from_pairs([(2, "7/3"), (5, "-3"), (6, 1)])
        assert norm(C0(), negative) == 3
        assert norm(C0(), negative.scale(-1)) == 3
        assert norm(C0(), mixed) == 3
        assert norm(C0(), FsVector.from_pairs([(1, "-1/4")])) == Fraction(1, 4)

    @pytest.mark.parametrize("space", [42, None, "T"], ids=repr)
    def test_a_non_space_is_refused_by_name(self, space):
        # refused at the entry, for the zero vector too, before any engine
        # is built (a piece of a non-space would norm a non-space again)
        for x in (FsVector.basis(1), FsVector(), VECTORS[0]):
            with pytest.raises(SpaceError, match="^not a space: %s$"
                               % re.escape(repr(space))):
                norm(space, x)


class TestTsirelsonNorm:
    def test_hand_values(self):
        assert norm(T12, FsVector.basis(1)) == 1
        assert norm(T12, FsVector.basis(1) + FsVector.basis(2)) == 1
        assert norm(T12, FsVector.indicator([2, 3])) == 1
        assert norm(T12, FsVector.average([4, 5, 6, 7])) == Fraction(1, 2)
        assert norm(T12, FsVector.indicator([3, 4, 5, 6, 9])) == 2
        assert norm(T12, FsVector.indicator([2, 3, 4, 5])) == Fraction(3, 2)

    def test_against_fixed_point_table(self):
        table = tsirelson_table_01(6)
        for S, want in table.items():
            assert norm(T12, FsVector.indicator(S)) == want, S

    @given(small_vectors())
    def test_norm_axioms(self, x):
        v = norm(T12, x)
        assert v >= (max(abs(c) for c in x.values) if x.entries else 0)
        assert v <= sum(abs(c) for c in x.values)  # dominated by l1
        assert norm(T12, x.scale(-2)) == 2 * v
        flipped = FsVector(tuple((i, -c if i % 2 else c)
                                 for i, c in x.entries))
        assert norm(T12, flipped) == v  # 1-unconditional

    @given(small_vectors(), small_vectors())
    def test_triangle(self, x, y):
        assert norm(T12, x + y) <= norm(T12, x) + norm(T12, y)

    @given(small_vectors())
    def test_bimonotone(self, x):
        if not x.entries:
            return
        lo, hi = x.interval_support()
        for cut in range(lo, hi + 1):
            assert norm(T12, x.restrict(range(lo, cut + 1))) <= norm(T12, x)
            assert norm(T12, x.restrict(range(cut, hi + 1))) <= norm(T12, x)


class TestHigherAndMixed:
    @pytest.mark.parametrize("space,levels", [
        (T22, [(brute_s2, Fraction(1, 2))]),
        (MT12, [(brute_s1, Fraction(1, 2)), (brute_s2, Fraction(1, 4))]),
    ], ids=["T(S_2)", "MT"])
    def test_against_fixed_point_table(self, space, levels):
        # MT's levels share the evaluator's chain memo
        for S, want in tsirelson_table_01(7, levels).items():
            assert norm(space, FsVector.indicator(S)) == want, S

    def test_s2_space_sees_deeper_splits(self):
        T2 = Tsirelson(Ordinal.from_int(2), Fraction(1, 2))
        x = FsVector.indicator([2, 3, 4, 5])
        assert norm(T2, x) == 2  # {2,3},{4,5} blocks make it admissible
        assert norm(T12, x) == Fraction(3, 2)

    def test_mixed_is_max_over_levels(self):
        M = MixedTsirelson(((Ordinal.from_int(1), Fraction(1, 2)),
                            (Ordinal.from_int(2), Fraction(1, 4))))
        x = FsVector.indicator(range(3, 10))
        v = norm(M, x)
        assert v >= norm(T12, x)
        assert v == Fraction(5, 2)

    @pytest.mark.parametrize("alpha", ["w", "w+1", "w^2"])
    def test_limit_index_against_subset_oracle(self, alpha):
        space = Tsirelson(parse_ordinal(alpha), Fraction(1, 2))
        for x in LIMIT_VECTORS:
            assert norm(space, x) == limit_oracle(alpha, x), x

    def test_subset_oracle_tells_w_from_w_plus_1(self):
        assert any(limit_oracle("w", x) != limit_oracle("w+1", x)
                   for x in LIMIT_VECTORS)

    def test_schlumprecht_two_elements(self):
        S = Schlumprecht()
        v = norm(S, FsVector.indicator([1, 2]))
        assert v == pytest.approx(2 / math.log2(3))
        w = norm(S, FsVector.indicator([1, 2, 3, 4]))
        assert w >= 4 / math.log2(5) - 1e-12


class TestDerivedNorms:
    def test_norm_n_values(self):
        x = FsVector.average([4, 5, 6, 7])
        assert norm_n(T12, 1, x) == Fraction(1, 2)
        assert norm_n(T12, 2, x) == Fraction(5, 8)
        assert norm_n(T12, 4, x) == 1
        assert norm(Derived(T12, ("nn", 2)), x) == Fraction(5, 8)

    def test_norm_n_monotone_in_n(self):
        x = FsVector.from_pairs([(2, 1), (3, "-1/2"), (5, "3/4"), (6, 1)])
        vals = [norm_n(T12, n, x) for n in range(1, 6)]
        assert vals == sorted(vals)
        assert vals[0] == norm(T12, x)

    @pytest.mark.parametrize("space", [T12, MT12, C0()], ids=str)
    def test_derived_vs_brute_force(self, space):
        # oracle: sups over all families of successive subsets of supp x
        for x in VECTORS:
            norms = {}
            values = []
            for pieces in successive_partitions(x.support):
                for p in pieces:
                    if p not in norms:
                        norms[p] = norm(space, x.restrict(list(p)))
                values.append((pieces, sum(norms[p] for p in pieces)))
            for n in (1, 2, 3, 4):
                want = max(v for pieces, v in values if len(pieces) <= n)
                assert norm_n(space, n, x) == want, (x, n)
            for alpha, member in MEMBER.items():
                want = max(v for pieces, v in values
                           if member(tuple(p[0] for p in pieces)))
                assert assoc_norm(space, alpha, x) == want, (x, alpha)

    def test_assoc_vs_brute_force(self):
        # oracle: sup over all admissible families of successive subsets
        x = FsVector.from_pairs([(2, 1), (3, "1/2"), (4, "-1"), (6, "1/3")])
        best = norm(T12, x)
        for pieces in successive_partitions(x.support):
            if not brute_s1(tuple(p[0] for p in pieces)):
                continue
            v = sum(norm(T12, x.restrict(list(p))) for p in pieces)
            best = max(best, v)
        assert assoc_norm(T12, 1, x) == best

    def test_assoc_of_uniform_average(self):
        x = FsVector.average([4, 5, 6, 7])
        assert assoc_norm(T12, 1, x) == 1
        assert assoc_norm(T12, 1, x, "allowable") == 1
        assert norm(Derived(T12, ("assoc", Ordinal.from_int(1),
                                  "admissible")), x) == 1

    def test_assoc_eta_zero_degenerates(self):
        x = FsVector.from_pairs([(2, 1), (5, "-1/2")])
        assert assoc_norm(T12, 0, x) == norm(T12, x)

    def test_assoc_variant_is_checked_before_the_zero_shortcut(self):
        with pytest.raises(SpaceError,
                           match="^variant must be admissible or allowable$"):
            assoc_norm(T12, 1, FsVector(), "foo")

    def test_allowable_guard(self):
        x = FsVector.indicator(range(1, 22))
        with pytest.raises(SpaceError):
            assoc_norm(T12, 1, x, "allowable")

    @pytest.mark.parametrize("space,oracle", [
        (C0(), lambda pairs: max(abs(v) for _, v in pairs)),
        (L1(), lambda pairs: sum(abs(v) for _, v in pairs)),
        (T12, lambda pairs: implicit_norm_oracle(
            pairs, [(brute_s1, Fraction(1, 2))])),
        (T22, lambda pairs: implicit_norm_oracle(
            pairs, [(brute_s2, Fraction(1, 2))])),
        (MT12, lambda pairs: implicit_norm_oracle(
            pairs, [(brute_s1, Fraction(1, 2)), (brute_s2, Fraction(1, 4))]))],
        ids=["c0", "l1", "T1", "T2", "MT"])
    def test_allowable_against_brute_force(self, space, oracle):
        # disjoint pieces, not only successive ones, on seeded signed vectors
        rng = random.Random(17)
        for size in (1, 2, 3, 4, 5, 6, 6):
            x = FsVector.from_pairs(
                (i, Fraction(rng.choice([-1, 1]) * rng.randint(1, 4),
                             rng.randint(1, 3)))
                for i in sorted(rng.sample(range(1, 11), size)))
            for alpha in (0, 1, 2):
                want = allowable_oracle(x.entries, Ordinal.from_int(alpha),
                                        oracle)
                assert assoc_norm(space, alpha, x, "allowable") == want, (
                    x, alpha)

    @pytest.mark.parametrize("space,keep", [
        (Derived(T12, ("nn", 2)), lambda pieces: len(pieces) <= 2),
        (Derived(T12, ("assoc", Ordinal.from_int(1), "admissible")),
         lambda pieces: brute_s1(tuple(p[0] for p in pieces)))],
        ids=["NN", "ASSOC"])
    def test_allowable_of_derived_spaces_against_brute_force(self, space,
                                                             keep):
        # each piece normed by the sup over its successive subsets that
        # `keep` admits, with the subset oracle of T(S_1,1/2) on each
        t_norm = lru_cache(maxsize=None)(lambda pairs: implicit_norm_oracle(
            pairs, [(brute_s1, Fraction(1, 2))]))

        def oracle(pairs):
            x = dict(pairs)
            return max(sum(t_norm(tuple((i, x[i]) for i in p)) for p in pieces)
                       for pieces in successive_partitions(x) if keep(pieces))

        rng = random.Random(23)
        for size in (1, 2, 3, 4, 5, 6):
            x = seeded_vector(rng, size, 10)
            for alpha in ALLOWABLE_ALPHAS:
                assert assoc_norm(space, alpha, x, "allowable") == \
                    allowable_oracle(x.entries, alpha, oracle), (x, alpha)

    def test_allowable_schlumprecht_against_brute_force(self):
        # the subset oracle with one level per count of pieces k, of weight
        # 1/log2(k+1); float sums in another order may pick another
        # configuration, so the values agree to a relative 1e-12
        def oracle(pairs):
            return implicit_norm_oracle(pairs, [
                (lambda F, k=k: len(F) == k, 1 / math.log2(k + 1))
                for k in range(2, len(pairs) + 1)])

        rng = random.Random(29)
        for size in (1, 2, 3, 4, 5, 6):
            x = seeded_vector(rng, size, 10)
            for alpha in ALLOWABLE_ALPHAS:
                want = allowable_oracle(x.entries, alpha, oracle)
                assert assoc_norm(Schlumprecht(), alpha, x, "allowable") == \
                    pytest.approx(want, rel=1e-12), (x, alpha)

    @pytest.mark.parametrize("space,oracle,sizes", [
        (C0(), lambda pairs: max(abs(v) for _, v in pairs), (7, 8)),
        (L1(), lambda pairs: sum(abs(v) for _, v in pairs), (7, 8)),
        (T12, lambda pairs: implicit_norm_oracle(
            pairs, [(brute_s1, Fraction(1, 2))]), (7,))],
        ids=["c0", "l1", "T1"])
    def test_allowable_on_larger_supports_against_brute_force(
            self, space, oracle, sizes):
        # the oracle's piece norms are shared by the ordinals of one vector
        oracle = lru_cache(maxsize=None)(oracle)
        rng = random.Random(31)
        for size in sizes:
            x = seeded_vector(rng, size, 12)
            for alpha in ALLOWABLE_ALPHAS:
                want = allowable_oracle(x.entries, alpha,
                                        lambda pairs: oracle(tuple(pairs)))
                assert assoc_norm(space, alpha, x, "allowable") == want, (
                    x, alpha)

    @pytest.mark.parametrize("size", [9, 10])
    def test_allowable_l1_is_the_l1_norm_up_to_the_bound(self, size):
        # every point joins the piece of the least support point
        rng = random.Random(size)
        x = seeded_vector(rng, size, 20)
        for alpha in ALLOWABLE_ALPHAS:
            assert assoc_norm(L1(), alpha, x, "allowable") == sum(
                map(abs, x.values)), (x, alpha)

    def test_allowable_at_the_support_bound_is_pinned(self):
        # computed by the search that also tried every dropped point and
        # every S_1 set of minima, with its support bound lifted
        x = FsVector.from_pairs(
            (i, Fraction((-1) ** i * (1 + i % 4), 1 + i % 3))
            for i in range(6, 16))
        assert len(x.entries) == spaces.ALLOWABLE_SUPPORT_BOUND
        assert assoc_norm(T12, 1, x, "allowable") == Fraction(89, 6)


T1_23 = Tsirelson(Ordinal.from_int(1), Fraction(2, 3))
T1_37 = Tsirelson(Ordinal.from_int(1), Fraction(3, 7))
MT_COPRIME = MixedTsirelson(((Ordinal.from_int(1), Fraction(1, 2)),
                             (Ordinal.from_int(2), Fraction(1, 3))))
# signed vectors for the integer scaling: the first three have large,
# pairwise coprime prime denominators, the last powers of 3 and 7, the
# theta denominators of T1_23 and T1_37
COPRIME_VECTORS = [
    FsVector.from_pairs([(2, "5/7"), (3, "-11/13"), (4, "3/17"), (6, "19/23"),
                         (7, "-29/31")]),
    FsVector.from_pairs([(1, "-7/11"), (3, "13/19"), (4, "1/29"), (5, "-37/41"),
                         (8, "43/47"), (9, "2/53")]),
    FsVector.from_pairs([(3, "59/61"), (4, "-5/67"), (5, "71/73"),
                         (6, "-79/83"), (7, "89/97"), (8, "1/101"),
                         (10, "-103/107")]),
    FsVector.from_pairs([(2, "1/3"), (3, "2/7"), (4, "4/9"), (5, "8/49"),
                         (6, "16/27")]),
]


class TestScaledArithmetic:
    """The implicit norms run on ints over one common denominator; these
    cases have thetas with numerators above 1, coprime theta denominators
    and coefficients with large coprime denominators."""

    @pytest.mark.parametrize("space,levels", [
        (T1_23, [(brute_s1, Fraction(2, 3))]),
        (T1_37, [(brute_s1, Fraction(3, 7))]),
        (MT_COPRIME, [(brute_s1, Fraction(1, 2)), (brute_s2, Fraction(1, 3))]),
    ], ids=["T(S_1,2/3)", "T(S_1,3/7)", "MT(1/2,1/3)"])
    def test_norm_against_subset_oracle(self, space, levels):
        for x in COPRIME_VECTORS:
            assert norm(space, x) == implicit_norm_oracle(x.entries, levels), x

    def test_derived_norms_against_subset_oracle(self):
        # the sups over families of successive subsets of supp x, each
        # piece normed by the subset oracle
        levels = [(brute_s1, Fraction(2, 3))]
        for x in COPRIME_VECTORS:
            values = [(pieces, sum(implicit_norm_oracle(
                x.restrict(list(p)).entries, levels) for p in pieces))
                for pieces in successive_partitions(x.support)]
            for n in (1, 2, 3):
                want = max(v for pieces, v in values if len(pieces) <= n)
                assert norm_n(T1_23, n, x) == want, (x, n)
            for alpha, member in MEMBER.items():
                want = max(v for pieces, v in values
                           if member(tuple(p[0] for p in pieces)))
                assert assoc_norm(T1_23, alpha, x) == want, (x, alpha)

    def test_minimax_cover_against_subset_oracle(self):
        levels = [(brute_s1, Fraction(2, 3))]
        for x in COPRIME_VECTORS:
            sp = x.support
            P = len(sp)
            piece = {(i, j): implicit_norm_oracle(
                x.restrict(range(sp[i], sp[j] + 1)).entries, levels)
                for i in range(P) for j in range(i, P)}
            want = min(max(piece[p] for p in ps)
                       for ps in interval_partitions(0, P - 1)
                       if brute_s1(tuple(sp[i] for i, _ in ps)))
            assert minimax_admissible_cover(T1_23, x, 1) == want, x

    @pytest.mark.parametrize("space,levels", [
        (T1_23, [(brute_s1, Fraction(2, 3))]),
        (MT_COPRIME, [(brute_s1, Fraction(1, 2)), (brute_s2, Fraction(1, 3))]),
    ], ids=["T(S_1,2/3)", "MT(1/2,1/3)"])
    def test_one_segment_memo_for_many_vectors(self, monkeypatch, space,
                                               levels):
        # every interval restriction of every vector, normed as a sum of
        # its coordinate blocks by one block-sum scan, so over one Q and
        # one segment dict, in an order where shorter vectors come late
        xs = [x.restrict(range(x.support[i], x.support[j] + 1))
              for x in COPRIME_VECTORS for i in range(len(x.entries))
              for j in range(len(x.entries) - 1, i - 1, -1)]
        want = {x: implicit_norm_oracle(x.entries, levels) for x in xs}
        blocks = {p: FsVector((p,)) for x in xs for p in x.entries}
        k = max(len(x.entries) for x in xs)
        sums = spaces._BlockSums(space, blocks, k)
        for keys, v in sums.norms(x.entries for x in xs):
            assert sums.value(v) == want[FsVector(keys)], keys
        # a restriction's segments are segments of its vector, read back
        assert 0 < len(sums.segments) <= sum(
            len(x.entries) * (len(x.entries) + 1) // 2 for x in COPRIME_VECTORS)
        # capped segment values are cleared when full and give the same
        # values
        monkeypatch.setattr(spaces, "SEGMENT_MEMO_BOUND", 5)
        small = spaces._BlockSums(space, blocks, k)
        for keys, v in small.norms(x.entries for x in xs):
            assert small.value(v) == want[FsVector(keys)], keys
            assert len(small.segments) <= 5

    def test_no_segment_memo_where_vectors_keep_their_own(self):
        # only T and MT scans share segment values; c0 and l1 scans scale
        # by D alone, and the rest norm each sum with Q = 1
        blocks = {1: FsVector.from_pairs([(1, Fraction(1, 3)), (2, 2)])}
        floats = dict(blocks, f=FsVector.from_pairs([(3, 0.5)]))
        for space, bl in [(T12, floats), (Schlumprecht(), blocks),
                          (Derived(T12, ("nn", 2)), blocks)]:
            sums = spaces._BlockSums(space, bl, 4)
            assert (sums.ints, sums.Q, sums.segments) == (False, 1, None)
        for space in (C0(), L1()):
            sums = spaces._BlockSums(space, blocks, 4)
            assert (sums.ints, sums.Q, sums.segments) == (True, 3, None)
        assert spaces._BlockSums(T12, blocks, 4).Q == 3 * 2 ** 3
        assert spaces._BlockSums(T12, blocks, 100).Q == 3 * 2 ** 71
        assert spaces._BlockSums(T12, blocks, 4).segments == {}
        # no scan has a fractional Q, not even one of empty sums
        assert type(spaces._BlockSums(T12, blocks, 0).Q) is int
        assert spaces._BlockSums(T12, {}, 0).Q == 1

    @pytest.mark.parametrize("space", [
        T12, T22, MT12, T1_37, Derived(T12, ("nn", 2)),
        Derived(T1_23, ("assoc", Ordinal.from_int(1), "admissible"))], ids=str)
    def test_exact_spaces_return_fractions(self, space):
        # int coefficients too: the answer leaves as one Fraction
        for x in COPRIME_VECTORS + [FsVector(((1, 1), (2, 2), (3, 3)))]:
            assert type(norm(space, x)) is Fraction, (space, x)

    def test_minimax_cover_returns_a_fraction(self):
        x = FsVector(((1, 1), (2, 2), (3, 3)))
        assert type(minimax_admissible_cover(T1_37, x, 1)) is Fraction

    def test_schlumprecht_returns_floats(self):
        for x in COPRIME_VECTORS + [FsVector.basis(3)]:
            assert type(norm(Schlumprecht(), x)) is float, x

    def test_float_coefficients_keep_float_arithmetic(self):
        # pinned values from before the integer scaling; a float
        # coefficient keeps theta * v and the mixed result types
        x = FsVector.from_pairs([(2, 0.3), (3, 0.7), (4, 0.9), (5, 0.1),
                                 (6, 0.6)])
        assert [norm(T12, x), norm_n(T12, 2, x), assoc_norm(T12, 1, x),
                minimax_admissible_cover(T12, x, 1)] == [1.1, 1.6, 2.2, 0.9]
        y = FsVector.from_pairs([(2, 0.5), (3, "1/3"), (4, 0.25), (5, 1)])
        got = [norm(T12, y), norm_n(T12, 2, y), assoc_norm(T12, 1, y)]
        assert got == [1, 1.5, 1.5833333333333333]
        assert [type(v) for v in got] == [Fraction, float, float]


def dp_vector(k, shift):
    """A fixed signed rational vector of k points with gaps."""
    return FsVector.from_pairs(
        (2 + t + t // 3, Fraction((7 * t + shift) % 11 - 5 or 3, 1 + t % 4))
        for t in range(k))


class TestSplitMemo:
    """Admissible splits are a suffix maximum over chain starts, stored
    per (start, end, alpha)."""

    @pytest.mark.parametrize("space,k,shift,want", [
        (T12, 20, 0, (Fraction(115, 12), 208, 640)),
        (T12, 32, 1, (Fraction(733, 48), 526, 2789)),
        (T22, 32, 1, (Fraction(137, 6), 526, 3613)),
        (MT12, 32, 1, (Fraction(733, 48), 526, 3678)),
    ], ids=["T(S_1)-20", "T(S_1)-32", "T(S_2)-32", "MT-32"])
    def test_each_chain_start_is_cut_once(self, monkeypatch, space, k, shift,
                                          want):
        # the keys split_admissible hands to cut, with the level's alpha
        # (an MT space's levels can both reach the accept-all state); chain
        # hands each of its memo keys to cut once by itself
        cut = spaces._Evaluator.cut
        from_split = []

        def recording(self, l, state, j, best):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "split_admissible":
                from_split.append((caller.f_locals["alpha"], l, state, j))
            return cut(self, l, state, j, best)

        monkeypatch.setattr(spaces._Evaluator, "cut", recording)
        ev = spaces._Evaluator(space, dp_vector(k, shift))
        value = ev.unscale(ev.seg_norm(0, k - 1))
        assert len(set(from_split)) == len(from_split) > 0
        # the memo sizes the benchmark traces as seg_states/chain_states
        assert (value, len(ev._seg), len(ev._chain)) == want

    @pytest.mark.parametrize("space,levels", [
        (T12, [(brute_s1, Fraction(1, 2))]),
        (MT12, [(brute_s1, Fraction(1, 2)), (brute_s2, Fraction(1, 4))]),
    ], ids=["T(S_1,1/2)", "MT"])
    def test_restart_above_a_shared_segment(self, monkeypatch, space, levels):
        # the scan's shared values hold the middle block c as one segment
        # but none of its suffixes, as a clear at SEGMENT_MEMO_BOUND can
        # leave them; in a + c + d the split of a segment from a's last
        # point into c then passes c's first point, which stores no split,
        # and restarts from a stored start above it.  The best chain of
        # {2, 3, 4, 5} starts at 3, which allows a third piece
        blocks = {"a": FsVector.from_pairs([(1, "1/2"), (2, 1)]),
                  "c": FsVector.indicator([3, 4, 5]),
                  "d": FsVector.from_pairs([(6, "-1/3"), (7, 1)])}
        sums = spaces._BlockSums(space, blocks, 7)
        list(sums.norms([("c",)]))
        segments = sums.segments
        (whole,) = (key for key in segments if len(key) == 6)
        for key in [key for key in segments if key != whole]:
            del segments[key]
        split = spaces._Evaluator.split_admissible
        restarts, evaluators = [], {}

        def watching(self, i, j, alpha):
            above = [l for l in range(i + 1, j) if (l, j, alpha) in self._split]
            if above and (i + 1, j, alpha) not in self._split:
                restarts.append((self.sp[i], self.sp[above[0]], self.sp[j]))
            evaluators[id(self)] = self
            return split(self, i, j, alpha)

        monkeypatch.setattr(spaces._Evaluator, "split_admissible", watching)
        sums_of = [("a", "c", "d"), ("a", "c"), ("c", "d"), ("c",)]
        got = dict(sums.norms(sums_of))
        assert (2, 4, 5) in restarts
        for keys in sums_of:
            x = FsVector(tuple(itertools.chain.from_iterable(
                blocks[key].entries for key in keys)))
            assert sums.value(got[keys]) == norm(space, x) == \
                implicit_norm_oracle(x.entries, levels), keys
        # every segment value of every evaluator, the restarted ones too
        for ev in evaluators.values():
            for (i, j), v in ev._seg.items():
                pairs = [(ev.sp[t], ev.mags[t]) for t in range(i, j + 1)]
                assert v == implicit_norm_oracle(pairs, levels), (i, j)


def free_vectors():
    """Seeded signed rational vectors of 3 to 16 points, two from each
    of the minima 1, 5, 9 and 13: one of at most 8 points, one of more."""
    rng = random.Random(24)
    out = []
    for lo, small, large in zip((1, 5, 9, 13), (3, 5, 7, 8), (16, 13, 11, 9)):
        for k in (small, large):
            points = [lo]
            while len(points) < k:
                points.append(points[-1] + rng.randint(1, 2))
            out.append(FsVector.from_pairs(
                (p, Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                             rng.randint(1, 4))) for p in points))
    return out


FREE_SPACES = [Tsirelson(parse_ordinal(a), Fraction(1, 2))
               for a in ("1", "2", "w", "w+1", "w^2")] + [MT12]


class TestFreeChains:
    """From the cursor's accept-all state every partition is admissible,
    so the exact evaluator reads the best chain as a suffix sum of the
    magnitudes instead of cutting it."""

    @staticmethod
    def evaluators(monkeypatch, space, x, scan, loop):
        """The evaluators that norm x: one by `norm`, or with `scan` one
        for each sum of a run of x's successive blocks of 1 to 3 points
        in one _BlockSums scan.  With `loop` each has no prefix sums, so
        its FREE chains are cut like any other."""
        made = []

        class Recorded(spaces._Evaluator):
            def __init__(self, *args):
                super().__init__(*args)
                if loop:
                    self._pre = None
                made.append(self)

        with monkeypatch.context() as m:
            m.setattr(spaces, "_Evaluator", Recorded)
            if not scan:
                norm(space, x)
                return made
            sizes = itertools.cycle((1, 2, 3))
            blocks, rest = [], list(x.entries)
            while rest:
                size = next(sizes)
                blocks.append(FsVector(tuple(rest[:size])))
                rest = rest[size:]
            n = len(blocks)
            sums = spaces._BlockSums(space, dict(enumerate(blocks)),
                                     len(x.entries))
            list(sums.norms(tuple(range(a, b + 1)) for a in range(n)
                            for b in range(n - 1, a - 1, -1)))
        return made

    @pytest.mark.parametrize("space", FREE_SPACES, ids=str)
    def test_closed_form_matches_the_loop(self, monkeypatch, space):
        levels = [(lambda F, a=alpha: brute_schreier(a, F), theta)
                  for alpha, theta in spaces._levels(space)]
        oracle = {}
        chains = {True: 0, False: 0}
        for x in free_vectors():
            for scan in (False, True):
                runs = {loop: self.evaluators(monkeypatch, space, x, scan, loop)
                        for loop in (False, True)}
                assert len(runs[False]) == len(runs[True]) > 0
                for closed, looped in zip(runs[False], runs[True]):
                    assert closed._pre is not None and looped._pre is None
                    seg = looped._seg
                    for (i, j), v in closed._seg.items():
                        assert seg.get((i, j), v) == v, (x, scan, i, j)
                    for ev in (closed, looped):
                        chains[ev is looped] += len(ev._chain)
                        for (i, j), v in ev._seg.items():
                            assert v <= sum(ev.mags[i:j + 1]), (x, i, j)
                            if len(x.entries) > 8:
                                continue
                            pairs = tuple((ev.sp[t], ev.mags[t])
                                          for t in range(i, j + 1))
                            if pairs not in oracle:
                                oracle[pairs] = implicit_norm_oracle(pairs,
                                                                     levels)
                            assert v == oracle[pairs], (x, scan, i, j)
                    last = len(closed.sp) - 1
                    assert closed.seg_norm(0, last) == looped.seg_norm(0, last)
        # the closed form fires: the loop memoises chains it skips
        assert chains[False] < chains[True]

    def test_float_mode_keeps_the_loop(self):
        # a rounded float sum could differ in its low bits from the loop's
        rational = FsVector.from_pairs([(2, 1), (3, "1/2")])
        floats = FsVector.from_pairs([(2, 0.5), (3, "1/3")])
        assert spaces._Evaluator(T12, rational)._pre == [0, 4, 6]
        assert spaces._Evaluator(T12, floats)._pre is None
        assert spaces._Evaluator(Schlumprecht(), rational)._pre is None

    @pytest.mark.parametrize("space", FREE_SPACES, ids=str)
    def test_a_count_that_covers_the_support_reads_the_sum(self, space):
        # at most n >= |supp x| pieces leaves the budget FREE: the best
        # chain is all singletons, read without norming any segment
        for x in free_vectors():
            total = sum(abs(v) for v in x.values)
            for n in (len(x.entries), len(x.entries) + 3):
                assert norm_n(space, n, x) == total
                closed = spaces._partitions(space, x)
                looped = spaces._partitions(space, x)
                looped._pre = None
                last = len(x.entries) - 1
                assert closed.unscale(closed.at_most(n, 0, last)) == total
                assert closed._seg == {} and closed._chain == {}
                assert looped.unscale(looped.at_most(n, 0, last)) == total

    @pytest.mark.parametrize("pairs,want", [
        ([(1, 1), (2, 1)], 1.261859507142915),
        ([(4, "-2/3"), (5, -1), (11, "-1/2"), (12, "4/3"), (13, "1/3"),
          (14, -1), (15, "-5/3"), (17, "-2/3")], 2.277777777777778),
        ([(7, 1), (8, "-1/4"), (12, "-2/3"), (14, 1), (15, "5/3"),
          (17, "-5/2"), (20, "-2/3"), (22, "5/2"), (23, "2/3"), (24, "1/4")],
         3.446394630357186),
        ([(3, 1), (8, -1), (10, 1), (11, "5/4"), (13, "2/3"), (14, 1),
          (16, -3), (17, -3), (19, 1), (21, "3/4"), (25, 1), (26, -4)],
         5.215765871507903),
    ], ids=["2", "8", "10", "12"])
    def test_schlumprecht_values_are_pinned(self, pairs, want):
        # float values of the loop, bit for bit
        assert norm(Schlumprecht(), FsVector.from_pairs(pairs)) == want


class TestPartitionEngine:
    """The engine on its own, over seeded tables of integer piece values
    that need not grow with the piece (as dual lower ends past
    PATTERN_BOUND do not)."""

    def test_against_explicit_partitions(self):
        rng = random.Random(22)
        alphas = [parse_ordinal(a) for a in ("0", "1", "2", "w")]
        for _ in range(300):
            P = rng.randint(1, 9)
            sp = sorted(rng.sample(range(1, 13), P))
            table = {(i, j): rng.randint(0, 20)
                     for i in range(P) for j in range(i, P)}

            def piece(i, j):
                return table[i, j]

            def minima(ps):
                return tuple(sp[i] for i, _ in ps)

            def total(ps):
                return sum(table[p] for p in ps)

            tilings = list(interval_partitions(0, P - 1))
            dp = spaces._Partitions(sp, piece)
            for n in (1, 2, 3):
                want = max(total(ps) for ps in tilings if len(ps) <= n)
                assert dp.at_most(n, 0, P - 1) == want, (sp, table, n)
            for a in alphas:
                want = max(total(ps) for l in range(P)
                           for ps in interval_partitions(l, P - 1)
                           if brute_schreier(a, minima(ps)))
                assert dp.admissible(a, 0, P - 1) == want, (sp, table, a)
                cover = spaces._Cover(sp, piece)
                want = min(max(table[p] for p in ps) for ps in tilings
                           if brute_schreier(a, minima(ps)))
                got = min(cover.chain(0, s, P - 1)
                          for s in _cursor_start(a, sp[0], P - 1))
                assert got == want, (sp, table, a)

    @pytest.mark.parametrize("text", [
        "T(S(1),1/2)", "T(S(2),1/3)", "MT[(S(1),1/2),(S(2),1/4)]",
        "T(S(w),1/2)", "NN(T(S(1),1/2),2)", "ASSOC(T(S(1),1/2),S(1),adm)",
        "SCHL", "NN(C0,2)", "NN(NN(T(S(1),1/2),2),2)",
        "ASSOC(NN(T(S(1),1/2),3),S(1),adm)",
        "NN(ASSOC(T(S(1),1/2),S(1),allow),2)", "NN(SCHL,2)"])
    def test_pieces_of_an_indicator_are_interval_norms(self, text):
        # the norm of an interval of a vector is that vector's piece over
        # the interval: the units of an asymptoticity measurement are read
        # from one engine, and a derived space's pieces from its base's
        # one engine; exact values, and SCHL floats bit for bit
        space = parse_space(text)
        rng = random.Random(37)
        vectors = [FsVector.indicator(range(1, N + 1)) for N in range(1, 11)]
        vectors += [seeded_vector(rng, rng.randint(1, 9), 14)
                    for _ in range(8)]
        for x in vectors:
            dp = spaces._partitions(space, x)
            for a in range(len(x.entries)):
                for b in range(a, len(x.entries)):
                    want = norm(space, FsVector(x.entries[a:b + 1]))
                    got = dp.unscale(dp.piece(a, b))
                    assert got == want and type(got) is type(want), (x, a, b)


class TestCursor:
    @pytest.mark.parametrize("alpha", ["0", "1", "2", "3", "w", "w+1", "w*2",
                                       "w^2", "w^2*2", "w^3"])
    def test_language_is_schreier_membership(self, alpha):
        """The cursor fed F accepts exactly the members of S_alpha (from the
        definition, every split tried), with the exact count of elements
        still to come and with the looser count of universe points above
        the current one."""
        a = parse_ordinal(alpha)
        for r in range(1, 11):
            for F in itertools.combinations(range(1, 11), r):
                want = brute_schreier(a, F)
                for remaining in (lambda i: len(F) - 1 - i,
                                  lambda i: 10 - F[i]):
                    states = None
                    for i in range(len(F)):
                        states = _cursor_step(a, states, F[i], remaining(i))
                    assert bool(states) == want, (F, remaining(0))


class TestDuals:
    def test_exact_base_duals(self):
        phi = FsVector.from_pairs([(2, 1), (3, "-1/2")])
        b = dual_norm(C0(), phi)
        assert b.exact and b.lower == Fraction(3, 2)
        b = dual_norm(L1(), phi)
        assert b.exact and b.lower == 1

    def test_implicit_dual_bounds_contract(self):
        phi = FsVector.indicator([2, 3, 4])
        b = dual_norm(T12, phi)
        assert b.lower <= b.upper
        assert b.lower == 3  # witness e_2+e_3+e_4 has norm 1

    def test_dual_assoc_additive_for_c0(self):
        phi = FsVector.from_pairs([(1, "1/4"), (2, "1/4"), (5, "1/2")])
        b = dual_assoc_norm(C0(), phi, n=2)
        assert b.exact and b.lower == 1  # l1 mass is partition-invariant
        b = dual_assoc_norm(C0(), phi, alpha=1)
        assert b.exact and b.lower == 1

    @pytest.mark.parametrize("text", [
        "C0", "L1", "SCHL", "T(S(1),1/2)", "T(S(2),1/3)",
        "MT[(S(1),1/2),(S(2),1/4)]", "NN(T(S(1),1/2),2)",
        "ASSOC(T(S(1),1/2),S(1),adm)"])
    def test_lower_end_against_the_pattern_oracle(self, text):
        # oracle: each sign pattern normed on its own by norm; seeded
        # signed rationals on 1-10 points, and 13 points, past
        # PATTERN_BOUND (not in c0, whose lower end stays the exact sum
        # there); exact values, and floats (SCHL, float coefficients) bit
        # for bit
        space = parse_space(text)
        rng = random.Random(35)
        vectors = [seeded_vector(rng, size, 14) for size in range(1, 11)]
        if text != "C0":
            vectors.append(seeded_vector(rng, 13, 20))
        vectors.append(FsVector.from_pairs([(2, 0.1), (3, Fraction(-1, 3)),
                                            (5, 0.7), (6, -0.2), (9, 0.3)]))
        for phi in vectors:
            got = dual_norm(space, phi).lower
            want = dual_lower_by_patterns(space, phi)
            assert got == want and type(got) is type(want), phi

    def test_dual_assoc_vs_brute_force(self):
        # oracle: the partition classes of the DPs over the per-piece
        # bounds: at most two gap-free pieces from the first support
        # point (n = 2); S_1-admissible gap-free pieces of a tail
        for space, phi in itertools.product([T12, MT12, NN_T12], VECTORS):
            sp = phi.support
            P = len(sp)
            piece = {(i, j): dual_norm(space,
                                       phi.restrict(range(sp[i], sp[j] + 1)))
                     for i in range(P) for j in range(i, P)}
            by_n = dual_assoc_norm(space, phi, n=2)
            by_alpha = dual_assoc_norm(space, phi, alpha=1)
            for side in ("lower", "upper"):
                def total(parts):
                    return sum(getattr(piece[p], side) for p in parts)
                want = max(total(ps) for ps in interval_partitions(0, P - 1)
                           if len(ps) <= 2)
                assert getattr(by_n, side) == want, (space, phi, side)
                want = max(total(ps) for l in range(P)
                           for ps in interval_partitions(l, P - 1)
                           if brute_s1(tuple(sp[i] for i, _ in ps)))
                assert getattr(by_alpha, side) == want, (space, phi, side)

    @pytest.mark.parametrize("kw", [{"alpha": 1}, {"n": 2}],
                             ids=["alpha=1", "n=2"])
    def test_each_pattern_is_normed_once_per_call(self, kw, monkeypatch):
        # 8 points have 255 sign patterns; normed once for every piece
        # that holds them, they took 968 evaluators (alpha 1) and 749
        # (n = 2)
        built = []
        real = spaces._Evaluator.__init__

        def counted(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(spaces._Evaluator, "__init__", counted)
        phi = FsVector.from_pairs([(2, 1), (3, "-1/2"), (5, "3/4"), (6, 1),
                                   (7, "-2/3"), (9, "1/3"), (10, -2),
                                   (12, "5/2")])
        dual_assoc_norm(T12, phi, **kw)
        assert 0 < len(built) <= 255

    @pytest.fixture
    def partition_rules(self, monkeypatch):
        """The rule of each partition engine built from here on."""
        rules = []
        real = spaces._partitions

        def recorded(space, x, rule=None):
            rules.append(rule)
            return real(space, x, rule)

        monkeypatch.setattr(spaces, "_partitions", recorded)
        return rules

    def test_primal_builds_no_upper_end_program_outside_l1(self,
                                                           partition_rules):
        rules = partition_rules
        for space in (C0(), T12, MT12, NN_T12, Schlumprecht()):
            for kw in ({"n": 2}, {"alpha": 1}):
                primal_from_dual(space, VECTORS[2], **kw)
        assert spaces._dual_upper not in rules
        primal_from_dual(L1(), VECTORS[2], n=2)
        assert spaces._dual_upper in rules

    @pytest.mark.parametrize("text", [
        "C0", "SCHL", "T(S(1),1/2)", "MT[(S(1),1/2),(S(2),1/4)]",
        "NN(T(S(1),1/2),2)", "ASSOC(T(S(1),1/2),S(1),adm)"])
    def test_upper_end_shortcut_is_the_program(self, text, monkeypatch):
        # outside l1 the pieces' upper ends add up, so the whole support
        # is the best tiling: the same value, read without a program
        space = parse_space(text)
        real = spaces._partitions
        ends = [(n, None) for n in (1, 2, 3)] + [
            (None, parse_ordinal(a)) for a in ("0", "1", "2", "w")]
        for phi in VECTORS + [FsVector.from_pairs([(3, "-2/3")])]:
            for n, alpha in ends:
                dp = real(space, phi, spaces._dual_upper)
                last = len(phi.entries) - 1
                want = (dp.at_most(n, 0, last) if n
                        else dp.admissible(alpha, 0, last))
                with monkeypatch.context() as m:
                    m.setattr(spaces, "_partitions", None)
                    got = spaces._dual_assoc_end(space, phi, spaces._dual_upper,
                                                 n, alpha)
                assert got == want and type(got) is type(want), (phi, n, alpha)

    def test_l1_and_float_upper_ends_run_the_program(self, partition_rules):
        # l1 pieces are maxima, which do not add up; a float sum over a
        # split may round above the whole sum
        rules = partition_rules
        # two pieces: 3/2 (at 10) and 1 (at 1 or 8); the whole is 3/2
        assert dual_assoc_norm(L1(), VECTORS[2], n=2).upper == Fraction(5, 2)
        assert rules == [spaces._dual_upper] * 2  # l1's ends are both exact
        rules.clear()
        phi = FsVector.from_pairs([(2, 0.1), (3, 0.2), (4, 0.3)])
        primal_from_dual(T12, phi, n=2, candidates=[phi])
        assert rules.count(spaces._dual_upper) == 1

    def test_minimax_cover_vs_brute_force(self):
        # oracle: min over admissible gap-free covers from the first
        # support point of the largest piece norm
        for x in VECTORS:
            sp = x.support
            P = len(sp)
            piece = {(i, j): norm(T12, x.restrict(range(sp[i], sp[j] + 1)))
                     for i in range(P) for j in range(i, P)}
            for alpha in (1, 2):
                want = min(max(piece[p] for p in ps)
                           for ps in interval_partitions(0, P - 1)
                           if MEMBER[alpha](tuple(sp[i] for i, _ in ps)))
                assert minimax_admissible_cover(T12, x, alpha) == want, (x, alpha)

    def test_primal_from_dual_sandwich(self):
        x = FsVector.indicator([2, 3, 4])
        b = primal_from_dual(C0(), x, alpha=1)
        assert b.exact and b.lower == 1
        b2 = primal_from_dual(T12, x, n=2)
        assert b2.lower <= b2.upper
        assert b2.upper <= norm(T12, x)

    @pytest.mark.parametrize("bound", [dual_assoc_norm, primal_from_dual],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kw", [{}, {"n": 2, "alpha": 1}],
                             ids=["neither", "both"])
    def test_exactly_one_of_n_and_alpha(self, bound, kw):
        with pytest.raises(SpaceError, match="^give exactly one of n and alpha$"):
            bound(T12, FsVector.indicator([2, 3, 4]), **kw)

    @pytest.mark.parametrize("bound", [
        dual_assoc_norm, primal_from_dual,
        lambda space, x, n: norm_n(space, n, x)],
        ids=["dual_assoc_norm", "primal_from_dual", "norm_n"])
    def test_piece_count_below_one_is_refused(self, bound):
        # at most 0 pieces would allow any number of them
        phi = FsVector.from_pairs([(3, 1), (4, "1/2"), (6, -1)])
        for n in (0, -1):
            with pytest.raises(SpaceError,
                               match="^interval count must be >= 1$"):
                bound(T12, phi, n=n)

    def test_minimax_cover_of_zero_is_its_norm(self):
        assert minimax_admissible_cover(T12, FsVector(), 1) == 0
        assert minimax_admissible_cover(Schlumprecht(), FsVector(), 1) == 0.0

    def test_lower_end_collapses_past_pattern_bound(self):
        # past PATTERN_BOUND points the witnesses are the signed
        # coordinates: the lower end is max |phi_i| (24/7 at 12 points)
        phi = FsVector.indicator(range(3, 16))
        assert dual_norm(T12, phi) == Bounds(1, 13)
        lower = dual_norm(Schlumprecht(), phi).lower
        assert lower == 1 and isinstance(lower, float)
        # negative coordinates are witnesses too
        x = FsVector.indicator(range(3, 16), -1)
        assert primal_from_dual(T12, x, n=2) == Bounds(1, 4)

    @pytest.mark.parametrize("space", [C0(), L1(), T12, MT12], ids=str)
    def test_primal_lower_vs_tiling_oracle(self, space):
        # oracle: the best phi(x) / U(phi) over the sign patterns phi of x,
        # where U(phi) is the largest sum of per-piece upper ends (max
        # |phi_i| in l1, sum |phi_i| otherwise) over explicit interval
        # tilings of supp phi: at most n pieces from its first point, or
        # a dropped prefix and then pieces whose minima lie in S_alpha
        fold = max if isinstance(space, L1) else sum
        vectors = VECTORS[:3] + [FsVector.from_pairs([(3, "-2/3")]),
                                 FsVector.from_pairs([(2, 1), (5, "-1/2")])]
        for x in vectors:
            patterns = [{i: 1 if x[i] > 0 else -1 for i in S}
                        for r in range(1, len(x.support) + 1)
                        for S in itertools.combinations(x.support, r)]
            for kw in [{"n": n} for n in (1, 2, 3)] + [
                    {"alpha": a} for a in (0, 1, 2)]:
                want = 0
                for phi in patterns:
                    sp = sorted(phi)
                    P = len(sp)
                    if "n" in kw:
                        tilings = [ts for ts in interval_partitions(0, P - 1)
                                   if len(ts) <= kw["n"]]
                    else:
                        a = Ordinal.from_int(kw["alpha"])
                        tilings = [ts for l in range(P)
                                   for ts in interval_partitions(l, P - 1)
                                   if brute_schreier(a, tuple(sp[i] for i, _ in ts))]
                    upper = max(sum(fold(abs(phi[sp[m]]) for m in range(i, j + 1))
                                    for i, j in ts) for ts in tilings)
                    want = max(want, sum(phi[i] * x[i] for i in sp) / upper)
                assert primal_from_dual(space, x, **kw).lower == want, (x, kw)

    def test_primal_reads_only_the_upper_end(self):
        # 2**10 candidates, each one upper-end program; a lower end would
        # norm 2**|piece| sign patterns on every piece
        x = FsVector.indicator(range(3, 13), -1)
        t0 = time.perf_counter()
        assert primal_from_dual(T12, x, n=2) == Bounds(1, 3)
        assert time.perf_counter() - t0 < 3

    def test_bounds_arithmetic(self):
        a = Bounds(Fraction(1), Fraction(2))
        b = Bounds(Fraction(3), Fraction(3))
        assert b.exact and not a.exact
