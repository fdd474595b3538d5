import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (brute_s1, brute_s2, brute_schreier,
                      implicit_norm_oracle, interval_partitions,
                      successive_partitions, tsirelson_table_01)
from schreierlab.families import _cursor_step
from schreierlab.ordinal import Ordinal
from schreierlab.ordinal import parse as parse_ordinal
from schreierlab.spaces import (C0, L1, Bounds, Derived, FsVector,
                                MixedTsirelson, Schlumprecht, SpaceError,
                                Tsirelson, assoc_norm, dual_assoc_norm,
                                dual_norm, minimax_admissible_cover, norm,
                                norm_n, parse_space, primal_from_dual,
                                space_mode)

T12 = Tsirelson(Ordinal.from_int(1), Fraction(1, 2))
T22 = Tsirelson(Ordinal.from_int(2), Fraction(1, 2))
MT12 = MixedTsirelson(((Ordinal.from_int(1), Fraction(1, 2)),
                       (Ordinal.from_int(2), Fraction(1, 4))))
MEMBER = {0: lambda F: len(F) <= 1, 1: brute_s1, 2: brute_s2}
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
        x = FsVector.indicator([1, 2, 5])
        assert x.restrict((2, 5)).support == (2, 5)
        assert x.restrict([1, 5]).support == (1, 5)
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
                                     "ASSOC(C0,S(1),weird)", "C0junk"])
    def test_rejects(self, bad):
        with pytest.raises(SpaceError):
            parse_space(bad)

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
            assert norm(T12, x.restrict((lo, cut))) <= norm(T12, x)
            assert norm(T12, x.restrict((cut, hi))) <= norm(T12, x)


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
            v = sum(norm(T12, x.restrict(p)) for p in pieces)
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

    def test_allowable_guard(self):
        x = FsVector.indicator(range(1, 22))
        with pytest.raises(SpaceError):
            assoc_norm(T12, 1, x, "allowable")


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

    def test_dual_assoc_vs_brute_force(self):
        # oracle: the partition classes of the DPs over the per-piece
        # bounds: at most two gap-free pieces from the first support
        # point (n = 2); S_1-admissible gap-free pieces of a tail
        for phi in VECTORS:
            sp = phi.support
            P = len(sp)
            piece = {(i, j): dual_norm(T12, phi.restrict((sp[i], sp[j])))
                     for i in range(P) for j in range(i, P)}
            by_n = dual_assoc_norm(T12, phi, n=2)
            by_alpha = dual_assoc_norm(T12, phi, alpha=1)
            for side in ("lower", "upper"):
                def total(parts):
                    return sum(getattr(piece[p], side) for p in parts)
                want = max(total(ps) for ps in interval_partitions(0, P - 1)
                           if len(ps) <= 2)
                assert getattr(by_n, side) == want, (phi, side)
                want = max(total(ps) for l in range(P)
                           for ps in interval_partitions(l, P - 1)
                           if brute_s1(tuple(sp[i] for i, _ in ps)))
                assert getattr(by_alpha, side) == want, (phi, side)

    def test_minimax_cover_vs_brute_force(self):
        # oracle: min over admissible gap-free covers from the first
        # support point of the largest piece norm
        for x in VECTORS:
            sp = x.support
            P = len(sp)
            piece = {(i, j): norm(T12, x.restrict((sp[i], sp[j])))
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

    def test_bounds_arithmetic(self):
        a = Bounds(Fraction(1), Fraction(2))
        b = Bounds(Fraction(3), Fraction(3))
        assert (a + b).lower == 4 and (a + b).upper == 5
        assert b.exact and not a.exact
