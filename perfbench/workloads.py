"""Seeded op lists of the three workloads, with a correctness check per op.

An op is one call to a public function of ``schreierlab``.  Calls look
the function up on its module (or class) when they run, so the tracer's
rebinding is seen.  The seed only fills in inputs inside fixed strata
(space, support size, minimum, universe), because the strata decide
nearly all of an op's work; that keeps the figures of different seeds
comparable.  Every check uses :mod:`oracles`, closed forms or invariants,
never the library's own dynamic programs.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

from schreierlab import cli, constructions, families, spaces, trees
from schreierlab.ordinal import Ordinal

HALF = Fraction(1, 2)
T1_DESC = "T(S(1),1/2)"


@dataclass
class Op:
    label: str
    call: object          # () -> result
    check: object         # outcome (result or exception) -> problem or None
    known_failure: str = ""  # exception type of a documented failure


def canonical(outcome):
    """Deterministic text of an op's exact outcome, for the digests.
    A RecursionError's message depends on the stack depth it was hit at,
    which the tracer's wrappers change, so only its type is kept."""
    if isinstance(outcome, RecursionError):
        return "raise RecursionError"
    if isinstance(outcome, Exception):
        return "raise %s: %s" % (type(outcome).__name__, outcome)
    return repr(outcome)


def _returns(check):
    """Adapt a check on a result into a check on any outcome."""
    def run(outcome):
        if isinstance(outcome, Exception):
            return "raised %s: %s" % (type(outcome).__name__, outcome)
        return check(outcome)
    return run


def _vec(pairs):
    return spaces.FsVector.from_pairs(pairs)


def _coefficients(rng, support):
    pairs = []
    for i in support:
        num = rng.choice((-1, 1)) * rng.randint(1, 9)
        pairs.append((i, Fraction(num, rng.randint(1, 9))))
    return pairs


def _support(lo, size):
    """size points from lo upwards; every third gap is 2 wide.  Supports are
    fixed per stratum: the points, not the coefficients, decide the work of
    the cursor-driven programs, so seeds vary only the coefficients."""
    out = [lo]
    for k in range(1, size):
        out.append(out[-1] + (2 if k % 3 == 0 else 1))
    return out


# ---------------------------------------------------------------------------
# implicit-norms
# ---------------------------------------------------------------------------

MT_DESC = "MT[(S(1),1/2),(S(2),1/4)]"
LEVELS = {
    "T(S(1),1/2)": [(oracles.member_fn(1), HALF)],
    "T(S(2),1/2)": [(oracles.member_fn(2), HALF)],
    "T(S(w),1/2)": [(oracles.member_fn("w"), HALF)],
    MT_DESC: [(oracles.member_fn(1), HALF), (oracles.member_fn(2), Fraction(1, 4))],
}
# (descriptor, [(support size, minimum), ...]); for the limit ordinals the
# cursor's start sets grow with the minimum, so their strata stay where one
# evaluation takes well under a second on the seed code
NORM_STRATA = [
    (T1_DESC, [(s, m) for s in range(3, 13) for m in (1, 5, 9, 13)]),
    ("T(S(2),1/2)", [(s, m) for s in range(3, 13) for m in (1, 5, 9, 13)]),
    (MT_DESC, [(s, m) for s in range(3, 13) for m in (1, 5, 9, 13)]),
    ("T(S(w),1/2)", [(s, m) for s in range(3, 11) for m in (1, 3, 8, 12)]
     + [(11, 1), (11, 11), (12, 1), (12, 12), (12, 2)]),
    ("T(S(w+1),1/2)", [(s, m) for s in range(3, 9) for m in (1, 2, 4, 6)]),
]


def _norm_check(space, desc, x, rng):
    entries = list(x.entries)
    mags = [abs(v) for _, v in entries]
    if desc in LEVELS and len(entries) <= oracles.BRUTE_SUPPORT:
        def exact(v):
            want = oracles.implicit_norm(LEVELS[desc], entries)
            return None if v == want else "norm %s, oracle %s" % (v, want)
        return _returns(exact)
    flips = [rng.choice((-1, 1)) for _ in entries]

    def check(v):
        if not max(mags) <= v <= sum(mags):
            return "norm %s outside [max|x_i|, sum|x_i|]" % v
        flipped = _vec([(i, s * c) for (i, c), s in zip(entries, flips)])
        w = spaces.norm(space, flipped)
        if w != v:
            return "norm %s changes to %s under a sign flip" % (v, w)
        return None
    return _returns(check)


def _norm_op(desc, support, rng):
    space = spaces.parse_space(desc)
    x = _vec(_coefficients(rng, support))
    return Op("norm %s %s" % (desc, x.to_json()),
              lambda: spaces.norm(space, x), _norm_check(space, desc, x, rng))


def implicit_norms(rng):
    streams = []
    for desc, strata in NORM_STRATA:
        streams.append([_norm_op(desc, _support(m, s), rng) for s, m in strata])
    # T(S_{w^2}): every interval of {1..6} with two or more points, and
    # nothing above 6: _start(w^2, 7) alone builds 960,799 states in 17 s
    streams.append([_norm_op("T(S(w^2),1/2)", list(range(lo, hi + 1)), rng)
                    for lo in range(1, 6) for hi in range(lo + 1, 7)])
    # round-robin over the spaces, so no space's cold caches sit together
    ops = []
    for k in range(max(len(s) for s in streams)):
        ops.extend(s[k] for s in streams if k < len(s))
    return ops


# ---------------------------------------------------------------------------
# corpus-scans
# ---------------------------------------------------------------------------

# (descriptor, alpha, universes); each universe gets two basis and two
# average block sequences; universes kept where one scan stays below about
# a quarter second on the seed code
SPREAD_STRATA = [
    ("C0", 1, [8, 10, 12, 14]), ("C0", 2, [8, 10, 11, 12]),
    ("L1", 1, [8, 10, 12, 13]), ("L1", 2, [7, 8, 9, 10]),
    (T1_DESC, 1, [6, 8, 9, 10]), (T1_DESC, 2, [5, 6, 7, 8]),
]
ASYMP = [(T1_DESC, 1, N) for N in (6, 7, 8, 9)] + \
        [("T(S(2),1/2)", a, N) for a in (1, 2) for N in (6, 7, 8)]


def _blocks(rng, desc, N, averages):
    """N successive blocks normalized in the space: basis vectors or
    two-point averages.  Block i starts at or after i, so block minima
    inherit admissibility from the index sets.  The gaps between blocks
    are seeded for c0 and l1, whose norms ignore positions; in T(S_1,1/2)
    positions decide the work, so there every third gap is fixed at 1."""
    blocks, start = [], 2
    for k in range(N):
        start += rng.randint(0, 1) if desc in ("C0", "L1") else int(k % 3 == 2)
        length = 2 if averages else 1
        # a flat pair {a, a+1} with a >= 2 is S_1-admissible, so its norm is
        # max(c, 2c/2) = c in c0 and T(S_1,1/2); in l1 it is 2c
        value = Fraction(1, length) if desc == "L1" else Fraction(1)
        blocks.append(_vec([(i, value) for i in range(start, start + length)]))
        start += length
    return blocks


def _spreading_check(desc, alpha, N, C, blocks):
    if desc == "C0":
        expect = C >= oracles.max_member_size(alpha, N)
    else:
        # l1: norms add up; T(S_1,1/2): the lower l1 estimate is theta per
        # admissibility level, so C = 2 for S_1 and C = 4 for S_2 hold
        expect = True

    def check(rep):
        if rep.passed != expect:
            return "passed=%s, expected %s" % (rep.passed, expect)
        if rep.passed:
            return None
        F, _, value = rep.witness
        if not oracles.member_fn(alpha)(tuple(F)):
            return "witness %s not in S_%d" % (F, alpha)
        if value != 1 or C * value >= len(F):
            return "witness value %s does not violate C=%s on %d blocks" % (value, C, len(F))
        return None
    return _returns(check)


def corpus_scans(rng):
    ops = []
    for desc, alpha, universes in SPREAD_STRATA:
        space = spaces.parse_space(desc)
        for N in universes:
            # c0 fails exactly when C is below the largest member size, so
            # each block kind gets one passing and one failing C
            top = oracles.max_member_size(alpha, N)
            for averages, C in ((False, top), (False, top - 1), (True, top), (True, top - 1)):
                blocks = _blocks(rng, desc, N, averages)
                if desc != "C0":
                    C = {"L1": 1}.get(desc, 2 * alpha)
                C = Fraction(C)
                ops.append(Op(
                    "spreading %s alpha=%d C=%s N=%d %s" % (
                        desc, alpha, C, N, [b.to_json() for b in blocks]),
                    lambda space=space, blocks=blocks, alpha=alpha, C=C, N=N:
                        constructions.check_spreading_model(space, blocks, alpha, C, N),
                    _spreading_check(desc, alpha, N, C, blocks)))
    for desc, alpha, N in ASYMP:
        space = spaces.parse_space(desc)
        # e_2 + e_3 is admissible with norm 1 and every admissible sum of
        # k normalized blocks has norm >= k/2, so the constant is exactly 2
        ops.append(Op("asymptoticity %s alpha=%d N=%d" % (desc, alpha, N),
                      lambda space=space, alpha=alpha, N=N:
                          constructions.measure_asymptoticity(space, alpha, N),
                      _returns(lambda c: None if c == 2 else "constant %s, expected 2" % c)))
    return ops


# ---------------------------------------------------------------------------
# gluing-pipelines
# ---------------------------------------------------------------------------

README_CLI = [
    (["ord", "fundseq", "--expr", "w^2", "--n", "3"], "w, w*2, w*3"),
    (["fam", "member", "--family", "S(1)", "--set", "3,4,5"], "true"),
    (["fam", "tail", "--family", "S(1)", "--other", "S(2)", "--universe", "12"], "7"),
    (["norm", "eval", "--space", "T(S(1),1/2)", "--vec",
      '[[4,"1/4"],[5,"1/4"],[6,"1/4"],[7,"1/4"]]'], "1/2"),
    (["scc", "--xi", "2", "--eta", "1", "--epsilon", "1/2", "--start", "3"],
     "|F|=21, max S_1 mass 1/3"),
    (["lemma1", "--space", "T(S(1),1/2)", "--n", "2", "--blocks", "e4,e5,e6,e7"],
     "verified"),
    (["spreading", "--space", "T(S(1),1/2)", "--alpha", "1", "--C", "2",
      "--universe", "12"], "pass"),
    (["asymp", "--space", "T(S(1),1/2)", "--alpha", "1", "--universe", "8"], "2"),
    (["distort", "--space", "T(S(1),1/2)", "--derived",
      "ASSOC(T(S(1),1/2),S(1),adm)", "--corpus", "e8,avg2-3,avg4-7"], "lambda = 2"),
    (["suite", "schreier-core"], "schreier-core: 4/4 passed"),
]


def _cli_call(argv):
    import contextlib
    import io

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()
    return call


def _scc_check(xi, eta, epsilon, start):
    """Closed forms for eta = 1: the SCC set and weights come from the
    repeated-averages definition, its max S_1 mass from max_s1_mass."""
    def mass(s):
        return oracles.max_s1_mass(dict(oracles.repeated_average(xi, s)))

    def check(outcome):
        feasible = mass(start) < epsilon if eta == 1 else True
        if isinstance(outcome, constructions.SCCInfeasibleError):
            if feasible:
                return "infeasible, but the S_1 mass %s < %s" % (mass(start), epsilon)
            want = next((s for s in range(start + 1, constructions.START_SEARCH_BOUND + 1)
                         if mass(s) < epsilon), None)
            if outcome.minimal_start != want:
                return "minimal start %s, expected %s" % (outcome.minimal_start, want)
            return None
        if isinstance(outcome, Exception):
            return "raised %s" % type(outcome).__name__
        pairs = oracles.repeated_average(xi, start)
        if not feasible:
            return "built, but the S_1 mass %s >= %s" % (mass(start), epsilon)
        if outcome.F != tuple(m for m, _ in pairs) or outcome.coefficients != dict(pairs):
            return "set or weights differ from the repeated averages"
        if not 0 < outcome.max_eta_mass < epsilon:
            return "mass %s not in (0, %s)" % (outcome.max_eta_mass, epsilon)
        if eta == 1 and outcome.max_eta_mass != mass(start):
            return "mass %s, oracle %s" % (outcome.max_eta_mass, mass(start))
        return None
    return check


def _basis_tree(F, mode, K):
    return trees.BlockTree.from_branches(
        [tuple(spaces.FsVector.basis(m) for m in F)], mode, Fraction(K))


def _status_check(status, values=None):
    def check(rep):
        if rep.status != status:
            return "status %s, expected %s" % (rep.status, status)
        for key, want in (values or {}).items():
            if rep.values.get(key) != want:
                return "%s = %s, expected %s" % (key, rep.values.get(key), want)
        lows = [v for k, v in rep.values.items() if k.endswith("lower")]
        ups = [v for k, v in rep.values.items() if k.endswith("upper")]
        if lows and ups and lows[0] > ups[0]:
            return "lower bound %s above upper bound %s" % (lows[0], ups[0])
        return None
    return _returns(check)


def _bounds_check(lo_floor=None, exact=None, upper=None):
    def check(b):
        if b.lower > b.upper:
            return "lower %s > upper %s" % (b.lower, b.upper)
        if lo_floor is not None and b.lower < lo_floor:
            return "lower %s below %s" % (b.lower, lo_floor)
        if upper is not None and b.upper != upper:
            return "upper %s, expected %s" % (b.upper, upper)
        if exact is not None and (b.lower, b.upper) != (exact, exact):
            return "bounds %s, expected exactly %s" % (b, exact)
        return None
    return _returns(check)


def gluing_pipelines(rng):
    T = spaces.parse_space(T1_DESC)
    C0, L1 = spaces.C0(), spaces.L1()
    ops = []

    def add(label, call, check, known_failure=""):
        ops.append(Op(label, call, check, known_failure))

    # special convex combinations: closed-form SCC sets for xi = 2
    add("build_scc 2 1 1/4 5", lambda: constructions.build_scc(2, 1, Fraction(1, 4), 5),
        _scc_check(2, 1, Fraction(1, 4), 5))
    # starts >= 6 (|F| >= 378) cost up to a second each and from 7 on hit
    # the RecursionError that build_scc(3, 2, 1/2, 2) below already counts.
    # The S_1 mass at start s is 1/s; each slot fixes the start and whether
    # epsilon is met, so only epsilon, not the work, depends on the seed.
    for start, choices in ((4, (2, 3)), (4, (4,)), (5, (2, 3, 4)), (5, (2, 3, 4))):
        eps = Fraction(1, rng.choice(choices))
        add("build_scc 2 1 %s %d" % (eps, start),
            lambda eps=eps, start=start: constructions.build_scc(2, 1, eps, start),
            _scc_check(2, 1, eps, start))

    # |F| = 2046 overflows the recursive Family.max_mass on the seed code.
    # F starts with the S_2 set {2,...,7}, which alone carries mass 1/2 =
    # epsilon, so infeasible or a resource-bound refusal are the right answers.
    def xi3_check(outcome):
        if isinstance(outcome, (constructions.SCCInfeasibleError,
                                families.ResourceBoundError)):
            return None
        return "expected infeasible, got %s" % canonical(outcome)[:100]
    add("build_scc 3 2 1/2 2", lambda: constructions.build_scc(3, 2, HALF, 2), xi3_check,
        known_failure="RecursionError")

    # the four gluing pipelines on T(S_1,1/2) and c0
    a = rng.randint(4, 6)
    blocks = [spaces.FsVector.basis(i) for i in range(a, a + 4)]
    add("lemma1 T1 n=2 e%d..e%d" % (a, a + 3),
        lambda: constructions.gluing_lemma1(T, 2, blocks),
        _status_check("verified", {"norm": HALF, "norm_n": Fraction(5, 8)}))
    add("lemma1 C0 n=2 e%d..e%d" % (a, a + 3),
        lambda: constructions.gluing_lemma1(C0, 2, blocks),
        _status_check("precondition-failed"))
    scc_set = tuple(m for m, _ in oracles.repeated_average(2, 3))  # |F| = 21
    # criterion 08: K = 2 cannot be certified (norm 6 < 21/2), K = 4 can
    add("lemma2 T1 K=2", lambda: constructions.gluing_lemma2(
        T, 1, _basis_tree(scc_set, "l1", 2), 2, 2, 2, start=3),
        _status_check("precondition-failed"))
    add("lemma2 T1 K=4", lambda: constructions.gluing_lemma2(
        T, 1, _basis_tree(scc_set, "l1", 4), 2, 2, 2, start=3),
        _status_check("verified", {"norm": Fraction(5, 18),
                                   "assoc_norm": Fraction(5, 9)}))
    for space, name in ((C0, "C0"), (T, "T1")):
        add("lemma3 %s n=2 e%d..e%d" % (name, a, a + 3),
            lambda space=space: constructions.gluing_lemma3(space, 2, blocks, blocks),
            _status_check("verified"))
    add("lemma4 C0 K=1", lambda: constructions.gluing_lemma4(
        C0, 1, _basis_tree(scc_set, "c0", 1), 2, 2, 2, start=3),
        _status_check("verified"))

    # block trees of +-e_i on {k+1,...,2k}: l1 branches in T(S_1,1/2) are S_1
    # sets, so K = 2 certifies; c0 and l1 branches certify with K = 1
    def cert_check(rep):
        return None if rep.ok else "certification failed: %s" % rep.reason
    for k, space, name, mode, K in ((4, T, "T1", "l1", 2), (6, T, "T1", "l1", 2),
                                    (8, T, "T1", "l1", 2), (9, C0, "C0", "c0", 1),
                                    (7, L1, "L1", "l1", 1)):
        branch = tuple(_vec([(m, rng.choice((-1, 1)))]) for m in range(k + 1, 2 * k + 1))
        tree = trees.BlockTree.from_branches([branch], mode, Fraction(K))
        add("certify %s %s K=%d %s" % (name, mode, K, [b.to_json() for b in branch]),
            lambda tree=tree, space=space: trees.certify_block_tree(tree, space),
            _returns(cert_check))

    # derived norms: exact by the subset oracle on supports <= 8, otherwise
    # ||x|| <= ||x||_n <= n ||x|| and ||x|| <= |x|_1 <= 2 ||x||
    s1 = oracles.member_fn(1)
    for size, lo, n in ((4, 2, 2), (6, 5, 3), (8, 3, 4), (10, 6, 2), (12, 4, 3),
                        (14, 7, 4), (16, 2, 2), (16, 8, 3)):
        x = _vec(_coefficients(rng, _support(lo, size)))
        entries = list(x.entries)

        def derived_check(pair, x=x, n=n, entries=entries):
            vn, va = pair
            if len(entries) <= oracles.BRUTE_SUPPORT:
                want = oracles.derived_norms(LEVELS[T1_DESC], entries, n, s1)
                return None if (vn, va) == want else "derived %s, oracle %s" % ((vn, va), want)
            base = spaces.norm(T, x)
            if not base <= vn <= n * base or not base <= va <= 2 * base:
                return "derived %s outside the sandwich of norm %s" % ((vn, va), base)
            return None
        add("derived T1 n=%d %s" % (n, x.to_json()),
            lambda x=x, n=n: (spaces.norm_n(T, n, x), spaces.assoc_norm(T, 1, x)),
            _returns(derived_check))

    # dual bounds: exact for c0 and l1, two-sided for T(S_1,1/2)
    for size, lo in ((3, 2), (4, 5), (5, 3), (6, 6), (7, 4), (8, 2)):
        phi = _vec(_coefficients(rng, _support(lo, size)))
        mags = [abs(v) for v in phi.values]
        add("dual_norm C0 %s" % phi.to_json(), lambda phi=phi: spaces.dual_norm(C0, phi),
            _bounds_check(exact=sum(mags)))
        add("dual_norm L1 %s" % phi.to_json(), lambda phi=phi: spaces.dual_norm(L1, phi),
            _bounds_check(exact=max(mags)))
        add("dual_norm T1 %s" % phi.to_json(), lambda phi=phi: spaces.dual_norm(T, phi),
            _bounds_check(lo_floor=max(mags), upper=sum(mags)))
        if size <= 6:
            add("dual_assoc_norm T1 n=2 %s" % phi.to_json(),
                lambda phi=phi: spaces.dual_assoc_norm(T, phi, n=2),
                _bounds_check(lo_floor=max(mags)))
            add("dual_assoc_norm T1 alpha=1 %s" % phi.to_json(),
                lambda phi=phi: spaces.dual_assoc_norm(T, phi, alpha=1),
                _bounds_check(lo_floor=max(mags)))
        if size <= 5:
            def primal_check(b, x=phi):
                base = oracles.implicit_norm(LEVELS[T1_DESC], list(x.entries))
                if 0 < b.lower <= b.upper <= base:
                    return None
                return "bounds %s not inside (0, ||x|| = %s]" % (b, base)
            for kw in ({"n": 2}, {"alpha": Ordinal.from_int(1)}):
                add("primal_from_dual T1 %s %s" % (sorted(kw.items()), phi.to_json()),
                    lambda x=phi, kw=kw: spaces.primal_from_dual(T, x, **kw),
                    _returns(primal_check))

    # distortion: the ASSOC(T,S_1) / T ratio lies in [1, 2]; 2 on the
    # criterion-11 corpus
    der = spaces.parse_space("ASSOC(T(S(1),1/2),S(1),adm)")
    fixed = [spaces.FsVector.basis(8)] + [spaces.FsVector.average(range(n, 2 * n))
                                         for n in (2, 4, 8)]
    add("distortion criterion-11", lambda: constructions.distortion_scan(T, der, fixed),
        _returns(lambda r: None if r.empirical_lambda == 2 else "lambda %s" % r.empirical_lambda))
    for shape in (((2, 3), (4, 4), (8, 2), (5, 6)), ((3, 5), (6, 2), (2, 6), (7, 3)),
                  ((8, 4), (2, 2), (4, 5), (3, 3))):
        corpus = [_vec(_coefficients(rng, _support(lo, size))) for lo, size in shape]
        add("distortion %s" % [c.to_json() for c in corpus],
            lambda corpus=corpus: constructions.distortion_scan(T, der, corpus),
            _returns(lambda r: None if 1 <= r.ratio_min <= r.ratio_max <= 2
                     else "ratios [%s, %s] outside [1, 2]" % (r.ratio_min, r.ratio_max)))

    for argv, want in README_CLI:
        add("cli %s" % " ".join(argv), _cli_call(argv),
            _returns(lambda out, want=want: None if out == (0, want + "\n")
                     else "cli gave %r, README says (0, %r)" % (out, want)))
    return ops


WORKLOADS = {
    "implicit-norms": implicit_norms,
    "corpus-scans": corpus_scans,
    "gluing-pipelines": gluing_pipelines,
}


def build(workload, seed):
    return WORKLOADS[workload](random.Random(seed))
