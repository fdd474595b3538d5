"""Independent oracles behind the benchmark's per-op correctness checks.

Nothing here calls into ``schreierlab``: memberships are decided by
exhaustive decomposition straight from the definition of S_alpha, implicit
norms by a bottom-up recursion over all subsets of a small support, and
the special convex combinations by the repeated-averages definition.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

BRUTE_SUPPORT = 8  # largest support the subset recursion is run on


@lru_cache(maxsize=None)
def in_schreier(k, F):
    """F in S_k for a natural k: at most min F successive S_(k-1) blocks."""
    if not F:
        return True
    if k == 0:
        return len(F) <= 1

    def split(rest, left):
        if not rest:
            return True
        if left == 0:
            return False
        return any(in_schreier(k - 1, rest[:cut]) and split(rest[cut:], left - 1)
                   for cut in range(1, len(rest) + 1))

    return split(F, F[0])


def in_schreier_omega(F):
    """F in S_w: F in S_n for some n <= min F, i.e. F in S_(min F)."""
    return not F or in_schreier(F[0], F)


def member_fn(alpha):
    """Membership oracle for alpha given as a natural or the string 'w'."""
    if alpha == "w":
        return in_schreier_omega
    return lambda F: in_schreier(alpha, F)


def max_member_size(alpha, N):
    """Largest |F| over F in S_alpha inside {1..N}, alpha in {1, 2}.

    S_1: |F| <= min F, so the best is min(m, N - m + 1) at min m.  S_2:
    at most m successive S_1 blocks, each at most as long as its minimum,
    so consecutive maximal blocks [b, 2b-1] from b = m are best."""
    if alpha == 1:
        return (N + 1) // 2
    best = 0
    for m in range(1, N + 1):
        size, b = 0, m
        for _ in range(m):
            if b > N:
                break
            size += min(b, N - b + 1)
            b *= 2
        best = max(best, size)
    return best


def _pieces(idx):
    """All splits of the index list idx into >= 2 contiguous pieces."""
    for cuts in product((0, 1), repeat=len(idx) - 1):
        if not any(cuts):
            continue
        pieces = [[idx[0]]]
        for i, c in zip(idx[1:], cuts):
            if c:
                pieces.append([i])
            else:
                pieces[-1].append(i)
        yield pieces


def subset_norms(levels, entries):
    """Norm of every restriction of x to a nonempty subset of its support
    in the implicit space max(||x||_inf, max_l theta_l * sup sum ||E_j x||)
    over (F_l)-admissible successive E_j; levels = [(member, theta), ...].

    Subsets are solved in order of size: a restriction's norm is its own
    sup norm, a one-smaller restriction's norm (the E_j may skip points)
    or a split into >= 2 contiguous pieces, all strictly smaller."""
    sp = [i for i, _ in entries]
    mags = [abs(Fraction(v)) for _, v in entries]
    n = len(sp)
    if n > BRUTE_SUPPORT:
        raise ValueError("support %d too large for the subset recursion" % n)
    val = {}
    for mask in sorted(range(1, 1 << n), key=lambda m: bin(m).count("1")):
        idx = [k for k in range(n) if mask >> k & 1]
        best = max(mags[k] for k in idx)
        for k in idx:
            sub = mask & ~(1 << k)
            if sub and val[sub] > best:
                best = val[sub]
        for pieces in _pieces(idx):
            minima = tuple(sp[p[0]] for p in pieces)
            total = sum(val[sum(1 << k for k in p)] for p in pieces)
            for member, theta in levels:
                if theta * total > best and member(minima):
                    best = theta * total
        val[mask] = best
    return val


def implicit_norm(levels, entries):
    return subset_norms(levels, entries)[(1 << len(entries)) - 1]


def derived_norms(levels, entries, n, alpha_member):
    """(||x||_n, |x|_alpha admissible) from the subset table: best sums of
    piece norms over successive pieces of the support (points may be
    skipped), at most n of them, resp. with minima in S_alpha."""
    val = subset_norms(levels, entries)
    sp = [i for i, _ in entries]
    size = len(sp)
    best_n = best_a = Fraction(0)
    for keep in range(1, 1 << size):
        idx = [k for k in range(size) if keep >> k & 1]
        splits = [[idx]] + list(_pieces(idx))
        for pieces in splits:
            total = sum(val[sum(1 << k for k in p)] for p in pieces)
            if len(pieces) <= n and total > best_n:
                best_n = total
            if total > best_a and alpha_member(tuple(sp[p[0]] for p in pieces)):
                best_a = total
    return best_n, best_a


def repeated_average(xi, s):
    """[(m, weight)] of the repeated-averages S_xi set at start s, natural xi:
    a point mass at level 0, otherwise s successive level-(xi-1) sets, each
    weighted 1/s."""
    if xi == 0:
        return [(s, Fraction(1))]
    out, cur = [], s
    for _ in range(s):
        block = repeated_average(xi - 1, cur)
        out.extend((m, w / s) for m, w in block)
        cur = block[-1][0] + 1
    return out


def max_s1_mass(weights):
    """max of sum(w[m] for m in G) over G in S_1 inside the given support:
    fix min G = m, then add the m - 1 heaviest points above m."""
    elems = sorted(weights)
    best = Fraction(0)
    for pos, m in enumerate(elems):
        above = sorted((weights[e] for e in elems[pos + 1:]), reverse=True)
        best = max(best, weights[m] + sum(above[:m - 1]))
    return best
