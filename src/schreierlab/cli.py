"""Command-line front end.

Subcommands cover ordinal arithmetic, family queries, tree orders, norm
evaluation, special convex combinations, the four gluing pipelines, the
spreading-model checker, asymptoticity measurement, distortion scans and
the built-in check suites.

Exit codes: 0 pass/verified, 1 refuted/fail, 2 inconclusive, 64 parse
or usage errors, 65 resource bounds.  Rationals cross the boundary as
"p/q" strings; reports are deterministic JSON (sorted keys, no
timestamps) written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .constructions import (ConstructionError, SCCInfeasibleError, build_scc,
                            check_spreading_model, distortion_scan,
                            gluing_lemma1, gluing_lemma2, gluing_lemma3,
                            gluing_lemma4, measure_asymptoticity)
from .families import (FamilyError, ResourceBoundError, index_symbolic,
                       parse_family, tail_domination)
from .ordinal import (NotALimitError, OrdinalError, ParseError,
                      fundamental_sequence)
from .ordinal import compare as ordinal_compare
from .ordinal import parse as parse_ordinal
from .spaces import (Derived, FsVector, SpaceError, dual_norm, norm,
                     parse_space, space_mode)
from .trees import (BlockTree, SearchFailure, TreeError, family_as_tree,
                    index_lower_bound_search, order)

__all__ = ["main", "build_parser", "CONVENTION"]

CONVENTION = "(lam+w^(e+1))_n = lam+w^e*n; (lam+w)_n = lam+n"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 64
EXIT_RESOURCE = 65


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors via the contract exit code."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fmt(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def _index(i):
    """A vector index: a JSON integer, or a float with an integral value."""
    if isinstance(i, float) and i.is_integer():
        return int(i)
    if isinstance(i, int) and not isinstance(i, bool):
        return i
    raise ValueError("index %r is not an integer" % (i,))


def _coefficient(c):
    """An exact coefficient.  Exponent strings are refused: Fraction
    would expand "1e-99999999999" into a power of ten digit by digit."""
    if isinstance(c, str) and "e" in c.lower():
        raise ValueError("coefficient %r: exponent notation is not accepted" % c)
    return Fraction(str(c))


def _parse_vec(text):
    try:
        pairs = json.loads(text)
        return FsVector.from_pairs((_index(i), _coefficient(c)) for i, c in pairs)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise _UsageError("bad vector JSON %r: %s" % (text, exc))


def _parse_blocks(text):
    """Comma-separated basis blocks: e4,e5 plus averages avg4-7."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok.startswith("e") and tok[1:].isdigit():
            out.append(FsVector.basis(int(tok[1:])))
        elif tok.startswith("avg"):
            try:
                a, b = tok[3:].split("-")
                lo, hi = int(a), int(b)
            except ValueError:
                raise _UsageError("bad block token %r: expected avgA-B" % tok)
            out.append(FsVector.average(range(lo, hi + 1)))
        else:
            raise _UsageError("bad block token %r" % tok)
    return out


def _parse_set(text):
    if not text.strip():
        return ()
    return tuple(sorted(int(t) for t in text.split(",")))


def _write_report(report, args):
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, args.out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    if args.json:
        sys.stdout.write(payload)


def _report(args, result, mode):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func",) and v is not None}
    return {
        "config": cfg,
        "version": __version__,
        "fundamental_sequence_convention": CONVENTION,
        "mode": mode,
        "result": result,
    }


def _emit(args, result, terse, exit_code, mode="exact"):
    _write_report(_report(args, result, mode=mode), args)
    if not args.json:
        print(terse)
    return exit_code


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ord(args):
    if args.action == "parse":
        a = parse_ordinal(args.expr)
        result = {"cnf": str(a), "class": a.classify()}
        return _emit(args, result, "%s (%s)" % (result["cnf"], result["class"]),
                     EXIT_PASS)
    if args.action == "compare":
        r = ordinal_compare(parse_ordinal(args.a), parse_ordinal(args.b))
        return _emit(args, {"comparison": r}, r, EXIT_PASS)
    a = parse_ordinal(args.expr)
    seq = [str(fundamental_sequence(a, n)) for n in range(1, args.n + 1)]
    return _emit(args, {"sequence": seq}, ", ".join(seq), EXIT_PASS)


def _cmd_fam(args):
    fam = parse_family(args.family)
    if args.action == "member":
        F = _parse_set(args.set)
        ok = fam.member(F)
        return _emit(args, {"member": ok}, "true" if ok else "false",
                     EXIT_PASS if ok else EXIT_FAIL)
    if args.action == "enumerate":
        members = [list(F) for F in fam.enumerate(args.universe)]
        return _emit(args, {"members": members, "count": len(members)},
                     "%d members" % len(members), EXIT_PASS)
    if args.action == "derivative":
        d = fam.iterated_derivative(args.steps, args.universe)
        members = [list(F) for F in d.enumerate(args.universe)]
        return _emit(args, {"members": members, "count": len(members)},
                     "%d members after %d steps" % (len(members), args.steps),
                     EXIT_PASS)
    if args.action == "index":
        idx = index_symbolic(fam.expr)
        return _emit(args, {"index": str(idx)}, str(idx), EXIT_PASS)
    if args.action == "regular":
        rep = fam.check_regular(args.universe)
        ok = rep.hereditary and rep.spreading
        result = {"hereditary": rep.hereditary, "spreading": rep.spreading,
                  "compactness": rep.compactness,
                  "counterexamples": {k: [list(map(list, c)) for c in v]
                                      for k, v in rep.counterexamples.items()}}
        return _emit(args, result, "regular within universe" if ok
                     else "not regular", EXIT_PASS if ok else EXIT_FAIL)
    if args.action == "tail":
        other = parse_family(args.other)
        n0 = tail_domination(fam, other, args.universe)
        result = {"n0": n0}
        return _emit(args, result,
                     "none within %d" % args.universe if n0 is None else str(n0),
                     EXIT_PASS if n0 is not None else EXIT_FAIL)
    raise _UsageError("unknown fam action %r" % args.action)


def _cmd_tree(args):
    if args.action == "order":
        fam = parse_family(args.family)
        t = family_as_tree(fam, args.universe)
        o = order(t)
        return _emit(args, {"order": o, "nodes": len(t)}, str(o), EXIT_PASS)
    space = parse_space(args.space)
    fam = parse_family(args.family)
    res = index_lower_bound_search(space, fam, Fraction(args.K),
                                   args.universe, mode=args.tree_mode)
    mode = space_mode(space)
    if isinstance(res, SearchFailure):
        return _emit(args, {"success": False, "stats": res.stats},
                     "search failed", EXIT_FAIL, mode=mode)
    bt, cert = res
    return _emit(args, {"success": True, "certificate": cert.to_json()},
                 "certified depth %d" % order(bt.tree), EXIT_PASS, mode=mode)


def _cmd_norm(args):
    space = parse_space(args.space)
    x = _parse_vec(args.vec)
    mode = space_mode(space)
    if args.action == "eval":
        v = norm(space, x)
        return _emit(args, {"norm": _fmt(v)}, str(_fmt(v)), EXIT_PASS,
                     mode=mode)
    b = dual_norm(space, x)
    return _emit(args, {"dual": b.to_json()},
                 "[%s, %s]" % (_fmt(b.lower), _fmt(b.upper)), EXIT_PASS,
                 mode=mode)


def _cmd_scc(args):
    try:
        scc = build_scc(parse_ordinal(args.xi), parse_ordinal(args.eta),
                        Fraction(args.epsilon), args.start)
    except SCCInfeasibleError as exc:
        result = {"status": "infeasible", "message": str(exc),
                  "minimal_start": exc.minimal_start}
        return _emit(args, result, "infeasible (minimal start %s)"
                     % exc.minimal_start, EXIT_FAIL)
    return _emit(args, {"status": "ok", "scc": scc.to_json()},
                 "|F|=%d, max S_%s mass %s" % (len(scc.F), scc.eta,
                                               scc.max_eta_mass), EXIT_PASS)


_STATUS_EXIT = {"verified": EXIT_PASS, "refuted": EXIT_FAIL,
                "inconclusive": EXIT_INCONCLUSIVE,
                "precondition-failed": EXIT_FAIL}


def _emit_gluing(args, report, mode):
    return _emit(args, report.to_json(), report.status,
                 _STATUS_EXIT[report.status], mode=mode)


def _cmd_lemma1(args):
    space = parse_space(args.space)
    blocks = _parse_blocks(args.blocks)
    rep = gluing_lemma1(space, args.n, blocks)
    return _emit_gluing(args, rep, space_mode(space))


def _basis_tree_for(xi, eta, C2, start, mode, K):
    scc = build_scc(xi, eta, Fraction(1) / Fraction(C2), start)
    return BlockTree.from_branches(
        [tuple(FsVector.basis(m) for m in scc.F)], mode, Fraction(K))


def _cmd_lemma2(args):
    space = parse_space(args.space)
    xi, eta = parse_ordinal(args.xi), parse_ordinal(args.eta)
    tree = _basis_tree_for(xi, eta, args.C2, args.start, "l1", args.K)
    rep = gluing_lemma2(space, eta, tree, Fraction(args.C1), Fraction(args.C2),
                        xi, start=args.start)
    return _emit_gluing(args, rep, space_mode(space))


def _cmd_lemma3(args):
    space = parse_space(args.space)
    blocks = _parse_blocks(args.blocks)
    funcs = []
    for b in blocks:
        if len(b.entries) != 1 or b.entries[0][1] != 1:
            raise _UsageError("lemma3 CLI supports basis blocks only; use the "
                              "library for general biorthogonals")
        funcs.append(FsVector.basis(b.entries[0][0]))
    rep = gluing_lemma3(space, args.n, blocks, funcs)
    return _emit_gluing(args, rep, space_mode(space))


def _cmd_lemma4(args):
    space = parse_space(args.space)
    xi, eta = parse_ordinal(args.xi), parse_ordinal(args.eta)
    tree = _basis_tree_for(xi, eta, args.C2, args.start, "c0", args.K)
    rep = gluing_lemma4(space, eta, tree, Fraction(args.C1), Fraction(args.C2),
                        xi, start=args.start)
    return _emit_gluing(args, rep, space_mode(space))


def _cmd_spreading(args):
    space = parse_space(args.space)
    blocks = [FsVector.basis(i) for i in range(1, args.universe + 1)]
    rep = check_spreading_model(space, blocks, parse_ordinal(args.alpha),
                                Fraction(args.C), args.universe)
    return _emit(args, rep.to_json(), "pass" if rep.passed else "fail",
                 EXIT_PASS if rep.passed else EXIT_FAIL,
                 mode=space_mode(space))


def _cmd_asymp(args):
    space = parse_space(args.space)
    C = measure_asymptoticity(space, parse_ordinal(args.alpha), args.universe)
    result = {"C": _fmt(C),
              "note": "section measurement at universe %d" % args.universe}
    return _emit(args, result, str(_fmt(C)), EXIT_PASS, mode=space_mode(space))


def _cmd_distort(args):
    space = parse_space(args.space)
    derived = parse_space(args.derived)
    corpus = _parse_blocks(args.corpus)
    rep = distortion_scan(space, derived, corpus)
    return _emit(args, rep.to_json(), "lambda = %s" % _fmt(rep.empirical_lambda),
                 EXIT_PASS, mode=space_mode(derived))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_schreier_core():
    from itertools import chain, combinations

    from .families import schreier
    checks = []
    s1 = schreier(1)
    universe = range(1, 13)
    subsets = chain.from_iterable(combinations(universe, r) for r in range(0, 5))
    ok = all(s1.member(F) == (len(F) == 0 or len(F) <= F[0]) for F in subsets)
    checks.append({"name": "s1-closed-form", "passed": ok})
    rep = schreier(2).check_regular(10)
    checks.append({"name": "s2-regular", "passed": rep.hereditary and rep.spreading})
    d = s1.iterated_derivative(2, 12)
    want = {F for F in s1.enumerate(12) if not F or len(F) + 2 <= F[0]}
    checks.append({"name": "s1-derivative",
                   "passed": set(d.enumerate(12)) == want})
    checks.append({"name": "s1-index",
                   "passed": str(index_symbolic(s1.expr)) == "w^(1)"})
    return checks


def _suite_norms_exact():
    from .ordinal import Ordinal
    from .spaces import Tsirelson
    checks = []
    T = Tsirelson(Ordinal.from_int(1), Fraction(1, 2))
    checks.append({"name": "unit-vector",
                   "passed": norm(T, FsVector.basis(3)) == 1})
    checks.append({"name": "s1-average",
                   "passed": norm(T, FsVector.average([4, 5, 6, 7])) == Fraction(1, 2)})
    rep = gluing_lemma1(T, 2, [FsVector.basis(i) for i in (4, 5, 6, 7)])
    checks.append({"name": "lemma1-n2", "passed": rep.status == "verified"})
    C = measure_asymptoticity(T, 1, 8)
    checks.append({"name": "asymp-2", "passed": C == 2})
    return checks


_SUITES = {"schreier-core": _suite_schreier_core,
           "norms-exact": _suite_norms_exact}


def _cmd_suite(args):
    if args.name not in _SUITES:
        raise _UsageError("unknown suite %r (known: %s)"
                          % (args.name, ", ".join(sorted(_SUITES))))
    checks = _SUITES[args.name]()
    ok = all(c["passed"] for c in checks)
    result = {"suite": args.name, "checks": checks, "all_passed": ok}
    return _emit(args, result,
                 "%s: %d/%d passed" % (args.name,
                                       sum(c["passed"] for c in checks),
                                       len(checks)),
                 EXIT_PASS if ok else EXIT_FAIL)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--universe", type=int, default=10)
    common.add_argument("--out", default=None)
    common.add_argument("--json", action="store_true")

    p = _Parser(prog="schreierlab", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: _Parser(parents=[common], **kw))

    sp = sub.add_parser("ord")
    sp.add_argument("action", choices=("parse", "compare", "fundseq"))
    sp.add_argument("--expr", default="0")
    sp.add_argument("--a", default="0")
    sp.add_argument("--b", default="0")
    sp.add_argument("--n", type=int, default=3)
    sp.set_defaults(func=_cmd_ord)

    sp = sub.add_parser("fam")
    sp.add_argument("action", choices=("member", "enumerate", "derivative",
                                       "index", "regular", "tail"))
    sp.add_argument("--family", required=True)
    sp.add_argument("--set", default="")
    sp.add_argument("--steps", type=int, default=1)
    sp.add_argument("--other", default="S(1)")
    sp.set_defaults(func=_cmd_fam)

    sp = sub.add_parser("tree")
    sp.add_argument("action", choices=("order", "search"))
    sp.add_argument("--family", required=True)
    sp.add_argument("--space", default="L1")
    sp.add_argument("--K", default="2")
    sp.add_argument("--tree-mode", choices=("l1", "c0"), default="l1")
    sp.set_defaults(func=_cmd_tree)

    sp = sub.add_parser("norm")
    sp.add_argument("action", choices=("eval", "dual"))
    sp.add_argument("--space", required=True)
    sp.add_argument("--vec", required=True)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("scc")
    sp.add_argument("--xi", required=True)
    sp.add_argument("--eta", required=True)
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--start", type=int, default=1)
    sp.set_defaults(func=_cmd_scc)

    sp = sub.add_parser("lemma1")
    sp.add_argument("--space", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--blocks", required=True)
    sp.set_defaults(func=_cmd_lemma1)

    for name, fn in (("lemma2", _cmd_lemma2), ("lemma4", _cmd_lemma4)):
        sp = sub.add_parser(name)
        sp.add_argument("--space", required=True)
        sp.add_argument("--eta", required=True)
        sp.add_argument("--xi", required=True)
        sp.add_argument("--K", default="2")
        sp.add_argument("--C1", default="2")
        sp.add_argument("--C2", default="2")
        sp.add_argument("--start", type=int, default=1)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("lemma3")
    sp.add_argument("--space", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--blocks", required=True)
    sp.set_defaults(func=_cmd_lemma3)

    sp = sub.add_parser("spreading")
    sp.add_argument("--space", required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--C", required=True)
    sp.set_defaults(func=_cmd_spreading)

    sp = sub.add_parser("asymp")
    sp.add_argument("--space", required=True)
    sp.add_argument("--alpha", required=True)
    sp.set_defaults(func=_cmd_asymp)

    sp = sub.add_parser("distort")
    sp.add_argument("--space", required=True)
    sp.add_argument("--derived", required=True)
    sp.add_argument("--corpus", required=True)
    sp.set_defaults(func=_cmd_distort)

    sp = sub.add_parser("suite")
    sp.add_argument("name")
    sp.set_defaults(func=_cmd_suite)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ResourceBoundError as exc:
        print("resource bound: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except SCCInfeasibleError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except (ParseError, OrdinalError, NotALimitError, SpaceError, FamilyError,
            TreeError, ConstructionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
