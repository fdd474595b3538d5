"""Command-line front end.

Subcommands cover ordinal arithmetic, family queries, tree orders, norm
evaluation, special convex combinations, the four gluing pipelines, the
spreading-model checker, asymptoticity measurement, distortion scans and
the built-in check suites.

Flags follow the subcommand and its action, and each one accepts only
the flags its handler reads, plus --out and --json: --universe N only
where a finite universe is measured.  Any other flag, or one given
before the subcommand, is a usage error.  Before the command runs, each
flag whose text denotes a value (an ordinal, family, space, rational,
vector, block list or set) is read into it, in the order of the action's
flag list, so of two bad flags the first listed is reported.  A
report's config lists the command, its action and the flags as given;
its mode is "float" when --space or --derived is the Schlumprecht space
or derived from it, and "exact" otherwise.

Exit codes: 0 pass/verified, 1 refuted/fail, 2 inconclusive, 64 parse
or usage errors, 65 resource bounds.  Rationals cross the boundary as
"p/q" strings; reports are deterministic JSON (sorted keys, no
timestamps) written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from fractions import Fraction
from itertools import chain, combinations

from . import __version__
from .constructions import (ConstructionError, SCCInfeasibleError, build_scc,
                            check_spreading_model, distortion_scan,
                            gluing_lemma1, gluing_lemma2, gluing_lemma3,
                            gluing_lemma4, measure_asymptoticity)
from .families import (FamilyError, ResourceBoundError, index_symbolic,
                       parse_family, schreier, tail_domination)
from .ordinal import (NotALimitError, Ordinal, OrdinalError, ParseError,
                      fundamental_sequence)
from .ordinal import compare as ordinal_compare
from .ordinal import parse as parse_ordinal
from .spaces import (FsVector, SpaceError, Tsirelson, dual_norm, norm,
                     parse_rational, parse_space, report_value, space_mode)
from .trees import (BlockTree, SearchFailure, TreeError,
                    index_lower_bound_search)

__all__ = ["main", "build_parser", "CONVENTION"]

CONVENTION = "(lam+w^(e+1))_n = lam+w^e*n; (lam+w)_n = lam+n"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 64
EXIT_RESOURCE = 65

FUNDSEQ_BOUND = 10 ** 4  # terms one `ord fundseq` lists; the bound takes about 0.1 s


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors via the contract exit code."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _index(i):
    """A vector index: a JSON integer, or a float with an integral value."""
    if isinstance(i, float) and i.is_integer():
        return int(i)
    if isinstance(i, int) and not isinstance(i, bool):
        return i
    raise ValueError("index %r is not an integer" % (i,))


def _parse_vec(text):
    try:
        pairs = json.loads(text)
        return FsVector.from_pairs((_index(i), parse_rational(c)) for i, c in pairs)
    except (ValueError, TypeError) as exc:
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
    try:
        return tuple(sorted(int(t) for t in text.split(",")))
    except ValueError:
        raise _UsageError("bad set %r: expected comma-separated integers" % text)


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


_READERS = {
    **dict.fromkeys(("expr", "a", "b", "xi", "eta", "alpha"), parse_ordinal),
    **dict.fromkeys(("family", "other"), parse_family),
    **dict.fromkeys(("space", "derived"), parse_space),
    **dict.fromkeys(("epsilon", "K", "C1", "C2", "C"), parse_rational),
    "vec": _parse_vec, "blocks": _parse_blocks, "corpus": _parse_blocks,
    "set": _parse_set,
}


def _report(args, result):
    modes = {space_mode(getattr(args, k)) for k in ("space", "derived")
             if hasattr(args, k)}
    return {
        "config": args.config,
        "version": __version__,
        "fundamental_sequence_convention": CONVENTION,
        "mode": "float" if "float" in modes else "exact",
        "result": result,
    }


def _emit(args, result, terse, exit_code):
    if args.out or args.json:
        _write_report(_report(args, result), args)
    if not args.json:
        print(terse)
    return exit_code


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ord(args):
    if args.action == "parse":
        result = {"cnf": str(args.expr), "class": args.expr.classify()}
        return _emit(args, result, "%s (%s)" % (result["cnf"], result["class"]),
                     EXIT_PASS)
    if args.action == "compare":
        r = ordinal_compare(args.a, args.b)
        return _emit(args, {"comparison": r}, r, EXIT_PASS)
    if args.n < 0:
        raise _UsageError("--n must be >= 0, got %d" % args.n)
    if args.n > FUNDSEQ_BOUND:
        raise ResourceBoundError("sequence length", args.n,
                                 "FUNDSEQ_BOUND", FUNDSEQ_BOUND)
    seq = [str(fundamental_sequence(args.expr, n)) for n in range(1, args.n + 1)]
    return _emit(args, {"sequence": seq}, ", ".join(seq), EXIT_PASS)


def _cmd_fam(args):
    fam = args.family
    if args.action == "member":
        ok = fam.member(args.set)
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
        idx = index_symbolic(fam)
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
        n0 = tail_domination(fam, args.other, args.universe)
        result = {"n0": n0}
        return _emit(args, result,
                     "none within %d" % args.universe if n0 is None else str(n0),
                     EXIT_PASS if n0 is not None else EXIT_FAIL)
    raise _UsageError("unknown fam action %r" % args.action)


def _cmd_tree(args):
    if args.action == "order":
        # the families read here are hereditary: a node per nonempty member
        o, nodes = args.family.tree_order(args.universe)
        return _emit(args, {"order": o, "nodes": nodes}, str(o), EXIT_PASS)
    res = index_lower_bound_search(args.space, args.family, args.K,
                                   args.universe, mode=args.tree_mode)
    if isinstance(res, SearchFailure):
        return _emit(args, {"success": False, "stats": res.stats},
                     "search failed", EXIT_FAIL)
    bt, cert = res
    return _emit(args, {"success": True, "certificate": cert.to_json()},
                 "certified depth %d" % max(map(len, bt.branches), default=0),
                 EXIT_PASS)


def _cmd_norm(args):
    if args.action == "eval":
        v = norm(args.space, args.vec)
        return _emit(args, {"norm": report_value(v)}, str(v), EXIT_PASS)
    b = dual_norm(args.space, args.vec)
    return _emit(args, {"dual": b.to_json()},
                 "[%s, %s]" % (b.lower, b.upper), EXIT_PASS)


def _cmd_scc(args):
    try:
        scc = build_scc(args.xi, args.eta, args.epsilon, args.start)
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


def _cmd_gluing(args):
    """The four gluing lemmas.  Lemma 3 takes each basis block as its own
    biorthogonal; lemmas 2 and 4 run on the basis tree of the S_xi SCC at
    --start."""
    if args.command == "lemma1":
        rep = gluing_lemma1(args.space, args.n, args.blocks)
    elif args.command == "lemma3":
        if any(len(b.entries) != 1 or b.entries[0][1] != 1 for b in args.blocks):
            raise _UsageError("lemma3 CLI supports basis blocks only; use the "
                              "library for general biorthogonals")
        rep = gluing_lemma3(args.space, args.n, args.blocks, args.blocks)
    else:
        lemma, mode = {"lemma2": (gluing_lemma2, "l1"),
                       "lemma4": (gluing_lemma4, "c0")}[args.command]
        if not args.C2:
            raise _UsageError("--C2 must not be 0")
        scc = build_scc(args.xi, args.eta, Fraction(1) / args.C2, args.start)
        tree = BlockTree.from_branches(
            [tuple(FsVector.basis(m) for m in scc.F)], mode, args.K)
        rep = lemma(args.space, args.eta, tree, args.C1, args.C2, args.xi,
                    start=args.start)
    return _emit(args, rep.to_json(), rep.status, _STATUS_EXIT[rep.status])


def _cmd_spreading(args):
    blocks = [FsVector.basis(i) for i in range(1, args.universe + 1)]
    rep = check_spreading_model(args.space, blocks, args.alpha, args.C,
                                args.universe)
    return _emit(args, rep.to_json(), "pass" if rep.passed else "fail",
                 EXIT_PASS if rep.passed else EXIT_FAIL)


def _cmd_asymp(args):
    C = measure_asymptoticity(args.space, args.alpha, args.universe)
    result = {"C": report_value(C),
              "note": "section measurement at universe %d" % args.universe}
    return _emit(args, result, str(C), EXIT_PASS)


def _cmd_distort(args):
    rep = distortion_scan(args.space, args.derived, args.corpus)
    return _emit(args, rep.to_json(), "lambda = %s" % rep.empirical_lambda,
                 EXIT_PASS)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_schreier_core():
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
                   "passed": str(index_symbolic(s1)) == "w^(1)"})
    return checks


def _suite_norms_exact():
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


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser, built on first use and shared by every later call.

    Each flag is defined once.  Each command, or each action of a
    command, names the flags its handler reads, and only the parser that
    runs it carries them, with --out and --json, and takes no abbreviation
    of them.  "--n=3" gives a flag that is otherwise required a default
    for that one parser.  `main` reads the flags in the order listed."""
    need = {"required": True}
    flags = {
        "--universe": {"type": int, "default": 10},
        "--expr": {"default": "0"}, "--a": {"default": "0"},
        "--b": {"default": "0"}, "--n": {"type": int, **need},
        "--family": need, "--set": {"default": ""},
        "--steps": {"type": int, "default": 1}, "--other": {"default": "S(1)"},
        "--space": need, "--K": {"default": "2"},
        "--tree-mode": {"choices": ("l1", "c0"), "default": "l1"},
        "--vec": need, "--xi": need, "--eta": need, "--epsilon": need,
        "--start": {"type": int, "default": 1}, "--blocks": need,
        "--C1": {"default": "2"}, "--C2": {"default": "2"}, "--alpha": need,
        "--C": need, "--derived": need, "--corpus": need,
        "--out": {}, "--json": {"action": "store_true"}, "name": {},
    }
    weighted = "--space --xi --eta --K --C1 --C2 --start"
    commands = {
        "ord": (_cmd_ord, {"parse": "--expr", "compare": "--a --b",
                           "fundseq": "--expr --n=3"}),
        "fam": (_cmd_fam, {"member": "--family --set",
                           "enumerate": "--family --universe",
                           "derivative": "--family --steps --universe",
                           "index": "--family",
                           "regular": "--family --universe",
                           "tail": "--family --other --universe"}),
        "tree": (_cmd_tree, {"order": "--family --universe",
                             "search": "--space=L1 --family --K --tree-mode "
                                       "--universe"}),
        "norm": (_cmd_norm, {"eval": "--space --vec", "dual": "--space --vec"}),
        "scc": (_cmd_scc, "--xi --eta --epsilon --start"),
        "lemma1": (_cmd_gluing, "--space --n --blocks"),
        "lemma2": (_cmd_gluing, weighted),
        "lemma3": (_cmd_gluing, "--space --n --blocks"),
        "lemma4": (_cmd_gluing, weighted),
        "spreading": (_cmd_spreading, "--space --alpha --C --universe"),
        "asymp": (_cmd_asymp, "--space --alpha --universe"),
        "distort": (_cmd_distort, "--space --derived --corpus"),
        "suite": (_cmd_suite, "name"),
    }

    def add(parsers, name, func, reads):
        sp = parsers.add_parser(name, allow_abbrev=False)
        dests = []
        for item in (reads + " --out --json").split():
            flag, _, default = item.partition("=")
            kw = flags[flag]
            if default:
                kw = dict(kw, default=default, required=False)
            dests.append(sp.add_argument(flag, **kw).dest)
        sp.set_defaults(func=func, reads=tuple(dests))

    p = _Parser(prog="schreierlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (func, reads) in commands.items():
        if isinstance(reads, str):
            add(sub, command, func, reads)
            continue
        actions = sub.add_parser(command).add_subparsers(dest="action",
                                                         required=True)
        for action, action_reads in reads.items():
            add(actions, action, func, action_reads)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse would read the value of a leading flag as the command
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            raise _UsageError("unrecognized arguments: %s (flags follow the "
                              "subcommand)" % argv[0])
        args = build_parser().parse_args(argv)
        if getattr(args, "universe", 0) < 0:
            raise _UsageError("--universe must be >= 0, got %d" % args.universe)
        args.config = {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "reads") and v is not None}
        for name in args.reads:
            if name in _READERS:
                setattr(args, name, _READERS[name](getattr(args, name)))
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
