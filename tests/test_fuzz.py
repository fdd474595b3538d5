"""Grammar fuzzing of the command line.

Ordinal, family, space, rational and vector texts are drawn from their
grammars and then mutated character by character.  Each case runs one
command through `cli.main`; whatever the text, it must end in a
documented exit code, raise nothing and answer within a per-case budget.
The unmutated family and space texts must also survive a round trip
through their parser and back to text.
"""

import contextlib
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from schreierlab import cli
from schreierlab.families import parse_family
from schreierlab.spaces import parse_space

EXIT_CODES = {0, 1, 2, 64, 65}
CASE_SECONDS = 2
# the characters the grammars are written in, plus a few they never use
ALPHABET = "0123456789w^*+/-.,()[]{}SEXPLBRPOWTCMNHASOadmlow\" x"


@st.composite
def ordinals(draw):
    """Cantor normal forms below w^w: strictly decreasing exponents."""
    exponents = sorted(draw(st.sets(st.integers(0, 4), min_size=1,
                                    max_size=3)), reverse=True)
    terms = []
    for e in exponents:
        k = draw(st.integers(1, 3))
        base = "w" if e == 1 else "w^%d" % e
        terms.append(str(k) if e == 0 else base if k == 1 else
                     "%s*%d" % (base, k))
    return "+".join(terms)


rationals = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.builds("-0.{}".format, st.integers(0, 999)),
    st.integers(-3, 12).map(str))
thetas = st.integers(2, 9).flatmap(
    lambda q: st.builds("{}/{}".format, st.integers(1, q - 1), st.just(q)))

listed = st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=4,
                           unique=True).map(sorted), max_size=3).map(
    lambda sets: "EXPL[%s]" % ",".join(
        "{%s}" % ",".join(map(str, s)) for s in sets))

# brackets and powers take regular families only
regular = st.recursive(
    ordinals().map("S({})".format),
    lambda inner: st.one_of(
        st.builds("BR({},{})".format, inner, inner),
        st.builds("POW({},{})".format, inner, st.integers(1, 5))),
    max_leaves=3)
families = st.one_of(regular, listed)

levels = st.builds("(S({}),{})".format, ordinals(), thetas)
spaces = st.recursive(
    st.one_of(st.sampled_from(["C0", "L1", "SCHL"]),
              st.builds("T(S({}),{})".format, ordinals(), thetas),
              st.lists(levels, min_size=1, max_size=3).map(
                  lambda ls: "MT[%s]" % ",".join(ls))),
    lambda inner: st.one_of(
        st.builds("NN({},{})".format, inner, st.integers(1, 4)),
        st.builds("ASSOC({},S({}),{})".format, inner, ordinals(),
                  st.sampled_from(["adm", "allow"]))),
    max_leaves=2)

vectors = st.lists(st.tuples(st.integers(1, 12), rationals), max_size=4,
                   unique_by=lambda p: p[0]).map(json.dumps)

point_sets = st.lists(st.integers(1, 12), max_size=5, unique=True).map(
    lambda s: ",".join(map(str, sorted(s))))


@st.composite
def mutated(draw, texts):
    """A text from the grammar, half the time with up to three characters
    inserted, deleted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(ALPHABET))
        text = draw(st.sampled_from([text[:i] + c + text[i:],
                                     text[:i] + text[i + 1:],
                                     text[:i] + c + text[i + 1:]]))
    return text


commands = st.one_of(
    st.tuples(st.just("ord parse"), mutated(ordinals())).map(
        lambda c: ["ord", "parse", "--expr=" + c[1]]),
    st.tuples(mutated(families), mutated(point_sets)).map(
        lambda c: ["fam", "member", "--family=" + c[0], "--set=" + c[1]]),
    st.tuples(mutated(families), st.integers(0, 8)).map(
        lambda c: ["fam", "enumerate", "--family=" + c[0],
                   "--universe=%d" % c[1]]),
    st.tuples(st.sampled_from(["eval", "dual"]), mutated(spaces),
              mutated(vectors)).map(
        lambda c: ["norm", c[0], "--space=" + c[1], "--vec=" + c[2]]))


@settings(max_examples=300)
@given(commands)
def test_every_text_gets_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - t0 < CASE_SECONDS, argv
    assert code in EXIT_CODES, (argv, code, err.getvalue())


@settings(max_examples=200)
@given(st.one_of(families.map(lambda text: (parse_family, text)),
                 spaces.map(lambda text: (parse_space, text))))
def test_descriptors_round_trip(case):
    parse, text = case
    assert parse(str(parse(text))) == parse(text)
