"""The text readers against the hand-written ones they replaced.

``_reference_parse_scalar`` and ``_reference_parse_state`` are the package's
readers as they were before ``scalars.split_terms``: each split its text with
its own loop (cutting "1e-5" at the exponent's sign), and ``parse_state``
read a bare coefficient as digits and "/" only.  They are kept here as an
oracle: whatever they read, the readers read alike, and whatever they refuse,
the readers refuse too, except the texts ``_newly_read`` names and those
``_read_by_the_sign_rules`` names, which ``test_sign_rule_pins`` pins.
"""

import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from h3orbifold.fock import (ALPHA, BETA, FockState, _normalize_coeff,
                             canonical, parse_state)
from h3orbifold.scalars import ZETA, Scalar, parse_rational, parse_scalar


def _reference_parse_scalar(text):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    chunks = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-/*(":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    a = F(0)
    b = F(0)
    for chunk in chunks:
        if not chunk:
            continue
        neg = chunk.startswith("-")
        body = chunk.lstrip("+-")
        is_z = body.endswith("z")
        if is_z:
            body = body[:-1].rstrip("*")
        coef = F(1) if is_z and body == "" else parse_rational(body)
        if is_z:
            b += -coef if neg else coef
        else:
            a += -coef if neg else coef
    return Scalar(a, b)


def _reference_parse_state(text, rank=3, basis=None):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty state")
    terms = []
    depth = 0
    cur = ""
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "+-*/(":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)

    basis_seen = basis
    parsed = []
    for term in terms:
        if not term:
            continue
        sign = F(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = F(1)
        if term.startswith("("):
            close = term.index(")")
            coeff = _reference_parse_scalar(term[1:close])
            term = term[close + 1:].lstrip("*")
        elif term and term[0].isdigit():
            j = 0
            while j < len(term) and (term[j].isdigit() or term[j] == "/"):
                j += 1
            coeff = _reference_parse_scalar(term[:j])
            term = term[j:].lstrip("*")
        if term.startswith("z"):
            coeff = coeff * ZETA
            term = term[1:].lstrip("*")
        modes = []
        if term not in ("1", ""):
            while term:
                tag = term[0]
                if tag not in (ALPHA, BETA):
                    raise ValueError(f"bad mode tag in {text!r}")
                if basis_seen is None:
                    basis_seen = tag
                elif basis_seen != tag:
                    raise ValueError("mixed mode bases in one state")
                j = 1
                while j < len(term) and term[j].isdigit():
                    j += 1
                if not term.startswith("(", j):
                    raise ValueError(f"expected '(' in {text!r}")
                field = int(term[1:j])
                if not 1 <= field <= rank:
                    raise ValueError(f"field index {field} outside rank {rank}")
                close = term.index(")", j)
                level = int(term[j + 1:close])
                if level >= 0:
                    raise ValueError("creation modes must have negative level")
                modes.append((-level, field))
                term = term[close + 1:]
        parsed.append((modes, sign * coeff))

    out = FockState(rank, basis_seen or ALPHA)
    for modes, c in parsed:
        out._add_term(canonical(modes), _normalize_coeff(c))
    return out


_SIGNED_EXPONENT = re.compile(r"[\d.][eE][-+]")


def _newly_read(text, bare_coefficients):
    """Whether text may be read now though the reference readers refused it:
    it holds a signed exponent ("1e-5"), or, for states, outside parentheses
    a character of a number that the reference read only in parentheses,
    which only a bare coefficient can hold now: '.', 'e', 'E', '_' or
    whitespace other than a space ("1.5*a1(-1)", "2e3*a1(-1)",
    "1_000*a1(-1)", "2\t*a1(-1)")."""
    s = text.replace(" ", "")
    if _SIGNED_EXPONENT.search(s):
        return True
    depth = 0
    for ch in s:
        depth += (ch == "(") - (ch == ")")
        if bare_coefficients and depth == 0 and (ch in ".eE_" or ch.isspace()):
            return True
    return False


#: a run of signs that may lead a term: not after "*", "/" or an exponent's e
_LEADING_SIGNS = re.compile(r"(?<![*/eE])[-+]+")


def _read_by_the_sign_rules(text, state):
    """Whether the readers may read text otherwise than the reference ones
    by the two sign rules of ``scalars.split_terms``: a term's sign is the
    parity of all its leading signs, where the reference scalar reader took
    the first one ("--1", and for states a scalar in parentheses,
    "(+-1)*a1(-1)"), and a term of signs alone is refused, where the
    reference state reader read it as 1 or -1 (a state ending in "-" or
    "a1(-1)+")."""
    s = text.replace(" ", "")
    for m in _LEADING_SIGNS.finditer(s):
        run = m.group()
        depth = s.count("(", 0, m.start()) - s.count(")", 0, m.start())
        if state and depth == 0:
            if m.end() == len(s):
                return True
        elif (run.count("-") % 2 == 1) != run.startswith("-"):
            return True
    return False


def _outcome(read, text):
    """read(text), or None where it refuses the text with ValueError."""
    try:
        return read(text)
    except ValueError:
        return None


ALPHABET = "ab0123z()+-*/.eE_ "
#: pieces of states over the same alphabet, so that most joined texts are
#: close to readable ones
PIECES = ["a1(-1)", "b2(-2)", "a3(-1_0)", "b1(-1)", "a", "b", "(", ")", "+",
          "-", "*", "/", "z", "0", "1", "2", "3", ".", "e", "E", "_", " ",
          "(1+z)", "(1-z)", "1/2", "(-1)", "1e-1", "2.5", "1e+2"]
#: signs, a coefficient, stars and modes, most of them readable
TERMS = st.tuples(
    st.sampled_from(["", "+", "-", "--", " - "]),
    st.sampled_from(["", "2", "11", "1/2", "(1+z)", "(3/2)", "z", "2z",
                     "(2)z", "(-1)", "1.5", "2e3", "1e-5", "(1e-5)", "3_0"]),
    st.sampled_from(["", "*", "**"]),
    st.sampled_from(["", "1", "a1(-1)", "a1(-2)a2(-1)", "b2(-1)b3(-1)",
                     "b1(-1)"])).map("".join)
TEXTS = (st.text(alphabet=ALPHABET, max_size=20)
         | st.lists(st.sampled_from(PIECES), max_size=8).map("".join)
         | st.lists(TERMS, min_size=1, max_size=3).map("".join))


@settings(max_examples=2000, deadline=None)
@given(TEXTS)
def test_parse_state_reads_as_the_reference_reader(text):
    assume(not _read_by_the_sign_rules(text, state=True))
    want = _outcome(_reference_parse_state, text)
    got = _outcome(parse_state, text)
    if want is not None:
        assert got == want and str(got) == str(want)
    elif got is not None:
        assert _newly_read(text, bare_coefficients=True), text


@settings(max_examples=2000, deadline=None)
@given(TEXTS)
def test_parse_scalar_reads_as_the_reference_reader(text):
    assume(not _read_by_the_sign_rules(text, state=False))
    want = _outcome(_reference_parse_scalar, text)
    got = _outcome(parse_scalar, text)
    if want is not None:
        assert got == want
    elif got is not None:
        assert _newly_read(text, bare_coefficients=False), text


def _state(coeff, modes=(), basis=ALPHA):
    return FockState.monomial(3, list(modes), coeff, basis)


@pytest.mark.parametrize("text, want", [
    ("11", _state(F(11))),
    ("(1e-5)*a1(-1)", _state(F(1, 100000), [(1, 1)])),
    ("1e-5*a1(-1)", _state(F(1, 100000), [(1, 1)])),
    ("1.5*a1(-1)", _state(F(3, 2), [(1, 1)])),
    ("2e3*a1(-1)", _state(F(2000), [(1, 1)])),
    ("-(1 - z)*b1(-1)", _state(Scalar(-1, 1), [(1, 1)], BETA)),
    ("a1(\t-1 )a2(-1_0)", _state(F(1), [(10, 2), (1, 1)])),
])
def test_parse_state_pins(text, want):
    assert parse_state(text) == want


@pytest.mark.parametrize("read, text, want", [
    (parse_scalar, "--1", F(1)),
    (parse_scalar, "+-z", -ZETA),
    (parse_scalar, "1--2", F(3)),
    (parse_scalar, "-+-1/2+z", Scalar(F(1, 2), 1)),
    (parse_state, "(--1)*a1(-1)", _state(F(1), [(1, 1)])),
    (parse_state, "(+-1)*a1(-1)", _state(F(-1), [(1, 1)])),
    (parse_state, "-(+-2z)*b1(-1)", _state(2 * ZETA, [(1, 1)], BETA)),
    (parse_state, "--a1(-1)", _state(F(1), [(1, 1)])),
    (parse_state, "-", None),
    (parse_state, "+-", None),
    (parse_state, "a1(-1)+", None),
    (parse_state, "a1(-1) - ", None),
    (parse_scalar, "1+", None),
    (parse_scalar, "-", None),
])
def test_sign_rule_pins(read, text, want):
    if want is None:
        with pytest.raises(ValueError, match="a term of signs alone"):
            read(text)
    else:
        assert read(text) == want


@pytest.mark.parametrize("text, message", [
    ("(1", "unbalanced parentheses in state '(1'"),
    ("a1(-1))", "unbalanced parentheses"),
    ("a(-1)", "bad modes 'a(-1)' in 'a(-1)'"),
    ("a1(-1)a1(x)", "bad modes 'a1(-1)a1(x)'"),
    ("a1(-1) + b1(-1)", "mixed mode bases in 'a1(-1) + b1(-1)'"),
    ("(2)(3)*a1(-1)", "bad coefficient '(2)(3)*' in '(2)(3)*a1(-1)'"),
    ("*a1(-1)", "bad coefficient '*' in '*a1(-1)': nothing before '*'"),
    ("c1(-1)", "bad coefficient 'c1(-1)' in 'c1(-1)': Invalid literal"),
    ("3/0*a1(-1)", "bad coefficient '3/0*' in '3/0*a1(-1)': zero denominator"),
])
def test_parse_state_names_the_bad_text(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_state(text)
