from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from percolab.core import (
    CylinderPattern,
    EnvSymbol,
    Params,
    StochOrder,
    SYMBOLS,
    TRIPLE_CLASSES,
    as_fraction,
    iter_words,
    symbol_leq,
    upper_sets,
    word_str,
)

from percolab.measures import product_measure, pushforward_cylinder

from oracles import (LocalDistribution, as_dict, mass, prob, rule_law, text_span, text_words,
                     word_in_text, word_index)

Z, Q, O = EnvSymbol.ZERO, EnvSymbol.QMARK, EnvSymbol.ONE


# ---------------------------------------------------------------- symbols

def test_symbol_chars():
    assert [str(s) for s in SYMBOLS] == ["0", "?", "1"]
    for s in SYMBOLS:
        assert EnvSymbol.from_char(str(s)) is s
    with pytest.raises(ValueError):
        EnvSymbol.from_char("x")


def test_total_order_is_total_and_transitive():
    leq = lambda a, b: symbol_leq(StochOrder.TOTAL, a, b)
    for a in SYMBOLS:
        for b in SYMBOLS:
            assert leq(a, b) or leq(b, a)
            if leq(a, b) and leq(b, a):
                assert a is b
            for c in SYMBOLS:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)
    assert leq(Z, Q) and leq(Q, O) and leq(Z, O)


def test_partial_order_comparabilities():
    leq = lambda a, b: symbol_leq(StochOrder.PARTIAL, a, b)
    expected_true = {(Z, Z), (Q, Q), (O, O), (Z, Q), (O, Q)}
    got = {(a, b) for a in SYMBOLS for b in SYMBOLS if leq(a, b)}
    assert got == expected_true


def test_upper_sets_exact():
    assert upper_sets(StochOrder.TOTAL) == (
        frozenset({O}),
        frozenset({Q, O}),
        frozenset({Z, Q, O}),
    )
    assert upper_sets(StochOrder.PARTIAL) == (
        frozenset({Q}),
        frozenset({Z, Q}),
        frozenset({Q, O}),
        frozenset({Z, Q, O}),
    )


# ---------------------------------------------------------------- params

def test_params_arithmetic():
    pr = Params(Fraction(1, 5), Fraction(3, 10))
    assert pr.r == Fraction(1, 2)
    assert pr.p + pr.q + pr.r == 1
    assert pr.in_region


def test_params_accepts_strings_and_ints():
    assert Params("1/3", "0.25").r == Fraction(5, 12)
    assert Params(1, 0).r == 0
    assert not Params(0, 0).in_region


def test_params_rejects_bad_values():
    with pytest.raises(ValueError):
        Params(Fraction(3, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        Params(Fraction(-1, 4), Fraction(1, 2))
    with pytest.raises(TypeError):
        Params(0.3, 0.2)  # floats are inexact; must be given as strings


def test_equal_params_are_equal_and_hash_alike():
    a, b = Params(Fraction(1, 3), Fraction(1, 5)), Params("1/3", "0.2")
    # what a point keeps for itself takes no part in equality or hashing
    pushforward_cylinder(product_measure(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), "10?", a)
    assert a.memo and not b.memo
    assert a == b and hash(a) == hash(b) == hash((a.p, a.q))
    assert a != Params(Fraction(1, 5), Fraction(1, 3))
    # a point is frozen: its fields, and the memo itself, cannot be rebound
    for name in ("p", "q", "memo"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.p == Fraction(1, 3) and repr(a) == "Params(p=Fraction(1, 3), q=Fraction(1, 5))"


def test_cylinder_patterns_are_values():
    # one event parsed twice is one key: equal, hashing alike, and frozen
    a, b = CylinderPattern.parse("1 [0?] ***"), CylinderPattern.parse("1 [0?] ***")
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != CylinderPattern.parse("1 [0?] **")
    with pytest.raises(AttributeError):
        a.span = 7


rationals_01 = st.builds(
    lambda num, den: Fraction(num, den),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=64),
).filter(lambda f: f <= 1)


@given(rationals_01, rationals_01)
def test_params_sum_exact(p, q):
    if p + q > 1:
        q = 1 - p
    pr = Params(p, q)
    assert pr.p + pr.q + pr.r == 1


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.3)
    assert as_fraction("0.3") == Fraction(3, 10)
    assert as_fraction("2/7") == Fraction(2, 7)


def test_as_fraction_turns_numpy_integers_into_ints():
    # a numpy numerator wraps in exact products and fails Fraction.__hash__
    np = pytest.importorskip("numpy")
    for x in (np.int64(3), np.uint8(3), Fraction(np.int64(6), np.int64(2))):
        f = as_fraction(x)
        assert f == 3 and type(f.numerator) is int and type(f.denominator) is int
    a, b = Params(Fraction(np.int64(1), np.int64(997)), 0), Params(Fraction(1, 997), 0)
    assert a == b and hash(a) == hash(b)
    assert type(a.p.numerator) is int and type(a.p.denominator) is int
    law = LocalDistribution(np.int64(0), Fraction(np.int64(1), np.int64(2)), Fraction(1, 2))
    assert all(type(v.numerator) is int and type(v.denominator) is int
               for v in (law.prob0, law.probQ, law.prob1))


# ---------------------------------------------------------------- distributions

def test_local_distribution_exact_sum():
    d = LocalDistribution(Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))
    assert prob(d, Q) == Fraction(1, 2)
    assert mass(d, {Z, O}) == Fraction(1, 2)
    with pytest.raises(ValueError):
        LocalDistribution(Fraction(1, 5), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        LocalDistribution(Fraction(-1, 5), Fraction(1, 2), Fraction(7, 10))


def test_local_distribution_rejects_floats():
    for entries in ((0.25, Fraction(1, 4), Fraction(1, 2)),
                    (Fraction(1, 4), Fraction(1, 4), 0.5),
                    (0.25, 0.25, 0.5)):
        with pytest.raises(TypeError):
            LocalDistribution(*entries)
    d = LocalDistribution(0, 1, 0)
    assert all(type(v) is Fraction for v in (d.prob0, d.probQ, d.prob1))


# ---------------------------------------------------------------- local rule

def law(triple, params=Params(Fraction(1, 5), Fraction(3, 10))):
    """The exact one-site output law of ``triple``, through its class: its row
    of ``law_masses`` over the scale, which must be a distribution."""
    scale, masses = params.law_masses
    row = masses[TRIPLE_CLASSES[word_index(triple)]]
    return LocalDistribution(*(Fraction(m, scale) for m in row))


LAW_GRID = [Params(Fraction(1, 5), Fraction(3, 10)), Params(0, 1), Params(1, 0), Params(0, 0),
            Params(Fraction(2, 5), Fraction(3, 5))]


@pytest.mark.parametrize("params", LAW_GRID, ids=str)
def test_laws_are_indexed_by_the_triple_class(params):
    # law_masses[c] is the law of the triples of class c: read through
    # TRIPLE_CLASSES, against the law written out case by case
    for triple in iter_words(3):
        assert law(triple, params) == rule_law(triple, params), triple


@pytest.mark.parametrize("p, q, scaled", [
    (Fraction(1, 4), Fraction(1, 6), (12, 3, 2)), (Fraction(1, 3), Fraction(1, 5), (15, 5, 3)),
    (Fraction(0), Fraction(1), (1, 0, 1)), (Fraction(0), Fraction(0), (1, 0, 0)),
    (Fraction(2, 5), Fraction(3, 5), (5, 2, 3))])
def test_scaled_puts_p_and_q_over_the_least_common_denominator(p, q, scaled):
    params = Params(p, q)
    assert params.scaled == scaled
    s, a, b = scaled
    assert (Fraction(a, s), Fraction(b, s)) == (p, q)
    assert params.law_masses[0] == s


def test_class_law_binary():
    # a triple without ? is never MIXED: the binary automaton's two laws
    params = Params(Fraction(3, 10), Fraction(1, 2))
    assert as_dict(law((Z, Z, Z), params)) == {"0": Fraction(3, 10), "?": Fraction(0),
                                               "1": Fraction(7, 10)}
    assert as_dict(law((Z, O, Z), params)) == {"0": Fraction(1, 2), "?": Fraction(0),
                                               "1": Fraction(1, 2)}


def test_class_law_envelope():
    assert as_dict(law((Q, Z, Z))) == {"0": Fraction(1, 5), "?": Fraction(1, 2),
                                       "1": Fraction(3, 10)}
    assert as_dict(law((Z, Z, Z))) == {"0": Fraction(1, 5), "?": Fraction(0),
                                       "1": Fraction(4, 5)}
    # any 1 in the window wins over any ?
    assert as_dict(law((Q, O, Q))) == {"0": Fraction(7, 10), "?": Fraction(0),
                                       "1": Fraction(3, 10)}


def test_class_law_r_zero_collapses():
    for triple in [(Q, Q, Q), (Z, Q, Z), (Q, Z, Q)]:
        assert law(triple, Params(Fraction(2, 5), Fraction(3, 5))).probQ == 0


# ---------------------------------------------------------------- patterns

def _rendered(pat):
    """The words of a parsed pattern, written back out from their indices."""
    return [word_str(EnvSymbol(i // 3 ** (pat.span - 1 - j) % 3) for j in range(pat.span))
            for i in pat.indices]


def test_parse_and_render():
    pat = CylinderPattern.parse("1 [0?] ***")
    assert pat.span == 5
    assert len(pat.indices) == 2 * 7
    assert CylinderPattern.parse("100?").span == 4
    assert _rendered(CylinderPattern.parse("1 0 0 ?")) == ["100?"]
    assert _rendered(CylinderPattern.parse("**")) == ["0?", "?0", "??"]
    assert _rendered(CylinderPattern.parse("[1?0] 0?")) == ["00?", "?0?", "10?"]
    assert CylinderPattern.parse("  [0?]   1 ") == CylinderPattern.parse("[?0] 1")


def test_parse_rejects_malformed():
    for text in ("", "   ", "[]", "[0?", "*", "****", "1x", "[0x]", "0 ]"):
        with pytest.raises(ValueError):
            CylinderPattern.parse(text)


def test_hat3_event_is_seven_words():
    words = text_words("***")
    assert len(words) == 7
    assert all(O not in w for w in words)
    assert (Z, Z, Z) not in words
    assert word_in_text((Q, Q, Z), "***")
    assert not word_in_text((Z, Z, Z), "***")
    assert _rendered(CylinderPattern.parse("***")) == [word_str(w) for w in words]


def test_one_hat2_expansion():
    words = {word_str(w) for w in text_words("1 **")}
    assert words == {"1?0", "10?", "1??"}
    assert word_in_text((O, Z, Q), "1 **")
    assert set(_rendered(CylinderPattern.parse("1 **"))) == words


def test_plain_pattern_expands_to_itself():
    # a run of bare symbols names one word: the run itself
    pat = CylinderPattern.parse("1 0 0 ?")
    assert pat == CylinderPattern.parse("100?")
    assert pat.indices == (word_index((O, Z, Z, Q)),)


def _hits(pat, word):
    """How many times the pattern's word-index list names ``word``."""
    return pat.indices.count(word_index(word))


def test_expansion_disjoint_and_complete():
    # the parsed word list names each word of the event exactly once, and no other
    for text in ["***", "1 **", "** ***", "[0?] *** 1", "*** ***"]:
        pat = CylinderPattern.parse(text)
        for w in iter_words(pat.span):
            assert _hits(pat, w) == (1 if word_in_text(w, text) else 0)


_tokens = st.one_of(
    st.text("0?1", min_size=1, max_size=3),  # a bare run; length 1 is a singleton
    st.sets(st.sampled_from("0?1"), min_size=1).map(lambda cs: "[" + "".join(cs) + "]"),
    st.just("**"),
    st.just("***"),
)


@given(st.lists(_tokens, min_size=1, max_size=4))
def test_membership_matches_expansion(tokens):
    # the parsed indices are the event's words, each once, against a membership
    # test read straight off the text
    text = " ".join(tokens)
    pat = CylinderPattern.parse(text)
    assert pat.span == text_span(text)
    if pat.span > 7:
        return
    assert len(set(pat.indices)) == len(pat.indices)
    assert list(pat.indices) == sorted(word_index(w) for w in text_words(text))
    for w in iter_words(pat.span):
        assert _hits(pat, w) == (1 if word_in_text(w, text) else 0)


def test_word_length_mismatch_raises():
    with pytest.raises(ValueError):
        word_in_text((Z, Z), "***")
