import functools
import gc
import itertools
import json
import math
import random
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percolab.core import CylinderPattern, EnvSymbol, Params, as_fraction, iter_words
from percolab import measures
from percolab.measures import (
    CLOSED_FORM_IDS,
    FORMULA_GRID,
    ORDER,
    ClosedFormResult,
    MeasureFamily,
    TIMeasure,
    WeightReport,
    closed_form,
    cylinder_prob,
    empirical_measure,
    point_mass,
    product_measure,
    pushforward_cylinder,
    random_measure,
    reversible_markov_measure,
    sampled_measures,
    stationary_conclusion_check,
    table_structure,
    verify_master_inequality,
    verify_table_inequality,
    weight,
)
from percolab.pca import (
    Configuration,
    ModelSpec,
    SeededStream,
    last_row,
    step,
)

import oracles
from oracles import (
    IDENTITIES,
    WEIGHT_SPANS,
    closed_form_json,
    config_from_symbols,
    text_span,
    text_words,
    verify_identity,
    word_index,
    word_prob,
    written_alt_1q01,
)

Z, Q, O = EnvSymbol.ZERO, EnvSymbol.QMARK, EnvSymbol.ONE

PP = Params(Fraction(1, 5), Fraction(3, 10))
FORMULA_POINTS = tuple(Params(p, q) for p, q in FORMULA_GRID)
GRID = [
    PP,
    Params(Fraction(1, 2), Fraction(1, 2)),
    Params(0, 1),
    Params(1, 0),
    Params(Fraction(1, 100), Fraction(1, 100)),
    Params(Fraction(2, 3), 0),
    Params(0, Fraction(2, 3)),
]

PRODUCT = product_measure(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
MARKOV = reversible_markov_measure([[2, 1, 0], [1, 2, 1], [0, 1, 2]])


def _invariant_measures(n_random=3):
    rng = random.Random(20260816)
    mus = [PRODUCT, MARKOV, point_mass(Z), point_mass(O), point_mass(Q)]
    for _ in range(n_random):
        mus.append(random_measure(MeasureFamily.PRODUCT, rng))
        mus.append(random_measure(MeasureFamily.REVERSIBLE_MARKOV, rng))
    return mus


def _asymmetric_empirical(width=300):
    rng = np.random.default_rng(5)
    row = Configuration(rng.integers(0, 3, size=width).astype(np.int8))
    mu = empirical_measure(row)
    assert not mu.reflection_invariant  # the point of this fixture
    return mu


# ------------------------------------------------------------------ construction

def test_product_measure_values():
    assert cylinder_prob(PRODUCT, "?") == Fraction(3, 10)
    assert cylinder_prob(PRODUCT, "0?") == Fraction(3, 20)
    assert cylinder_prob(PRODUCT, "***") == Fraction(387, 1000)
    assert cylinder_prob(PRODUCT, "[01?]") == 1
    assert word_prob(PRODUCT, (Z, Q, O)) == Fraction(3, 100)
    assert PRODUCT.reflection_invariant


def test_markov_measure_values():
    # weights [[2,1,0],[1,2,1],[0,1,2]]: row sums (3,4,3), pi = (3/10, 2/5, 3/10)
    assert cylinder_prob(MARKOV, "0") == Fraction(3, 10)
    assert cylinder_prob(MARKOV, "0?") == Fraction(1, 10)
    assert word_prob(MARKOV, (Z, Q, O)) == Fraction(1, 40)
    assert word_prob(MARKOV, (O, Q, Z)) == Fraction(1, 40)
    assert MARKOV.reflection_invariant


def test_point_mass():
    mu = point_mass(Z)
    assert cylinder_prob(mu, "000000") == 1
    assert cylinder_prob(mu, "?") == 0
    assert cylinder_prob(mu, "***") == 0


def _table(*words):
    """A 3^ORDER-entry table counting each given word once."""
    table = [0] * 3**ORDER
    for word in words:
        table[word_index(word)] += 1
    return table


def test_measure_validation():
    zeros = _table((Z,) * ORDER)
    for size in (3**(ORDER - 1), 3**(ORDER + 1)):
        with pytest.raises(ValueError, match="entries"):
            TIMeasure.from_table([1] + [0] * (size - 1), 1, "x")
    with pytest.raises(ValueError, match="negative"):
        TIMeasure.from_table([2, -1] + zeros[2:], 1, "x")
    with pytest.raises(ValueError, match="sums"):
        TIMeasure.from_table([1] * 3**ORDER, 2 * 3**ORDER, "x")
    with pytest.raises(ValueError, match="denominator"):
        TIMeasure.from_table([0] * 3**ORDER, 0, "x")
    with pytest.raises(ValueError, match="denominator"):
        TIMeasure.from_table([-1] + zeros[1:], -1, "x")
    # entries and denominator are exact ints: no float, Fraction, bool or numpy int
    for counts, den in (([0.5, 0.5] + zeros[2:], 1), (zeros, 1.0),
                        ([Fraction(1)] + zeros[1:], 1), ([bool(c) for c in zeros], 1),
                        (list(np.array(zeros)), 1)):
        with pytest.raises(TypeError, match="int"):
            TIMeasure.from_table(counts, den, "x")
    # all mass on 0?????: the leftmost site is 0 and the rightmost is ?
    with pytest.raises(ValueError, match="translation"):
        TIMeasure.from_table(_table((Z,) + (Q,) * (ORDER - 1)), 1, "x")
    # the three windows of the cyclic row 0?1 0?1, read left to right
    cycle = (Z, Q, O) * 3
    mu = TIMeasure.from_table(_table(*(cycle[i:i + ORDER] for i in range(3))), 3, "x")
    assert (cylinder_prob(mu, "0"), cylinder_prob(mu, "0?"), cylinder_prob(mu, "?0")) == (
        Fraction(1, 3), Fraction(1, 3), 0)
    assert cylinder_prob(mu, "0?10?1") == Fraction(1, 3)
    assert not mu.reflection_invariant


def test_markov_validation():
    with pytest.raises(ValueError, match="symmetric"):
        reversible_markov_measure([[1, 2, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="non-negative"):
        reversible_markov_measure([[1, -1, 0], [-1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="zero"):
        reversible_markov_measure([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    # a zero row sum is allowed: that symbol just never occurs
    mu = reversible_markov_measure([[2, 0, 0], [0, 0, 0], [0, 0, 2]])
    assert cylinder_prob(mu, "?") == 0
    assert cylinder_prob(mu, "0") == Fraction(1, 2)


def test_markov_name_holds_the_exact_weights():
    # integer weights print as the list of lists they are, as reports show them
    assert MARKOV.name == "markov([[2, 1, 0], [1, 2, 1], [0, 1, 2]])"
    half = reversible_markov_measure([[Fraction(1, 2), 1, 0], [1, 0, 0], [0, 0, 1]])
    assert half.name == "markov([[1/2, 1, 0], [1, 0, 0], [0, 0, 1]])"
    # a weight given as a string is as exact as the Fraction it parses to
    text = reversible_markov_measure([["1/2", 1, 0], [1, 0, 0], [0, 0, 1]])
    assert text.name == half.name and text.counts == half.counts


def test_markov_reads_numpy_integer_weights():
    weights = [[3, 1, 0], [1, 0, 0], [0, 0, 1]]
    want = reversible_markov_measure(weights)
    for w in (np.array(weights, dtype=np.int64), [[np.int64(x) for x in row] for row in weights]):
        got = reversible_markov_measure(w)
        assert (got.counts, got.den, got.name) == (want.counts, want.den, want.name)


def test_random_families():
    rng = random.Random(1)
    for _ in range(20):
        mu = random_measure(MeasureFamily.PRODUCT, rng)
        assert mu.reflection_invariant
        assert cylinder_prob(mu, "0").denominator <= 64
        mk = random_measure(MeasureFamily.REVERSIBLE_MARKOV, rng)
        assert mk.reflection_invariant


def test_empirical_measure_small_row():
    row = config_from_symbols([Z, Q, O, Z])
    mu = empirical_measure(row)
    assert word_prob(mu, (Z, Q)) == Fraction(1, 4)
    assert word_prob(mu, (Q, O)) == Fraction(1, 4)
    assert word_prob(mu, (O, Z)) == Fraction(1, 4)
    assert word_prob(mu, (Z, Z)) == Fraction(1, 4)
    assert word_prob(mu, (Q, Z)) == 0
    assert not mu.reflection_invariant
    assert cylinder_prob(mu, "0") == Fraction(1, 2)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 7, 10**6])
def test_empirical_measure_counts_match_the_roll_oracle(width):
    # the window index is read from one cyclic extension of the row; a row
    # narrower than a word wraps round more than once
    cells = np.random.default_rng(width).integers(0, 3, size=width).astype(np.int8)
    mu = empirical_measure(Configuration(cells))
    assert list(mu.counts[ORDER]) == oracles.empirical_counts(cells) and mu.den == width


def test_empirical_measure_peaks_below_16_bytes_a_site():
    # the int16 index, the int8 extension and bincount's int64 copy of the
    # index: 12 traced bytes a site at width 10**6 (the int64 index with one
    # np.roll copy per order took 32)
    width = 10**6
    row = Configuration(np.random.default_rng(3).integers(0, 3, size=width).astype(np.int8))
    tracemalloc.start()
    try:
        empirical_measure(row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * width


def test_empirical_measure_errors():
    # word windows run along one row; a stack's rows would run into each other
    stack = Configuration(np.array([[0, 1, 2, 0], [2, 2, 0, 1]], dtype=np.int8))
    with pytest.raises(ValueError, match="stack"):
        empirical_measure(stack)


def test_cylinder_prob_errors_and_hats():
    with pytest.raises(ValueError, match="span"):
        cylinder_prob(PRODUCT, "0000000")
    # no word is counted twice: *** equals the sum over its seven plain words
    manual = sum(word_prob(MARKOV, w) for w in iter_words(3)
                 if any(s is Q for s in w) and not any(s is O for s in w))
    assert cylinder_prob(MARKOV, "***") == manual


def test_every_pattern_text_parses_to_its_word_set(monkeypatch):
    # record the texts the exact checks parse: the catalog and its writings, the
    # weight chain, the master terms and the window-table rows
    texts = set()
    real = measures._event

    def recording(text):
        texts.add(text)
        return real(text)

    monkeypatch.setattr(measures, "_event", recording)
    # a fresh copy of MARKOV: a measure keeps the cylinder counts it has read
    mu = reversible_markov_measure([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    for fid in CLOSED_FORM_IDS:
        closed_form(fid, mu, PP)
    verify_master_inequality(mu, PP)
    for which in ("ineq_1", "ineq_2"):
        verify_table_inequality(which, mu)
    for rows, scope, _ in measures._TABLES.values():  # table_structure is cached
        for row in rows + (scope,):
            measures._window_words(row)
    master = {pat for _, _, terms in measures._MASTER_TERMS for _, pat in terms}
    assert set(CLOSED_FORM_IDS) | set(WEIGHT_SPANS) | master <= texts
    for text in sorted(texts):
        indices = real(text).indices
        assert len(set(indices)) == len(indices), text
        assert set(indices) == {word_index(w) for w in text_words(text)}, text


# ------------------------------------------------------------------ pushforward

def test_pushforward_frozen_example():
    assert pushforward_cylinder(PRODUCT, "?", PP) == Fraction(387, 2000)


@functools.lru_cache(maxsize=None)
def _oracle_kernel(pat_text, params):
    """kernel[u] built word by word, u in base-3 index order: the sum over the output
    words w in the pattern of prod_j P(site j becomes w_j | u[j:j+3])."""
    laws = {}
    for t in iter_words(3):
        law = oracles.rule_law(t, params)
        laws[tuple(s.value for s in t)] = (law.prob0, law.probQ, law.prob1)
    outputs = [tuple(s.value for s in w) for w in text_words(pat_text)]
    span = text_span(pat_text)
    kernel = []
    for u in itertools.product(range(3), repeat=span + 2):
        site_laws = [laws[u[j:j + 3]] for j in range(span)]
        total = Fraction(0)
        for w in outputs:
            factors = [law[s] for law, s in zip(site_laws, w)]
            if all(factors):
                total += math.prod(factors)
        kernel.append(total)
    return kernel


def test_pushforward_against_direct_enumeration():
    # independent oracle: no signature grouping, no parsed word set, no kernel reuse
    edges = [pt for pt in FORMULA_POINTS if pt.p == 0 or pt.q == 0 or pt.p + pt.q == 1]
    points = [PP, Params(0, 0)] + edges
    patterns = sorted(set(CLOSED_FORM_IDS) | set(WEIGHT_SPANS)) + ["1 ***", "[0?] ***"]
    # the skewed empirical measure is not reflection invariant, so a kernel
    # read in mirror image fails on it
    measures = [PRODUCT, MARKOV, _skewed_empirical()] + [point_mass(s) for s in (Z, Q, O)]
    for params in points:
        for pat_text in patterns:
            kernel = _oracle_kernel(pat_text, params)
            for mu in measures:
                marg = [Fraction(c, mu.den) for c in mu.counts[text_span(pat_text) + 2]]
                want = sum((m * k for m, k in zip(marg, kernel) if m and k), Fraction(0))
                assert pushforward_cylinder(mu, pat_text, params) == want, \
                    (pat_text, mu.name, str(params))


def test_signature_groups_match_the_per_word_classes():
    # same groups in the same first-word order, each under the base-3 reading
    # of its signature, leftmost triple most significant
    for span in range(1, 5):
        want = oracles.signature_groups(span)
        got = measures._signature_groups(span)
        assert [words for _, words in got] == [words for _, words in want], span
        codes = [code for code, _ in got]
        assert codes == [sum(c * 3 ** (span - 1 - j) for j, c in enumerate(sig))
                         for sig, _ in want], span
        assert len(set(codes)) == len(codes)
    assert [len(measures._signature_groups(span)) for span in range(1, 5)] == [3, 9, 22, 46]


# A rational in [0, 1] whose denominator runs up to 10^6; a point's q is such a
# fraction of 1 - p.
_fine_unit = st.integers(1, 10**6).flatmap(lambda d: st.builds(Fraction, st.integers(0, d),
                                                               st.just(d)))


@st.composite
def _kernel_points(draw):
    a, b = draw(_fine_unit), draw(_fine_unit)
    edge = draw(st.sampled_from(["inside", "p = 0", "q = 0", "r = 0"]))
    p = Fraction(0) if edge == "p = 0" else a
    q = {"q = 0": Fraction(0), "r = 0": 1 - p}.get(edge, b * (1 - p))
    return Params(p, q)


@st.composite
def _kernel_patterns(draw):
    """A pattern of span 1 to 4 built from every token kind."""
    span = draw(st.integers(1, 4))
    tokens, used = [], 0
    while used < span:
        room = span - used
        tok = draw(st.one_of(
            st.text("0?1", min_size=1, max_size=min(room, 3)),
            st.sets(st.sampled_from("0?1"), min_size=1).map(lambda cs: "[" + "".join(cs) + "]"),
            *[st.just(hat) for hat in ("**", "***") if len(hat) <= room]))
        tokens.append(tok)
        used += text_span(tok)
    return " ".join(tokens)


# reflection-invariant measures cannot tell a kernel from its mirror image, so
# an asymmetric one rides along
_KERNEL_MEASURES = sampled_measures(2, 4242) + [_asymmetric_empirical()]


@settings(max_examples=40, deadline=None)
@given(_kernel_points(), _kernel_patterns(), st.sampled_from(_KERNEL_MEASURES))
def test_pushforward_matches_the_oracle_kernel_at_rational_points(params, pat_text, mu):
    kernel = _oracle_kernel(pat_text, params)
    marg = mu.counts[text_span(pat_text) + 2]
    want = sum((Fraction(c, mu.den) * k for c, k in zip(marg, kernel) if c and k), Fraction(0))
    assert pushforward_cylinder(mu, pat_text, params) == want


def test_a_point_built_from_numpy_integers_computes_like_the_int_built_point():
    # numpy numerators used to wrap in the kernel's products (overflow warnings
    # and a wrong value)
    np_point = Params(as_fraction(np.int64(1)) / 997, as_fraction(np.int64(2)) / 991)
    int_point = Params(Fraction(1, 997), Fraction(2, 991))
    mu = sampled_measures(1, 1729)[3]
    kernel = _oracle_kernel("1?01", int_point)
    want = sum((Fraction(c, mu.den) * k for c, k in zip(mu.counts[6], kernel) if c and k),
               Fraction(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pushforward_cylinder(mu, "1?01", np_point) == want
        assert pushforward_cylinder(mu, "1?01", int_point) == want
        got = verify_master_inequality(mu, np_point).to_json_dict()
    assert got == verify_master_inequality(mu, int_point).to_json_dict()


# Word probabilities of each fixture straight from its definition, one word at a
# time in Fraction arithmetic: no integer counts, no shared denominator.

def _product_word_prob(marg):
    return lambda word: math.prod((marg[s] for s in word), start=Fraction(1))


def _markov_word_prob(weights):
    row = [sum(r) for r in weights]

    def prob(word):
        if not word:
            return Fraction(1)
        out = Fraction(row[word[0]], sum(row))
        for a, b in zip(word, word[1:]):
            out *= Fraction(weights[a][b], row[a]) if row[a] else Fraction(a == b)
        return out
    return prob


def _empirical_word_prob(cells):
    n = len(cells)
    return lambda word: Fraction(
        sum(all(cells[(i + j) % n] == s for j, s in enumerate(word)) for i in range(n)), n)


def _oracle_fixtures():
    """(measure, word probability from the definition) for each measure kind."""
    marg = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
    zero_row = [[2, 0, 1], [0, 0, 0], [1, 0, 3]]  # ? has row sum 0: never seen
    cells = np.random.default_rng(11).integers(0, 3, size=40).astype(np.int8)
    # the row 1000?0 repeated: its mirror image has other window counts, so an
    # event read backwards has another pushforward
    skew = np.array([2, 0, 0, 0, 1, 0] * 7, dtype=np.int8)
    out = [(product_measure(*marg), _product_word_prob(marg)),
           (reversible_markov_measure(zero_row), _markov_word_prob(zero_row))]
    for row in (cells, skew):
        out.append((empirical_measure(Configuration(row)),
                    _empirical_word_prob(row.tolist())))
    for sym in (Z, Q, O):
        site = tuple(Fraction(int(s is sym)) for s in (Z, Q, O))
        out.append((point_mass(sym), _product_word_prob(site)))
    return out


def test_counts_match_word_by_word_fractions():
    edges = [pt for pt in FORMULA_POINTS if pt.p == 0 or pt.q == 0 or pt.p + pt.q == 1]
    patterns = sorted(set(CLOSED_FORM_IDS) | set(WEIGHT_SPANS)) + ["1 ***", "[0?] ***"]
    for mu, prob in _oracle_fixtures():
        tables = [[prob(w) for w in iter_words(length)] for length in range(ORDER + 1)]
        for length, table in enumerate(tables):
            assert [word_prob(mu, w) for w in iter_words(length)] == table, (mu.name, length)
        for pat_text in patterns + ["0 0 0 ** 1", "1 *** 1", "?0000?"]:
            want = sum((prob(w) for w in text_words(pat_text)), Fraction(0))
            assert cylinder_prob(mu, pat_text) == want, (pat_text, mu.name)
        for params in edges:
            for pat_text in patterns:
                kernel = _oracle_kernel(pat_text, params)
                table = tables[text_span(pat_text) + 2]
                want = sum((m * k for m, k in zip(table, kernel) if m and k), Fraction(0))
                assert pushforward_cylinder(mu, pat_text, params) == want, \
                    (pat_text, mu.name, str(params))


def test_measures_are_equal_only_to_themselves():
    # two tables of one law are two measures, each with its own kept sums
    table = product_measure(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    again = TIMeasure.from_table(table.counts[ORDER], table.den, table.name)
    assert table == table and table != again and len({table, again}) == 2
    assert again.counts == table.counts and again.signature_masses is not table.signature_masses
    for name in ("den", "name", "cylinder_counts"):
        with pytest.raises(AttributeError):
            setattr(again, name, getattr(table, name))


def test_grouped_masses_are_summed_once_per_measure(monkeypatch):
    # the signature masses do not depend on (p, q), so a second point reuses them
    calls = []
    real = measures._group_masses

    def counting(marg, span):
        calls.append(span)
        return real(marg, span)

    monkeypatch.setattr(measures, "_group_masses", counting)
    mu = reversible_markov_measure([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    values = [pushforward_cylinder(mu, "10?", PP),
              pushforward_cylinder(mu, "10?", Params(Fraction(1, 2), Fraction(1, 4))),
              pushforward_cylinder(mu, "1?0", PP)]  # another pattern of the same span
    assert calls == [3]
    assert values == [pushforward_cylinder(MARKOV, "10?", PP),
                      pushforward_cylinder(MARKOV, "10?", Params(Fraction(1, 2), Fraction(1, 4))),
                      pushforward_cylinder(MARKOV, "1?0", PP)]
    # the masses live on the measure, not in a cache that would keep it alive
    ref = weakref.ref(mu)
    del mu
    gc.collect()
    assert ref() is None


def test_pushforward_point_mass_and_edges():
    assert pushforward_cylinder(point_mass(Z), "?", PP) == 0
    assert pushforward_cylinder(point_mass(Z), "0?", PP) == 0
    # all-open edge p = q = 0: any mixed window turns into ? surely
    free = Params(0, 0)
    assert pushforward_cylinder(PRODUCT, "?", free) == cylinder_prob(PRODUCT, "***")


def test_pushforward_span_limit():
    with pytest.raises(ValueError, match="order"):
        pushforward_cylinder(PRODUCT, "00000", PP)


def test_pushforward_singletons_sum_to_one():
    for mu in (PRODUCT, MARKOV):
        for params in (PP, Params(1, 0), Params(0, 1)):
            total = sum(pushforward_cylinder(mu, s, params) for s in ("0", "?", "1"))
            assert total == 1


# ------------------------------------------------------------------ identities

def test_identities_on_invariant_measures():
    for mu in _invariant_measures():
        for name in IDENTITIES:
            assert verify_identity(name, mu) == 0, (name, mu.name)


def test_identities_translation_only():
    # all but one hold for any translation-invariant measure; the collapsed
    # double term in one_hat3_split genuinely needs reflection invariance
    mu = _asymmetric_empirical()
    for name in IDENTITIES:
        if name == "one_hat3_split":
            continue
        assert verify_identity(name, mu) == 0, name
    assert verify_identity("one_hat3_split", mu) != 0


# ------------------------------------------------------------------ closed forms

def test_closed_form_frozen_examples():
    res = closed_form("0?", PRODUCT, PP)
    assert res.value == Fraction(2322, 40000)
    assert closed_form("?", PRODUCT, PP).value == Fraction(387, 2000)


def test_closed_forms_match_pushforward():
    for mu in _invariant_measures(n_random=2):
        for params in GRID + [Params(0, 0)]:
            for fid in CLOSED_FORM_IDS:
                res = closed_form(fid, mu, params)
                assert res.value == pushforward_cylinder(mu, fid, params), \
                    (fid, mu.name, str(params))
                assert res.passed, (fid, mu.name, str(params))


def test_partial_closed_forms_are_the_pushforward():
    # verify formulas reads a partially specified entry's value as its
    # pushforward instead of computing the pushforward a second time
    partial = set()
    for mu in sampled_measures(2, 1729):
        for params in FORMULA_POINTS:
            for fid in CLOSED_FORM_IDS:
                res = closed_form(fid, mu, params)
                if not res.fully_specified:
                    partial.add(fid)
                    assert res.value == pushforward_cylinder(mu, fid, params), \
                        (fid, mu.name, str(params))
    assert partial == {"10?", "1??", "1?0?", "10??", "1?00", "10?0", "1?01"}


def test_closed_form_alternate_writings():
    for mu in (PRODUCT, MARKOV):
        for params in GRID:
            p, r = params.p, params.r
            res = closed_form("100?", mu, params)
            assert p * p * r * r * cylinder_prob(mu, "0 0 0 ***") + res.component("C") == res.value
            alt = closed_form("1?01", mu, params)
            assert written_alt_1q01(mu, params) + alt.component("C") == alt.value


def test_closed_form_components_split():
    res = closed_form("10?", PRODUCT, PP)
    assert res.component("written") + res.component("D") == res.value
    assert res.component("C") >= 0 and res.component("D") >= 0
    assert not res.fully_specified
    assert closed_form("?", PRODUCT, PP).fully_specified


def test_closed_form_errors():
    with pytest.raises(ValueError, match="unknown formula"):
        closed_form("11?", PRODUCT, PP)
    with pytest.raises(ValueError, match="reflection"):
        closed_form("?", _asymmetric_empirical(), PP)


def test_closed_form_json():
    blob = json.dumps(closed_form_json(closed_form("100?", PRODUCT, PP)))
    data = json.loads(blob)
    assert data["formula"] == "100?"
    assert data["pass"] is True
    assert set(data["components"]) == {"written", "C", "D"}


# ------------------------------------------------------------------ weights

def test_weight_frozen_values():
    assert weight(0, PRODUCT, PP) == Fraction(117, 200)
    assert weight(4, PRODUCT, PP) == Fraction(10419, 25000)
    assert weight(0, point_mass(Q), PP) == 1


def test_weight_chain_nonincreasing():
    for mu in _invariant_measures(n_random=2):
        for params in GRID:
            values = [weight(k, mu, params) for k in range(5)]
            assert all(a >= b for a, b in zip(values, values[1:])), (mu.name, str(params))


def test_weight_errors():
    with pytest.raises(ValueError, match="index"):
        weight(5, PRODUCT, PP)


# ------------------------------------------------------------------ window tables

def test_table_structures():
    t1 = table_structure("ineq1_rows")
    assert (t1.rows, t1.disjoint, t1.within_scope, t1.covers_scope) == (17, True, True, None)
    t2 = table_structure("ineq2_rows_q")
    assert (t2.rows, t2.disjoint, t2.within_scope) == (19, True, True)
    t3 = table_structure("ineq2_rows_0q")
    assert (t3.rows, t3.disjoint, t3.within_scope, t3.covers_scope) == (9, True, True, True)
    t4 = table_structure("ineq2_rows_00q")
    assert (t4.rows, t4.disjoint, t4.within_scope, t4.covers_scope) == (3, True, True, True)


@pytest.mark.parametrize("rows, scope, exact, want", [
    # every window matching 1?0 at columns -1..1 also matches 1? at -1..0
    (((-1, "1?"), (-1, "1?0")), (0, "?"), False, (False, True, None)),
    # the row's site 0 is a 0, outside the scope eta0=?
    (((-1, "1?"), (-1, "10")), (0, "?"), False, (True, False, None)),
    # 00? and 10? leave ?0? uncovered in the scope eta0..1=0?
    (((-1, "00?"), (-1, "10?")), (0, "0?"), True, (True, True, False)),
    # adding the missing row makes the union exact
    (((-1, "00?"), (-1, "10?"), (-1, "?0?")), (0, "0?"), True, (True, True, True)),
])
def test_table_structure_flags_bad_tables(monkeypatch, rows, scope, exact, want):
    monkeypatch.setitem(measures._TABLES, "probe", (rows, scope, exact))
    table_structure.cache_clear()
    try:
        got = table_structure("probe")
    finally:
        table_structure.cache_clear()
    assert (got.disjoint, got.within_scope, got.covers_scope) == want
    assert got.ok == all(flag in (True, None) for flag in want)


def test_table_row_must_fit_the_window(monkeypatch):
    monkeypatch.setitem(measures._TABLES, "probe", (((1, "1?0"),), (0, "?"), False))
    table_structure.cache_clear()
    try:
        with pytest.raises(ValueError, match="columns"):
            table_structure("probe")
    finally:
        table_structure.cache_clear()


def test_ineq1_rows_sum_to_each_displayed_form():
    for mu in _invariant_measures(n_random=2):
        rep = verify_table_inequality("ineq_1", mu)
        assert rep.structural_ok
        assert rep.slack >= 0
        forms = dict(rep.forms)
        total = dict(rep.row_sums)["ineq1_rows"]
        assert total == forms["grouped"] == forms["expanded"] == forms["final"]
        assert rep.lhs == cylinder_prob(mu, "?")


def test_ineq2_rows_and_slack():
    for mu in _invariant_measures(n_random=2):
        rep = verify_table_inequality("ineq_2", mu)
        assert rep.structural_ok
        assert rep.slack >= 0
        sums = dict(rep.row_sums)
        # the 0? and 00? tables partition their scopes, so their sums are exact
        assert sums["ineq2_rows_0q"] == cylinder_prob(mu, "0?")
        assert sums["ineq2_rows_00q"] == cylinder_prob(mu, "00?")
        assert sum(sums.values()) == rep.rhs


def test_table_inequality_errors():
    with pytest.raises(ValueError, match="which"):
        verify_table_inequality("ineq_3", PRODUCT)
    with pytest.raises(ValueError, match="reflection"):
        verify_table_inequality("ineq_1", _asymmetric_empirical())


def test_table_report_json():
    data = verify_table_inequality("ineq_2", PRODUCT).to_json_dict()
    json.dumps(data)
    assert data["pass"] is True
    assert data["which"] == "ineq_2"
    assert len(data["structure"]) == 3


# ------------------------------------------------------------------ master inequality

def test_master_point_masses_trivial():
    for sym in (Z, O):
        for params in (PP, Params(Fraction(1, 2), Fraction(1, 2))):
            rep = verify_master_inequality(point_mass(sym), params)
            assert rep.overall_slack == 0
            assert rep.passed


def test_master_sweep():
    for mu in _invariant_measures(n_random=2):
        for params in GRID:
            rep = verify_master_inequality(mu, params)
            assert rep.passed, (mu.name, str(params), rep.negative_terms,
                                rep.overall_slack)
            assert rep.w_mu[4] - rep.w_image[4] >= 0


def test_master_remainder_terms_match_catalog():
    rep = verify_master_inequality(PRODUCT, PP)
    p, q, r = PP.p, PP.q, PP.r
    by_name = dict(rep.terms)
    d_term = next(v for k, v in rep.terms if k.startswith("D ("))
    d_prime = next(v for k, v in rep.terms if k.startswith("D' ("))
    want_d = (2 * p * r * closed_form("10?", PRODUCT, PP).component("D")
              + 2 * p * p * r * sum(closed_form(f, PRODUCT, PP).component("C")
                                    for f in ("1??", "1?0?", "10??"))
              + 4 * r * closed_form("1?01", PRODUCT, PP).component("C"))
    want_dp = (2 * (q + p * p * r) * closed_form("100?", PRODUCT, PP).component("D")
               + 2 * p * p * r * sum(closed_form(f, PRODUCT, PP).component("C")
                                     for f in ("1?00", "10?0")))
    assert d_term == want_d
    assert d_prime == want_dp
    assert len(by_name) == len(rep.terms)  # term names are unique


def test_master_errors():
    with pytest.raises(ValueError, match="p \\+ q > 0"):
        verify_master_inequality(PRODUCT, Params(0, 0))
    with pytest.raises(ValueError, match="reflection"):
        verify_master_inequality(_asymmetric_empirical(), PP)


def test_master_parses_each_pattern_once(monkeypatch):
    mu, params = MARKOV, Params(Fraction(1, 7), Fraction(2, 7))
    first = verify_master_inequality(mu, params)
    parse = CylinderPattern.parse.__func__
    calls = []

    def counting(cls, text):
        calls.append(text)
        return parse(cls, text)

    monkeypatch.setattr(CylinderPattern, "parse", classmethod(counting))
    again = verify_master_inequality(mu, params)
    assert calls == []
    assert again.to_json_dict() == first.to_json_dict()


def test_master_report_json():
    data = verify_master_inequality(MARKOV, PP).to_json_dict()
    json.dumps(data)
    assert data["pass"] is True
    assert len(data["w_mu"]) == 5 and len(data["w_image"]) == 5
    assert data["terms"][-1]["name"].startswith("D'")


# ------------------------------------------------------------------ stationarity

def test_stationary_branches():
    assert stationary_conclusion_check(Params(Fraction(1, 2), Fraction(1, 2)), PRODUCT).branch == "r=0"
    assert stationary_conclusion_check(Params(Fraction(1, 4), Fraction(1, 4)), PRODUCT).branch == "q>0"
    assert stationary_conclusion_check(Params(Fraction(1, 2), 0), PRODUCT).branch == "q=0,p>0"
    assert stationary_conclusion_check(Params(0, 0), PRODUCT).branch == "p=q=0"


def test_stationary_gauge_values():
    rep = stationary_conclusion_check(Params(Fraction(1, 4), Fraction(1, 4)), PRODUCT)
    # |mu(?) - r*mu(***)| = |3/10 - (1/2)(387/1000)|
    assert rep.gauge == Fraction(213, 2000)
    assert rep.qmark == Fraction(3, 10)
    exact = stationary_conclusion_check(PP, point_mass(Z))
    assert exact.gauge == 0
    assert all(v == 0 for _, v in exact.forced)


def test_stationary_empirical_long_run():
    # ? density decays under the dynamics at (1/4,1/4); after 1000 steps the
    # empirical measure is near-stationary: tiny ? mass and tiny gauge
    params = Params(Fraction(1, 4), Fraction(1, 4))
    model = ModelSpec(0, params)
    final = last_row(model, 10_000, 1000, SeededStream(20260816))
    rep = stationary_conclusion_check(params, empirical_measure(final))
    assert rep.qmark < Fraction(1, 100)
    assert rep.gauge < Fraction(1, 100)
    json.dumps(rep.to_json_dict())


# ------------------------------------------------------------------ compiled functionals

# FORMULA_GRID, two more points with r = 0, and the all-open point p = q = 0
# (which the master inequality rejects).
_FUNCTIONAL_POINTS = FORMULA_POINTS + (
    Params(Fraction(1, 3), Fraction(2, 3)), Params(Fraction(3, 4), Fraction(1, 4)), Params(0, 0))


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _json(report):
    return report if isinstance(report, str) else report.to_json_dict()


def _read(report):
    """(values, verdict, Fraction verdict): a report's values read as
    Fractions, its verdict as the report decides it on integer signs, and the
    verdict that those Fraction values imply; a refusal reads as its message."""
    if isinstance(report, str):
        return report
    if isinstance(report, WeightReport):
        negative = tuple(k for k, v in report.terms if v < 0)
        return ((report.params, report.measure, report.w_mu, report.w_image, report.terms,
                 report.overall_slack),
                (report.negative_terms, report.passed),
                (negative, report.overall_slack >= 0 and not negative))
    if isinstance(report, ClosedFormResult):
        return ((report.formula, report.params, report.measure, report.value,
                 report.components, report.pushforward, report.fully_specified),
                report.passed,
                report.value == report.pushforward
                and all(v >= 0 for k, v in report.components if k.startswith(("C", "D"))))
    return ((report.which, report.measure, report.structure, report.row_sums, report.forms,
             report.lhs, report.rhs, report.slack),
            report.passed, report.structural_ok and report.lhs - report.rhs >= 0)


def _assert_same_report(got, want, where):
    """got's values and verdicts equal the Fraction oracle's, and got decides
    on integers what its own Fraction values imply."""
    got_read, want_read = _read(got), _read(want)
    assert got_read == want_read, where
    if not isinstance(got, str):
        assert got_read[1] == got_read[2], where
        show = closed_form_json if isinstance(got, ClosedFormResult) else _json
        assert show(got) == show(want), where


def _skewed_empirical():
    skew = np.array([2, 0, 0, 0, 1, 0] * 7, dtype=np.int8)
    return empirical_measure(Configuration(skew))


def _assert_checks_match_fraction_oracle(mus, points):
    """Every reported value and verdict of every check, on each measure and at
    each point, equals the same check evaluated one Fraction at a time, a
    refusal included."""
    for mu in mus:
        for which in ("ineq_1", "ineq_2"):
            _assert_same_report(_outcome(verify_table_inequality, which, mu),
                                _outcome(oracles.table_report, which, mu), (which, mu.name))
        for params in points:
            where = (mu.name, str(params))
            for fid in CLOSED_FORM_IDS:
                _assert_same_report(_outcome(closed_form, fid, mu, params),
                                    _outcome(oracles.closed_form, fid, mu, params), (fid, *where))
            assert [weight(k, mu, params) for k in range(5)] == \
                [oracles.weight(k, mu, params) for k in range(5)], where
            _assert_same_report(_outcome(verify_master_inequality, mu, params),
                                _outcome(oracles.master_report, mu, params), where)
            got = stationary_conclusion_check(params, mu)
            want = oracles.stationary_report(params, mu)
            assert got == want and got.to_json_dict() == want.to_json_dict(), where


def test_compiled_checks_match_fraction_oracle():
    # the skewed empirical measure is not reflection invariant, so only its
    # weights and stationarity report are values and everything else must
    # refuse it with the same message
    _assert_checks_match_fraction_oracle(sampled_measures(3, 1729) + [_skewed_empirical()],
                                         _FUNCTIONAL_POINTS)


# with the edges p = 0, q = 0 and p + q = 1, and the all-open point, which the
# master inequality refuses
_QUARTER_GRID = tuple(Params(Fraction(i, 4), Fraction(j, 4)) for i in range(5) for j in range(5 - i))


def test_integer_verdicts_match_fraction_oracle_on_the_quarter_grid():
    _assert_checks_match_fraction_oracle(sampled_measures(3, 25), _QUARTER_GRID)


def test_verdicts_follow_the_sign_of_each_numerator():
    # every value of a report set in turn to -1, 0 and back: the integer
    # verdict must stay the one its Fraction values imply
    mu, params = sampled_measures(1, 25)[-1], Params(Fraction(1, 4), Fraction(1, 2))
    reports = [verify_master_inequality(mu, params), verify_table_inequality("ineq_1", mu),
               verify_table_inequality("ineq_2", mu),
               *(closed_form(fid, mu, params) for fid in CLOSED_FORM_IDS)]
    for rep in reports:
        assert rep.den > 0
        for j, kept in enumerate(rep.nums):
            for num in (-1, 0, kept):
                changed = rep._replace(nums=(*rep.nums[:j], num, *rep.nums[j + 1:]))
                _, verdict, fraction_verdict = _read(changed)
                assert verdict == fraction_verdict, (type(rep).__name__, j, num)


_EIGHTHS = [Fraction(i, 8) for i in range(9)]
_ORACLE_POINTS = (
    # the README grid, step 1/8, with the all-open point
    *(Params(p, q) for p in _EIGHTHS for q in _EIGHTHS if p + q <= 1),
    # the edges p = 0, q = 0 and r = 0
    *(Params(Fraction(p), Fraction(q)) for p, q in (
        ("0", "1/7"), ("0", "5/6"), ("3/7", "0"), ("4/5", "0"), ("2/9", "7/9"), ("11/13", "2/13"))),
    # large coprime denominators
    *(Params(Fraction(p), Fraction(q)) for p, q in (
        ("997/1000", "1/1009"), ("1/1009", "997/1000"), ("500/1009", "499/1013"))),
    # numpy integers
    Params(Fraction(np.int64(997), np.int64(1000)), Fraction(np.int64(1), np.int64(1009))),
    Params(np.int64(0), np.int64(1)),
    Params(Fraction(np.int64(3), np.int64(7)), np.int64(0)),
)


def test_compiled_checks_match_fraction_oracle_at_edges_and_large_denominators():
    # each plan is made once with polynomial coefficients and compiled per
    # point by integer evaluation; these points stress that evaluation
    _assert_checks_match_fraction_oracle(sampled_measures(1, 4242) + [_skewed_empirical()],
                                         _ORACLE_POINTS)


def test_plan_degrees_are_computed():
    # E, the largest coefficient degree plus pushforward span, bounds the
    # degree in (p, q) of every value a plan reports
    assert measures._master_plan()[1].degree == 7
    assert measures._weight_plan()[1].degree == 3
    degrees = [measures._closed_form_plan(name)[1].degree for name in CLOSED_FORM_IDS]
    assert max(degrees) == 4
    # the tables have constant coefficients, so they compile without a point
    assert {measures._table_form(which)[1].den for which in ("ineq_1", "ineq_2")} == {1}
    with pytest.raises(ValueError, match="a plan of degree 3 needs a point"):
        measures._compile(measures._weight_plan()[1], None)


def _every_plan():
    """Every plan builder's plan, by a name for it: each builder returns
    (labels, plan), so the plan is ``builder(*args)[1]``."""
    builders = {"master": (measures._master_plan,), "weights": (measures._weight_plan,),
                **{f"stationary {b}": (measures._stationary_plan, b) for b in measures._FORCED},
                **{name: (measures._closed_form_plan, name) for name in CLOSED_FORM_IDS},
                **{which: (measures._table_plan, which) for which in ("ineq_1", "ineq_2")}}
    return {name: builder(*args)[1] for name, (builder, *args) in builders.items()}


# Each plan's basis values: (cylinders and pushforwards, of which pushforwards).
# A plan reads every one of its keys on every measure, so a key lost from a
# transcription would otherwise show only in the benchmark's traced cylinder
# and kernel counts.  Every catalog entry reads its own pushforward, once.
_PLAN_KEYS = {
    "master": (50, 12), "weights": (12, 0),
    "stationary r=0": (2, 0), "stationary q>0": (2, 0), "stationary q=0,p>0": (5, 0),
    "stationary p=q=0": (2, 0),
    "?": (2, 1), "0?": (3, 1), "?0?": (3, 1), "1?": (3, 1), "10?": (4, 1), "100?": (7, 1),
    "000?": (5, 1), "1??": (2, 1), "1?0?": (2, 1), "10??": (2, 1), "1?00": (4, 1),
    "10?0": (3, 1), "1?01": (4, 1),
    "ineq_1": (30, 0), "ineq_2": (37, 0),
}


def test_plans_read_every_basis_value_their_transcriptions_name():
    plans = _every_plan()
    got = {name: (len(plan.keys), sum(kind == "f" for kind, _ in plan.keys))
           for name, plan in plans.items()}
    assert got == _PLAN_KEYS
    assert all(len(set(plan.keys)) == len(plan.keys) for plan in plans.values())
    # the tables' constant forms, one key per cylinder read
    assert [len(measures._table_form(which)[1].keys) for which in ("ineq_1", "ineq_2")] == [30, 37]


def test_no_plan_has_two_equal_rows():
    # an entry that names one functional twice (a fully specified value is its
    # written part, a partial one's value is its pushforward; the stationarity
    # check's mu(?) is also a forced cylinder) computes it once
    for name, plan in _every_plan().items():
        rows = [{j: frozenset(coef) for j, coef in zip(*row)} for row in plan.rows]
        assert all(a != b for a, b in itertools.combinations(rows, 2)), name
        assert sorted(set(plan.order)) == list(range(len(plan.rows))), name
    for name in CLOSED_FORM_IDS:
        (fully, names), plan = measures._closed_form_plan(name)
        assert len(plan.order) == len(names) + 2
        value, written, pushforward = plan.order[0], plan.order[1], plan.order[-1]
        assert (value == written, value == pushforward) == (fully, not fully), name
    c = measures._cylinder
    plan = measures._plan([c("?"), c("0?") + c("?"), c("?") + c("0?"), c("?")])
    assert plan.order == (0, 1, 1, 0) and len(plan.rows) == 2


def test_a_zero_coefficient_keeps_its_key_and_leaves_its_row():
    c, p = measures._cylinder, measures._P
    plan = measures._plan([c("?") + (p - p) * c("0?") + 0 * measures._pushforward("1?")])
    assert plan.keys == (("c", "?"), ("c", "0?"), ("f", "1?"))
    assert plan.spans == (0, 0, 2)
    assert plan.rows == (((0,), (((1, 0, 0, 0),),)),)
    assert plan.degree == 0  # E counts only nonzero terms


def test_plan_degree_is_the_largest_degree_plus_span():
    # E is the largest i + k + span of a nonzero term: here the pq-weighted
    # span-3 pushforward's 1 + 1 + 3 = 5 over the q-weighted cylinder's 1.
    # The two terms read E apart from i + k - span (1) and i - k + span (3),
    # which today's plans do not
    c, f, p, q = measures._cylinder, measures._pushforward, measures._P, measures._Q
    plan = measures._plan([p * q * f("10?") + q * c("?")])
    assert plan.spans == (3, 0)
    assert plan.degree == 5
    # each coefficient over s^E: p q s^0 on the span-3 value, q s^4 on the cylinder
    assert plan.rows == (((0, 1), (((1, 1, 1, 0),), ((1, 0, 1, 4),))),)


def test_a_product_of_two_functionals_is_refused():
    c, p = measures._cylinder, measures._P
    with pytest.raises(TypeError, match="a product of two functionals is not linear"):
        c("?") * c("0?")
    with pytest.raises(TypeError, match="a product of two functionals is not linear"):
        (p * c("?")) * (1 + c("0?"))
    assert p * c("?") == c("?") * p  # a polynomial times a functional is one


def test_a_constant_term_in_a_planned_functional_is_refused():
    c, p = measures._cylinder, measures._P
    with pytest.raises(ValueError, match="constant term 2 p\\^1 q\\^0"):
        measures._plan([c("?") + 2 * p])
    assert measures._plan([c("?") + p - p]).rows == measures._plan([c("?")]).rows


def test_weight_chain_identity_rejects_a_disagreeing_display():
    # the expanded display reads 1?01 second; hand it another cylinder there
    reads = []

    def ev(text):
        reads.append(text)
        if text == "1?01" and reads.count(text) == 2:
            return measures._cylinder("1?10")
        return measures._cylinder(text)

    with pytest.raises(RuntimeError, match="chained w4 disagrees"):
        measures._weight_chain(ev)
    assert reads.count("1?01") == 2
    measures._weight_chain(measures._cylinder)  # the honest evaluator passes
    # functionals are equal when every coefficient is, a missing key reading 0
    one, two = measures._cylinder("?"), measures._cylinder("?") + measures._cylinder("0?")
    assert one != two and two != one
    assert one == one + 0 * measures._cylinder("0?") == 2 * one - one


def test_weight_chain_is_checked_once_for_every_point(monkeypatch):
    # the chain and its display are compared once, coefficient by polynomial
    # coefficient, which proves the identity at every (p, q); no point or
    # measure runs the transcription again
    calls = []
    real = measures._weight_chain

    def counting(ev):
        calls.append(ev)
        return real(ev)

    monkeypatch.setattr(measures, "_weight_chain", counting)
    for plan in (measures._weights, measures._weight_plan, measures._master_plan):
        plan.cache_clear()
    points = (Params(Fraction(2, 7), Fraction(3, 11)), Params(Fraction(1, 9), Fraction(5, 9)))
    for mu in sampled_measures(2, 7):
        for params in points:
            verify_master_inequality(mu, params)
            weight(4, mu, params)
    for params in reversed(points):
        verify_master_inequality(MARKOV, params)
    assert calls == [measures._cylinder]
    p, q = measures._P, measures._Q
    coef = measures.Sparse({(None, i, j): c for (key, i, j), c in measures._weights()[4].terms.items()
                            if key == ("c", "?")})
    assert coef == 1 - p * p - p * q - q


def test_measures_outside_points_build_each_point_once(monkeypatch):
    # as test_2 and test_5 walk them: each (point, text) kernel and each
    # point's master form is built on the point's first measure only
    compiled = []
    real = measures._compile

    def counting(plan, params):
        compiled.append(params)
        return real(plan, params)

    monkeypatch.setattr(measures, "_compile", counting)
    measures._pushforward_kernel.cache_clear()
    points = (Params(Fraction(1, 3), Fraction(1, 7)), Params(Fraction(2, 9), Fraction(4, 9)))
    for mu in sampled_measures(1, 11):
        for params in points:
            verify_master_inequality(mu, params)
    assert compiled == list(points)
    assert measures._pushforward_kernel.cache_info().misses == 12 * len(points)


def test_a_point_and_what_it_keeps_are_freed_with_it():
    # a point's kernels, forms and variate cuts are kept on the point, in no
    # module-level cache that would keep it alive
    params = Params(Fraction(3, 13), Fraction(2, 11))
    mu = sampled_measures(1, 13)[4]
    verify_master_inequality(mu, params)
    closed_form("1?0?", mu, params)
    stationary_conclusion_check(params, mu)
    pushforward_cylinder(mu, "1 ***", params)
    step(Configuration.constant(9, Q), ModelSpec(0, params), SeededStream(3), 0)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_cylinder_counts_are_summed_once_per_measure(monkeypatch):
    # each cylinder a compiled check reads costs one cylinder_prob per measure,
    # however many points and checks read it
    texts = []
    real = measures.cylinder_prob

    def counting(mu, text, **kwargs):
        texts.append(text)
        return real(mu, text, **kwargs)

    monkeypatch.setattr(measures, "cylinder_prob", counting)
    mu = reversible_markov_measure([[3, 1, 2], [1, 0, 1], [2, 1, 3]])
    for params in (PP, Params(Fraction(1, 2), Fraction(1, 4))):
        verify_master_inequality(mu, params)
        stationary_conclusion_check(params, mu)
    verify_table_inequality("ineq_1", mu)
    assert len(texts) == len(set(texts)) > 40
    assert set(texts) == set(mu.cylinder_counts)


_VALUES_POINTS = tuple(Params(Fraction(p), Fraction(q)) for p, q in (
    ("1/3", "1/5"), ("1/100", "1/100"), ("1/3", "0"), ("0", "1")))


def test_values_read_as_integers_match_the_fraction_reading_oracle():
    # _values reads each basis value as an integer numerator; the oracle reads
    # it as a Fraction and takes it apart.  Every plan, compiled at each point
    # (and the constant table plans also without one, as their checks run),
    # gives the same numerators on every measure
    mus = sampled_measures(3, 1729) + [_skewed_empirical()]
    plans = _every_plan()
    for params in (*_VALUES_POINTS, None):
        for name, plan in plans.items():
            if params is None and plan.degree:
                continue
            form = measures._compile(plan, params)
            for mu in mus:
                got = measures._values(form, mu, params)
                assert got == oracles.values(form, mu, params), (name, mu.name, str(params))


def test_integer_mode_is_the_fraction_mode_over_its_denominator():
    # for every catalog text, read as a cylinder and as a pushforward
    mus = sampled_measures(3, 1729) + [_skewed_empirical()]
    for params in _VALUES_POINTS:
        s = params.scaled[0]
        for mu in mus:
            for text in CLOSED_FORM_IDS:
                num = cylinder_prob(mu, text, numerator=True)
                assert type(num) is int and num == cylinder_prob(mu, text) * mu.den
                num = pushforward_cylinder(mu, text, params, numerator=True)
                den = s ** CylinderPattern.parse(text).span * mu.den
                assert type(num) is int and num == pushforward_cylinder(mu, text, params) * den
    # with the same span checks
    with pytest.raises(ValueError, match="exceeds measure order"):
        cylinder_prob(MARKOV, "0000000", numerator=True)
    with pytest.raises(ValueError, match="needs order >= 7"):
        pushforward_cylinder(MARKOV, "00000", PP, numerator=True)


# ------------------------------------------------------------------ properties

_weights = st.lists(st.integers(0, 8), min_size=6, max_size=6).filter(lambda w: sum(w) > 0)


@settings(max_examples=25, deadline=None)
@given(_weights)
def test_random_markov_is_consistent_and_reflective(w):
    # construction re-validates translation consistency exactly, so surviving
    # from_table is the assertion; reflection comes from the symmetric weights
    mat = [[w[0], w[1], w[2]], [w[1], w[3], w[4]], [w[2], w[4], w[5]]]
    mu = reversible_markov_measure(mat)
    assert mu.reflection_invariant


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3**4 - 1))
def test_cylinder_additivity(idx):
    digits = []
    for _ in range(4):
        idx, d = divmod(idx, 3)
        digits.append("0?1"[d])
    prefix = "".join(digits)
    total = sum(cylinder_prob(MARKOV, prefix + s) for s in "0?1")
    assert total == cylinder_prob(MARKOV, prefix)
