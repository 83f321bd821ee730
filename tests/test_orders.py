import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from percolab import core, orders
from percolab.cli import _axis
from percolab.core import SYMBOLS, EnvSymbol, Params, StochOrder, TripleClass, iter_words
from percolab.orders import verify_lemma

from oracles import LocalDistribution, dominates, lemma_report, rule_law, triple_class, triple_leq

Z, Q, O = EnvSymbol.ZERO, EnvSymbol.QMARK, EnvSymbol.ONE

GRID = [
    Params(Fraction(1, 5), Fraction(3, 10)),
    Params(Fraction(1, 2), Fraction(1, 2)),
    Params(0, 1),
    Params(1, 0),
    Params(Fraction(1, 100), Fraction(1, 100)),
]


def test_total_order_example():
    # mixed triple law vs all-zero law at (p,q)=(1/5,3/10): the latter dominates
    p, q, r = Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)
    d1 = LocalDistribution(p, r, q)
    d2 = LocalDistribution(p, Fraction(0), 1 - p)
    check = dominates(StochOrder.TOTAL, d1, d2)
    assert check.holds
    # margins per upper set {1}, {?,1}, {0,?,1}
    assert check.margins == (1 - p - q, Fraction(0), Fraction(0))


def test_partial_order_example():
    p, q, r = Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)
    d1 = LocalDistribution(1 - q, Fraction(0), q)
    d2 = LocalDistribution(p, r, q)
    check = dominates(StochOrder.PARTIAL, d1, d2)
    assert check.holds
    # margins per upper set {?}, {0,?}, {?,1}, {0,?,1}
    assert check.margins == (r, Fraction(0), r, Fraction(0))


def test_domination_can_fail():
    d_low = LocalDistribution(Fraction(1), Fraction(0), Fraction(0))
    d_high = LocalDistribution(Fraction(0), Fraction(0), Fraction(1))
    assert dominates(StochOrder.TOTAL, d_low, d_high).holds
    failed = dominates(StochOrder.TOTAL, d_high, d_low)
    assert not failed.holds
    assert failed.worst_margin == -1


_dist = st.tuples(
    st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
).filter(lambda t: sum(t) > 0).map(
    lambda t: LocalDistribution(*(Fraction(x, sum(t)) for x in t))
)


@given(_dist, st.sampled_from(list(StochOrder)))
def test_dominates_reflexive(d, order):
    assert dominates(order, d, d).holds


@given(_dist, _dist, _dist, st.sampled_from(list(StochOrder)))
def test_dominates_transitive(d1, d2, d3, order):
    if dominates(order, d1, d2).holds and dominates(order, d2, d3).holds:
        assert dominates(order, d1, d3).holds


def test_triple_leq():
    assert triple_leq(StochOrder.TOTAL, (Z, Z, Q), (Q, Z, O))
    assert not triple_leq(StochOrder.TOTAL, (O, Z, Z), (Q, Z, O))
    assert triple_leq(StochOrder.PARTIAL, (Z, O, Q), (Q, Q, Q))
    assert not triple_leq(StochOrder.PARTIAL, (Z, Z, Z), (O, Z, Z))


@pytest.mark.parametrize("params", GRID, ids=str)
@pytest.mark.parametrize("which", [1, 2])
def test_lemma_sweep_violation_free(which, params):
    report = verify_lemma(which, params)
    assert report.total_pairs == 729
    # per-coordinate comparable pairs: 6 of 9 in the total order, 5 of 9 in the partial
    assert report.comparable_count == (216 if which == 1 else 125)
    assert report.violation_count == 0
    assert report.worst_margin >= 0
    d = report.to_json_dict()
    assert d["violation_count"] == 0 and d["comparable_pairs"] == report.comparable_count


def _class_law(cls, params):
    """The rule's law of class ``cls``, read off the triple 0 0 c, whose
    largest code is c."""
    return rule_law((Z, Z, SYMBOLS[cls]), params)


def test_equal_triples_give_equal_laws():
    # a pair of triples of one class compares a law with itself; were any such
    # pair to violate, every triple pair of that class would be reported
    params = Params(Fraction(1, 5), Fraction(3, 10))
    for order in StochOrder:
        for law in (_class_law(cls, params) for cls in TripleClass):
            assert all(m == 0 for m in dominates(order, law, law).margins)
    for which in (1, 2):
        report = verify_lemma(which, params)
        assert report.violations == ()
        assert report.worst_margin == 0  # attained by the equal-class pairs


_AXIS = _axis(Fraction(0), Fraction(1), Fraction(1, 6))
FINE_GRID = [Params(p, q) for p in _AXIS for q in _AXIS if p + q <= 1]


@pytest.mark.parametrize("which", [1, 2])
def test_lemma_report_matches_per_pair_oracle(which):
    # the CLI's fine grid, with the p = 0, q = 0 and p + q = 1 edges
    for params in FINE_GRID:
        assert verify_lemma(which, params).to_json_dict() == lemma_report(which, params)



def _assert_integer_margins_are_the_fraction_margins(params):
    scale, masses = params.law_masses
    assert scale == math.lcm(params.p.denominator, params.q.denominator)
    for triple in iter_words(3):
        law = rule_law(triple, params)
        row = masses[triple_class(triple)]
        assert tuple(Fraction(m, scale) for m in row) == (law.prob0, law.probQ, law.prob1)
    for order in StochOrder:
        for low, high in product(TripleClass, repeat=2):
            margins = orders._class_pair_margins(order, masses[low], masses[high])
            want = dominates(order, _class_law(low, params), _class_law(high, params)).margins
            assert tuple(Fraction(m, scale) for m in margins) == want, (order, low, high)


def test_integer_margins_match_dominates_on_the_fine_grid():
    for params in FINE_GRID:
        _assert_integer_margins_are_the_fraction_margins(params)


_unit = st.builds(Fraction, st.integers(0, 97), st.integers(1, 97)).filter(lambda x: x <= 1)


@given(_unit, _unit, st.sampled_from(["inside", "p = 0", "q = 0", "r = 0"]))
def test_integer_margins_match_dominates_at_rational_points(a, b, edge):
    p = Fraction(0) if edge == "p = 0" else a
    q = {"q = 0": Fraction(0), "r = 0": 1 - p}.get(edge, b * (1 - p))
    _assert_integer_margins_are_the_fraction_margins(Params(p, q))


@pytest.mark.parametrize("which", [1, 2])
def test_lemma_violations_match_per_pair_oracle(which, monkeypatch):
    # a non-monotone rule, each class taking the next class's law, reaches
    # verify_lemma through core.CLASS_LAWS, the rule's one source
    monkeypatch.setattr(core, "CLASS_LAWS", core.CLASS_LAWS[1:] + core.CLASS_LAWS[:1])
    for params in FINE_GRID:
        if params.r == 0:
            continue  # the three class laws coincide, so no law of them can violate
        got = verify_lemma(which, params).to_json_dict()
        want = lemma_report(which, params,
                            law=lambda t: _class_law((triple_class(t) + 1) % 3, params))
        assert got["violation_count"] > 0
        assert got == want  # u, v and margins of every violation, in order


def test_lemma_checks_each_class_pair_once(monkeypatch):
    verdicts = []
    margins = orders._class_pair_margins

    def counting(order, low, high):
        verdicts.append((low, high))
        return margins(order, low, high)

    monkeypatch.setattr(orders, "_class_pair_margins", counting)
    for which, order in ((1, StochOrder.TOTAL), (2, StochOrder.PARTIAL)):
        verdicts.clear()
        report = verify_lemma(which, Params(Fraction(1, 5), Fraction(3, 10)))
        assert len(verdicts) == len(orders._comparable_pairs(order)[1]) <= 9
        assert report.violations == ()  # no class pair fails, so no triple pair is walked


@pytest.mark.parametrize("order", list(StochOrder))
def test_comparable_pairs_match_the_pairwise_enumeration(order):
    # the pairs drawn from the order's symbol table are the pairs u <= v found
    # by comparing all 729, in the same sweep order
    want = []
    for u in iter_words(3):
        for v in iter_words(3):
            if triple_leq(order, u, v):
                low, high = (v, u) if order is StochOrder.TOTAL else (u, v)
                want.append((u, v, triple_class(low), triple_class(high)))
    pairs, class_pairs = orders._comparable_pairs(order)
    assert pairs == tuple(want)
    assert len(want) == (216 if order is StochOrder.TOTAL else 125)
    # each class pair once, in order of first occurrence
    assert class_pairs == tuple(dict.fromkeys((low, high) for *_, low, high in want))
    assert len(class_pairs) <= 9


def test_verify_lemma_rejects_bad_which():
    with pytest.raises(ValueError):
        verify_lemma(3, Params(0, 1))
