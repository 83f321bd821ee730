"""Exhaustive checks of the two monotonicity properties of the three-symbol
local kernel, by stochastic domination on single-site distributions.

Domination is decided on upper-set masses: d1 is dominated by d2 (in the given
order) iff d2 puts at least as much mass as d1 on every upper set. On a 3-element
poset this is a complete characterization, so no coupling construction is needed.

The two kernel monotonicity properties are checked over all 729 ordered pairs
of neighbourhood triples, of which 216 (total order) and 125 (partial order)
are comparable:

* total order (0 < ? < 1): raising the input triple coordinatewise *lowers* the
  output law -- if u <= v coordinatewise then rule(v) is dominated by rule(u);
* partial order (? on top): raising the input raises the output -- if u <= v
  coordinatewise then rule(u) is dominated by rule(v).

The comparable pairs are parameter-free, enumerated once per order from the
order's 3 x 3 symbol table.  The rule's law depends on a triple only through
its class (``core.TripleClass``), so every comparable pair reduces to one of at
most 9 class pairs, listed once per order.  Each is decided once per lemma and
point in integers: the point's class laws are read as integer masses over its
scale s (``Params.law_masses``), and a class pair holds iff its upper-set
margins, integers over s, are all >= 0.  A failing class pair reports those
same margins divided by s, and only then are the triple pairs walked, to list
that pair's triples.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .core import (
    SYMBOLS,
    TRIPLE_CLASSES,
    EnvSymbol,
    Params,
    StochOrder,
    iter_words,
    symbol_leq,
    upper_sets,
    word_str,
)


class PairResult(NamedTuple):
    u: tuple[EnvSymbol, EnvSymbol, EnvSymbol]
    v: tuple[EnvSymbol, EnvSymbol, EnvSymbol]
    margins: tuple[Fraction, ...]  # dominating minus dominated law per upper set, smallest first


class LemmaReport(NamedTuple):
    """Exhaustive sweep over all ordered triple pairs for one monotonicity law."""

    which: int
    params: Params
    total_pairs: int
    comparable_count: int
    worst_margin: Fraction
    violations: tuple[PairResult, ...]  # one per violating (u, v), in sweep order

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "order": "total" if self.which == 1 else "partial",
            "p": str(self.params.p),
            "q": str(self.params.q),
            "total_pairs": self.total_pairs,
            "comparable_pairs": self.comparable_count,
            "violation_count": self.violation_count,
            "worst_margin": str(self.worst_margin),
            "violations": [
                {
                    "u": word_str(r.u),
                    "v": word_str(r.v),
                    "margins": [str(m) for m in r.margins],
                }
                for r in self.violations
            ],
        }


@lru_cache(maxsize=None)
def _comparable_pairs(order: StochOrder) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """(u, v, dominated class, dominating class) for each u <= v coordinatewise,
    in sweep order (u, then v, lexicographic), and the distinct class pairs
    among them, in order of first occurrence; parameter-free.  The total
    order's lemma reverses the direction.

    Each v is drawn from the product of the symbols at or above each symbol of
    u, read from the order's 3 x 3 table, so no incomparable pair is visited;
    a triple's class is read from ``TRIPLE_CLASSES`` by its base-3 index.
    """
    above = [[b for b in SYMBOLS if symbol_leq(order, a, b)] for a in SYMBOLS]
    pairs = []
    for u in iter_words(3):
        for v in product(*(above[a] for a in u)):
            low, high = (v, u) if order is StochOrder.TOTAL else (u, v)
            pairs.append((u, v, TRIPLE_CLASSES[9 * low[0] + 3 * low[1] + low[2]],
                          TRIPLE_CLASSES[9 * high[0] + 3 * high[1] + high[2]]))
    return tuple(pairs), tuple(dict.fromkeys((low, high) for _, _, low, high in pairs))


# The symbol codes in each upper set of each order, in ``upper_sets`` order.
_UPPER_SET_CODES = {o: tuple(tuple(sorted(s.value for s in u)) for u in upper_sets(o))
                    for o in StochOrder}


def _class_pair_margins(order: StochOrder, low: tuple[int, ...],
                        high: tuple[int, ...]) -> tuple[int, ...]:
    """One class pair's verdict, from the two class laws' integer masses per
    symbol code (``Params.law_masses``): the dominating law's mass minus the
    dominated law's on each upper set, smallest set first, integers over the
    point's scale.  The pair holds iff none is negative."""
    diff = tuple(map(operator.sub, high, low))
    return tuple(sum([diff[k] for k in codes]) for codes in _UPPER_SET_CODES[order])


def verify_lemma(which: int, params: Params) -> LemmaReport:
    """Verify kernel monotonicity over all 729 ordered triple pairs.

    which=1: total order, with the direction reversal (u <= v implies
    rule(v) <= rule(u)); which=2: partial order, direction preserved.  Each
    class pair of the order is decided once, on integer margins over the
    point's scale; only if some fails are the triple pairs walked, and every
    triple pair of a failing class pair is reported as a violation, in sweep
    order, with that pair's margins over the scale as ``Fraction``s.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    order = StochOrder.TOTAL if which == 1 else StochOrder.PARTIAL
    pairs, class_pairs = _comparable_pairs(order)
    scale, masses = params.law_masses
    margins = {(low, high): _class_pair_margins(order, masses[low], masses[high])
               for low, high in class_pairs}
    worst = min(map(min, margins.values()))
    violations = ()
    if worst < 0:
        failing = {pair: tuple(Fraction(m, scale) for m in ms)
                   for pair, ms in margins.items() if min(ms) < 0}
        violations = tuple(PairResult(u, v, failing[low, high])
                           for u, v, low, high in pairs if (low, high) in failing)
    return LemmaReport(which, params, 27 * 27, len(pairs), Fraction(worst, scale), violations)
