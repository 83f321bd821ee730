"""Stochastic domination on single-site distributions, and exhaustive checks of
the two monotonicity properties of the three-symbol local kernel.

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

The rule's law depends on a triple only through its class (``core.TripleClass``),
so every comparable pair reduces to one of at most 9 class pairs, and each
class pair that occurs is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    EnvSymbol,
    LocalDistribution,
    Params,
    StochOrder,
    class_law,
    iter_words,
    symbol_leq,
    triple_class,
    upper_sets,
    word_str,
)


@dataclass(frozen=True)
class DominationCheck:
    """Outcome of one domination comparison: d1 <= d2 iff all margins >= 0."""

    order: StochOrder
    d1: LocalDistribution
    d2: LocalDistribution
    margins: tuple[Fraction, ...]  # d2(U) - d1(U) per upper set, smallest set first

    @property
    def holds(self) -> bool:
        return all(m >= 0 for m in self.margins)

    @property
    def worst_margin(self) -> Fraction:
        return min(self.margins)


def dominates(order: StochOrder, d1: LocalDistribution, d2: LocalDistribution) -> DominationCheck:
    """Check d1 <= d2 in the given stochastic order (margins = d2 - d1 per upper set)."""
    margins = tuple(d2.mass(u) - d1.mass(u) for u in upper_sets(order))
    return DominationCheck(order, d1, d2, margins)


def triple_leq(order: StochOrder, u, v) -> bool:
    """Coordinatewise comparison of two length-3 symbol tuples."""
    return all(symbol_leq(order, a, b) for a, b in zip(u, v))


@dataclass(frozen=True)
class PairResult:
    u: tuple[EnvSymbol, EnvSymbol, EnvSymbol]
    v: tuple[EnvSymbol, EnvSymbol, EnvSymbol]
    check: DominationCheck


@dataclass(frozen=True)
class LemmaReport:
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
                    "margins": [str(m) for m in r.check.margins],
                }
                for r in self.violations
            ],
        }


@lru_cache(maxsize=None)
def _comparable_pairs(order: StochOrder) -> tuple[tuple, ...]:
    """(u, v, dominated class, dominating class) for each u <= v coordinatewise,
    in sweep order; parameter-free.  The total order's lemma reverses the
    direction."""
    pairs = []
    for u in iter_words(3):
        for v in iter_words(3):
            if triple_leq(order, u, v):
                low, high = (v, u) if order is StochOrder.TOTAL else (u, v)
                pairs.append((u, v, triple_class(low), triple_class(high)))
    return tuple(pairs)


def verify_lemma(which: int, params: Params) -> LemmaReport:
    """Verify kernel monotonicity over all 729 ordered triple pairs.

    which=1: total order, with the direction reversal (u <= v implies
    rule(v) <= rule(u)); which=2: partial order, direction preserved.  Each
    class pair that some comparable triple pair reduces to is checked once,
    and every triple pair of a failing class pair is reported as a violation.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    order = StochOrder.TOTAL if which == 1 else StochOrder.PARTIAL
    pairs = _comparable_pairs(order)
    checks = {(low, high): dominates(order, class_law(low, params), class_law(high, params))
              for low, high in dict.fromkeys((low, high) for _, _, low, high in pairs)}
    violations = tuple(PairResult(u, v, checks[low, high])
                       for u, v, low, high in pairs if not checks[low, high].holds)
    worst = min(check.worst_margin for check in checks.values())
    return LemmaReport(which, params, 27 * 27, len(pairs), worst, violations)
