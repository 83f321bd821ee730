"""Stochastic domination on single-site distributions, and exhaustive checks of
the two monotonicity properties of the three-symbol local kernel.

Domination is decided on upper-set masses: d1 is dominated by d2 (in the given
order) iff d2 puts at least as much mass as d1 on every upper set. On a 3-element
poset this is a complete characterization, so no coupling construction is needed.

The two kernel monotonicity properties checked exhaustively over all 729 ordered
pairs of neighbourhood triples:

* total order (0 < ? < 1): raising the input triple coordinatewise *lowers* the
  output law -- if u <= v coordinatewise then rule(v) is dominated by rule(u);
* partial order (? on top): raising the input raises the output -- if u <= v
  coordinatewise then rule(u) is dominated by rule(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    EnvSymbol,
    LocalDistribution,
    Params,
    StochOrder,
    iter_words,
    symbol_leq,
    upper_sets,
    word_str,
)
from .pca import Alphabet, ModelSpec, local_rule


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
    comparable: tuple[PairResult, ...]
    violations: tuple[PairResult, ...]

    @property
    def comparable_count(self) -> int:
        return len(self.comparable)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def worst_margin(self) -> Fraction:
        return min((r.check.worst_margin for r in self.comparable), default=Fraction(0))

    @property
    def passed(self) -> bool:
        return not self.violations

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


def verify_lemma(which: int, params: Params) -> LemmaReport:
    """Exhaustively verify kernel monotonicity over all 729 ordered triple pairs.

    which=1: total order, with the direction reversal (u <= v implies
    rule(v) <= rule(u)); which=2: partial order, direction preserved.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    order = StochOrder.TOTAL if which == 1 else StochOrder.PARTIAL
    model = ModelSpec(Alphabet.ENVELOPE, 0, params)
    rule = {t: local_rule(model, t) for t in iter_words(3)}

    comparable: list[PairResult] = []
    violations: list[PairResult] = []
    total = 0
    for u in iter_words(3):
        for v in iter_words(3):
            total += 1
            if not triple_leq(order, u, v):
                continue
            if which == 1:
                check = dominates(order, rule[v], rule[u])
            else:
                check = dominates(order, rule[u], rule[v])
            result = PairResult(u, v, check)
            comparable.append(result)
            if not check.holds:
                violations.append(result)
    return LemmaReport(which, params, total, tuple(comparable), tuple(violations))
