"""Shared vocabulary for the lattice dynamics and the exact cylinder calculus.

Everything here is an immutable value: the parameter pair (p, q) with its derived
open probability r = 1 - p - q, the three-symbol alphabet {0, ?, 1}, single-site
probability distributions, the local rule's three triple classes (numbered by a
triple's largest code) with one exact output law each, the two stochastic orders
on the alphabet, and cylinder patterns, parsed once into the set of words they
contain (contiguous runs of symbol subsets, with two shorthand tokens ``**`` and
``***`` for the hatted sets {0,?}^2 \\ {00} and {0,?}^3 \\ {000}).

Every probability here is an exact ``fractions.Fraction`` over Python ints:
``as_fraction`` and ``LocalDistribution`` refuse a float with ``TypeError`` and
turn a numpy integer into an ``int``.  Each point also holds its class laws as
integer masses over its scale s = lcm(den p, den q) (``Params.law_masses``),
which the domination lemmas and the pushforward kernels compute with.  The
module needs only the standard library, so the exact checks built on it never
import numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from functools import cached_property, wraps
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence, Union

Rationalish = Union[Fraction, int, str]


def as_fraction(x: Rationalish) -> Fraction:
    """Exact conversion to Fraction; accepts "a/b" and decimal strings, never floats.

    The numerator and denominator come out as Python ints, also from a numpy
    integer or a Fraction of them: fixed-width parts would wrap in the
    products that exact arithmetic builds, and fail to hash.
    """
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"refusing inexact conversion from {type(x).__name__}: {x!r}")
    f = x if type(x) is Fraction else Fraction(x)  # a Fraction is immutable
    if type(f.numerator) is int and type(f.denominator) is int:
        return f
    return Fraction(operator.index(f.numerator), operator.index(f.denominator))


class EnvSymbol(IntEnum):
    """Three-symbol alphabet; codes are ordered so that 0 < ? < 1 numerically."""

    ZERO = 0
    QMARK = 1
    ONE = 2

    def __str__(self) -> str:
        return "0?1"[self.value]

    @classmethod
    def from_char(cls, ch: str) -> "EnvSymbol":
        try:
            return _SYMBOL_BY_CHAR[ch]
        except KeyError:
            raise ValueError(f"not a symbol: {ch!r}") from None


SYMBOLS = (EnvSymbol.ZERO, EnvSymbol.QMARK, EnvSymbol.ONE)
_SYMBOL_BY_CHAR = {"0": EnvSymbol.ZERO, "?": EnvSymbol.QMARK, "1": EnvSymbol.ONE}

Word = tuple[EnvSymbol, ...]


def iter_words(length: int) -> Iterator[Word]:
    """All 3^length words over the alphabet, lexicographic in code order."""
    return product(SYMBOLS, repeat=length)


def word_str(word: Sequence[EnvSymbol]) -> str:
    return "".join(str(s) for s in word)


@dataclass(frozen=True)
class Params:
    """Trap/target probability pair; r = 1 - p - q is the open probability.

    The degenerate all-open point p = q = 0 is constructible (r = 1) but carries
    in_region = False; verification entry points that need p + q > 0 reject it.

    The class laws (``laws``), their integer masses (``law_masses``) and what
    ``per_point`` functions build (``memo``) are made on first use and kept on
    the instance, so all of it is freed with the point.
    """

    p: Fraction
    q: Fraction
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "q", as_fraction(self.q))
        if not (0 <= self.p and 0 <= self.q and self.p + self.q <= 1):
            raise ValueError(f"need 0 <= p, 0 <= q, p+q <= 1; got p={self.p}, q={self.q}")

    @property
    def r(self) -> Fraction:
        return 1 - self.p - self.q

    @property
    def in_region(self) -> bool:
        """True iff p + q > 0 (the parameter region where the dynamics are noisy)."""
        return self.p + self.q > 0

    @cached_property
    def laws(self) -> tuple[LocalDistribution, LocalDistribution, LocalDistribution]:
        """The local rule's output law of each ``TripleClass``, by class code:
        ``laws[c]`` is the law of every triple whose largest code is c."""
        p, q, r = self.p, self.q, self.r
        return (LocalDistribution(p, 0, 1 - p),  # ALL_ZERO
                LocalDistribution(p, r, q),      # MIXED
                LocalDistribution(1 - q, 0, q))  # HAS_ONE

    @property
    def law_masses(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(s, m) with s = lcm(den p, den q) the point's scale and m[c][k] / s
        the mass ``laws[c]`` puts on the symbol of code k, exactly.

        Derived from ``laws``, their one source, on first read and kept for as
        long as ``laws`` returns the same tuple, so a replaced ``laws`` is
        read afresh.  Raises ``ValueError`` if a mass is not an integer over s.
        """
        laws = self.laws
        kept = self.__dict__.get("_law_masses")
        if kept is not None and kept[0] is laws:
            return kept[1]
        scale = math.lcm(self.p.denominator, self.q.denominator)
        masses = []
        for law in laws:
            row = []
            for x in (law.prob0, law.probQ, law.prob1):
                if scale % x.denominator:
                    raise ValueError(f"law {law} of {self} has mass {x}, "
                                     f"not an integer over the scale {scale}")
                row.append(x.numerator * (scale // x.denominator))
            masses.append(tuple(row))
        found = (scale, tuple(masses))
        object.__setattr__(self, "_law_masses", (laws, found))
        return found

    def __str__(self) -> str:
        return f"(p={self.p}, q={self.q})"


def per_point(build: Callable) -> Callable:
    """``build(*args, params)``, built once per (args, point) and kept in ``params.memo``."""
    @wraps(build)
    def kept(*args):
        memo, key = args[-1].memo, (build, args[:-1])
        if key not in memo:
            memo[key] = build(*args)
        return memo[key]
    return kept


@dataclass(frozen=True)
class LocalDistribution:
    """Exact distribution of one output symbol; the entries sum to 1 exactly."""

    prob0: Fraction
    probQ: Fraction
    prob1: Fraction

    def __post_init__(self) -> None:
        for name in ("prob0", "probQ", "prob1"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        vals = (self.prob0, self.probQ, self.prob1)
        if any(v < 0 for v in vals):
            raise ValueError(f"negative probability in {vals}")
        if sum(vals) != 1:
            raise ValueError(f"probabilities sum to {sum(vals)}, not 1")

    def prob(self, sym: EnvSymbol) -> Fraction:
        return (self.prob0, self.probQ, self.prob1)[sym.value]

    def mass(self, symbols: Iterable[EnvSymbol]) -> Fraction:
        return sum(self.prob(s) for s in symbols)


class TripleClass(IntEnum):
    """The three cases of the local rule, numbered by a triple's largest code;
    the output law depends on nothing else."""

    ALL_ZERO = 0  # 000
    MIXED = 1  # over {0,?} with at least one ?
    HAS_ONE = 2  # holds a 1


# The class of every triple, by its base-3 index 9a + 3b + c.
TRIPLE_CLASSES = tuple(TripleClass(max(t)) for t in iter_words(3))


class StochOrder(Enum):
    """The two orders on the alphabet used for stochastic domination.

    TOTAL: 0 < ? < 1 (a strict total order; same as the numeric code order).
    PARTIAL: ? is the unique top; 0 and 1 are incomparable.
    """

    TOTAL = "total"
    PARTIAL = "partial"


def symbol_leq(order: StochOrder, a: EnvSymbol, b: EnvSymbol) -> bool:
    if order is StochOrder.TOTAL:
        return a.value <= b.value
    return a is b or b is EnvSymbol.QMARK


def upper_sets(order: StochOrder) -> tuple[frozenset[EnvSymbol], ...]:
    """All nonempty upper sets of the order, smallest first."""
    return _UPPER_SETS[order]


def _compute_upper_sets(order: StochOrder) -> tuple[frozenset[EnvSymbol], ...]:
    found = []
    for mask in range(1, 8):
        subset = frozenset(s for s in SYMBOLS if mask & (1 << s.value))
        if all(b in subset for a in subset for b in SYMBOLS if symbol_leq(order, a, b)):
            found.append(subset)
    found.sort(key=lambda u: (len(u), sorted(s.value for s in u)))
    return tuple(found)


_UPPER_SETS = {o: _compute_upper_sets(o) for o in StochOrder}


# A hat token's event: every word over {0, ?} of its length except the all-zero
# one.  The codes of 0 and ? are the base-3 digits 0 and 1.
_HAT_WORDS = {tok: tuple(int("".join(d), 3) for d in product("01", repeat=len(tok)))[1:]
              for tok in ("**", "***")}


@dataclass(frozen=True)
class CylinderPattern:
    """A cylinder event on ``span`` consecutive sites, as the set of words in it.

    ``indices`` are the base-3 indices of those words, leftmost symbol most
    significant (the order ``TIMeasure.counts`` uses), ascending and distinct.
    """

    span: int
    indices: tuple[int, ...]

    @classmethod
    def parse(cls, text: str) -> "CylinderPattern":
        """Whitespace-separated cells: ``0``, ``?``, ``1``, ``[0?]``, ``**``, ``***``.

        A run of bare symbol characters like ``100?`` is also accepted as shorthand
        for the corresponding singleton cells.  Each token allows a set of
        sub-words and the event is their product, so no word is counted twice.
        """
        span, indices = 0, [0]
        for tok in text.split():
            if tok in _HAT_WORDS:
                length, sub = len(tok), _HAT_WORDS[tok]
            elif tok.startswith("["):
                if not tok.endswith("]") or len(tok) < 3:
                    raise ValueError(f"malformed subset cell {tok!r}")
                length, sub = 1, sorted({EnvSymbol.from_char(c).value for c in tok[1:-1]})
            else:
                word = 0
                for c in tok:
                    word = word * 3 + EnvSymbol.from_char(c).value
                length, sub = len(tok), (word,)
            indices = [i * 3**length + j for i in indices for j in sub]
            span += length
        if not span:
            raise ValueError(f"no cells in pattern text {text!r}")
        return cls(span, tuple(indices))
