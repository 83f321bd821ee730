"""Shared vocabulary for the lattice dynamics and the exact cylinder calculus.

Everything here is an immutable value: the parameter pair (p, q) with its
derived open probability r = 1 - p - q, the three-symbol alphabet {0, ?, 1},
the local rule's three triple classes (numbered by a triple's largest code)
with their output laws, written once as the integer table ``CLASS_LAWS``, the
game's vocabulary (versions, site labels, outcome classes) with its one-site
rule ``site_class`` and the exact correspondence of the two rules
(``kernel_correspondence``), the two stochastic orders on the alphabet, and
cylinder patterns, parsed once into the set of words they contain (contiguous
runs of symbol subsets, with two shorthand tokens ``**`` and ``***`` for the
hatted sets {0,?}^2 \\ {00} and {0,?}^3 \\ {000}).

Every probability here is exact: ``as_fraction`` refuses a float with
``TypeError`` and turns a numpy integer into an ``int``.  A point reads its
class laws as integer masses over its scale s = lcm(den p, den q)
(``Params.law_masses``, the table evaluated at ``Params.scaled``), which the
domination lemmas, the kernel correspondence and the pushforward kernels
compute with.  The module needs only the standard library, so the exact
checks built on it, ``verify kernel`` among them, never import numpy.

Records are named tuples, and the types that validate or keep state are
small slotted classes (``Frozen``), in every layer: ``dataclasses`` would
load ``inspect`` and ``ast`` into every command, about 7 ms of start-up, and
each dataclass took about 0.9 ms to make against 0.16 ms for a named tuple
(cold interpreter, 2-CPU Xeon VM).
"""

from __future__ import annotations

import math
import operator
from enum import Enum, IntEnum
from fractions import Fraction
from functools import wraps
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence, Union

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


class Frozen:
    """Base of the slotted types that validate their fields or keep state.

    A subclass sets its ``__slots__`` once, in order, with ``_set`` from its
    ``__init__``; afterwards assigning or deleting an attribute raises
    ``AttributeError``.  Instances compare and hash by the fields named in
    ``_fields``, and a type with identity equality restores ``object``'s.
    Instances can be weakly referenced.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {type(value).__name__} to field {name!r}: "
                             f"{type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is frozen")


class Params(Frozen):
    """Trap/target probability pair; r = 1 - p - q is the open probability.

    The degenerate all-open point p = q = 0 is constructible (r = 1) but carries
    in_region = False; verification entry points that need p + q > 0 reject it.

    What ``per_point`` functions build for the point is kept in ``memo`` and
    freed with the point; it takes no part in equality or hashing.
    """

    __slots__ = ("p", "q", "memo")
    _fields = ("p", "q")

    def __init__(self, p: Rationalish, q: Rationalish) -> None:
        p, q = as_fraction(p), as_fraction(q)
        if not (0 <= p and 0 <= q and p + q <= 1):
            raise ValueError(f"need 0 <= p, 0 <= q, p+q <= 1; got p={p}, q={q}")
        self._set(p, q, {})

    @property
    def r(self) -> Fraction:
        return 1 - self.p - self.q

    @property
    def in_region(self) -> bool:
        """True iff p + q > 0 (the parameter region where the dynamics are noisy)."""
        return self.p + self.q > 0

    @property
    def scaled(self) -> tuple[int, int, int]:
        """(s, a, b): the scale s = lcm(den p, den q), with p = a/s and q = b/s."""
        p, q = self.p, self.q
        s = math.lcm(p.denominator, q.denominator)
        return s, p.numerator * (s // p.denominator), q.numerator * (s // q.denominator)

    @property
    def law_masses(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(s, m) with s the point's scale and m[c][k] / s the mass that class c's
        law puts on the symbol of code k, exactly: ``CLASS_LAWS`` at ``scaled``."""
        s, a, b = self.scaled
        return s, tuple(tuple(cs * s + ca * a + cb * b for cs, ca, cb in row)
                        for row in CLASS_LAWS)

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


class TripleClass(IntEnum):
    """The three cases of the local rule, numbered by a triple's largest code;
    the output law depends on nothing else."""

    ALL_ZERO = 0  # 000
    MIXED = 1  # over {0,?} with at least one ?
    HAS_ONE = 2  # holds a 1


# The class of every triple, by its base-3 index 9a + 3b + c.
TRIPLE_CLASSES = tuple(TripleClass(max(t)) for t in iter_words(3))

# The local rule, the one place it is written: CLASS_LAWS[c][k] holds the
# coefficients (of s, a, b) of the mass the law of class c puts on the symbol
# of code k, over the scale s, where p = a/s and q = b/s (``Params.scaled``).
CLASS_LAWS = (
    ((0, 1, 0), (0, 0, 0), (1, -1, 0)),   # ALL_ZERO: (p, 0, 1 - p)
    ((0, 1, 0), (1, -1, -1), (0, 0, 1)),  # MIXED: (p, r, q)
    ((1, 0, -1), (0, 0, 0), (0, 0, 1)),   # HAS_ONE: (1 - q, 0, q)
)


# ------------------------------------------------------------------ the game

class GameVersion(Enum):
    V1 = "V1"
    V2 = "V2"
    V3 = "V3"
    V4 = "V4"

    @property
    def offset(self) -> int:
        """Neighbourhood offset i under the i = x line identification."""
        return 0 if self in (GameVersion.V1, GameVersion.V2) else -1


class SiteLabel(IntEnum):
    """Site labels; codes ordered so that inverse-CDF sampling at the cut
    points (p, 1-q) reproduces (trap, open, target) ~ (p, r, q)."""

    TRAP = 0
    OPEN = 1
    TARGET = 2


class GameClass(IntEnum):
    """Outcome classes; codes deliberately coincide with the symbol codes
    under W=0, D=?, L=1."""

    W = 0
    D = 1
    L = 2


def site_class(label: int, successors: Sequence[int]) -> int:
    """The game's one-site rule: the class code of a site from its label and
    its three out-neighbours' class codes.  A trap is W and a target L.  From
    an open site the mover wins by moving to an L, loses when all three
    out-neighbours are W and otherwise cannot force a win: with W=0, D=1, L=2
    that is 2 - the largest successor code.  ``game.classify_line`` is this
    rule on whole lines, vectorised; the tests pin the two equal."""
    if label == SiteLabel.TRAP:
        return GameClass.W
    if label == SiteLabel.TARGET:
        return GameClass.L
    return 2 - max(successors)


class KernelComparison(NamedTuple):
    """Induced one-site law of the game's rule vs the three-symbol local rule,
    each as its masses on codes 0, 1, 2, integers over the point's scale."""

    triple: tuple[EnvSymbol, EnvSymbol, EnvSymbol]
    induced: tuple[int, int, int]
    expected: tuple[int, int, int]

    @property
    def equal(self) -> bool:
        return self.induced == self.expected


class KernelReport(NamedTuple):
    version: GameVersion
    params: Params
    comparisons: tuple[KernelComparison, ...]

    @property
    def mismatch_count(self) -> int:
        return sum(1 for c in self.comparisons if not c.equal)

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0

    def to_json_dict(self) -> dict:
        return {
            "version": self.version.value,
            "p": str(self.params.p),
            "q": str(self.params.q),
            "comparisons": len(self.comparisons),
            "mismatches": [word_str(c.triple) for c in self.comparisons if not c.equal],
            "passed": self.passed,
        }


def kernel_correspondence(version: GameVersion, params: Params) -> KernelReport:
    """Exact check that one induction step, label integrated out, is one step
    of the three-symbol local rule: for each of the 27 successor-class triples
    the induced law on {W, D, L} must equal the rule's law on {0, ?, 1}.

    Each of the 81 (successor triple, label) cases is classified by
    ``site_class``; the label masses over the point's scale, summed per
    class, are compared with ``Params.law_masses``.  The version only names
    the report: every version's out-neighbourhood is three sites of the next
    line, which the rule reads alike.
    """
    s, a, b = params.scaled
    label_masses = (a, s - a - b, b)  # by SiteLabel code
    expected = params.law_masses[1]
    comparisons = []
    for triple, rule_class in zip(iter_words(3), TRIPLE_CLASSES):
        induced = [0, 0, 0]
        for label, mass in zip(SiteLabel, label_masses):
            induced[site_class(label, triple)] += mass
        comparisons.append(KernelComparison(triple, tuple(induced), expected[rule_class]))
    return KernelReport(version, params, tuple(comparisons))


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


class CylinderPattern(NamedTuple):
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
