"""Exact cylinder calculus for translation-invariant measures on the three-symbol line.

A measure is its order-6 word table with its marginals: integer counts over one
denominator for the words of length ``ORDER`` = 6 and of every shorter length,
derived once at construction, where translation consistency is validated, so a
cylinder probability is position-free by definition.  A cylinder event is the
set of word indices its pattern text parses to, parsed once per text: its
probability sums the counts of those words.  On top of that sit: the brute-force pushforward of
a cylinder event under one synchronous update, summed over the event's words, a
catalog of closed-form expressions for pushforward probabilities of small
cylinders (with their non-negative remainder terms), a chain of weight
functionals w0..w4, two inequalities assembled by summing rows of window
tables, and the master inequality comparing w4 before and after one update.
Cylinder and pushforward probabilities are summed in Python ints and leave as
Fractions; a pushforward kernel multiplies the point's integer class-law
masses over its scale (``Params.law_masses``).  Every quantity built on top
is a linear functional of those values at fixed (p, q): its transcription
runs once per (p, q) on unit functionals, is compiled to integer coefficients
over one denominator, and is evaluated on a measure as one integer dot
product that leaves as one Fraction.  The kernels and compiled forms are kept
on their point (``core.per_point``), so they are built once per point in any
visiting order and freed with it.  Floats never enter a verification path.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .core import (TRIPLE_CLASSES, CylinderPattern, EnvSymbol, Params, SYMBOLS, TripleClass,
                   as_fraction, per_point)

if TYPE_CHECKING:
    from .pca import Configuration

# The widest cylinder any check reads (?0000?, 00000?, 10000?) spans six sites,
# and so does the input window of a span-4 pushforward.
ORDER = 6

CLOSED_FORM_IDS = ("?", "0?", "?0?", "1?", "10?", "100?", "000?",
                   "1??", "1?0?", "10??", "1?00", "10?0", "1?01")


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ------------------------------------------------------------------ measures

@dataclass(frozen=True, eq=False)
class TIMeasure:
    """A translation-invariant probability measure, known through words of length ``ORDER``.

    ``counts[k]`` is the distribution on words of length k as integer numerators
    over the one denominator ``den`` that every length shares: the word whose
    symbol codes, read as a base-3 integer with the leftmost digit most
    significant, equal i has probability ``counts[k][i] / den``.  Construction
    rejects tables that are not integers, not normalized, or whose left- and
    right-marginals disagree at some length, so any instance really is the
    restriction of a translation-invariant measure.  ``signature_masses`` holds
    the pushforward's grouped word masses, summed once per span, and
    ``cylinder_counts`` the numerator over ``den`` of each cylinder a compiled
    functional has read, summed once per text; both are kept here, so they are
    freed with the measure.
    """

    counts: tuple[tuple[int, ...], ...]
    den: int
    name: str
    reflection_invariant: bool
    signature_masses: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False)
    cylinder_counts: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_table(cls, counts: Sequence[int], den: int, name: str) -> "TIMeasure":
        """The measure whose length-``ORDER`` word i has probability counts[i] / den."""
        top = tuple(counts)
        kinds = set(map(type, top)) | {type(den)}
        if kinds != {int}:
            names = sorted(k.__name__ for k in kinds - {int})
            raise TypeError(f"measure tables are int counts over an int denominator, got {names}")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if len(top) != 3**ORDER:
            raise ValueError(f"table has {len(top)} entries, expected {3 ** ORDER}")
        if min(top) < 0:
            raise ValueError("negative entry in measure table")
        if sum(top) != den:
            raise ValueError(f"table sums to {Fraction(sum(top), den)}, not 1")
        margs = [top]
        for _ in range(ORDER):  # drop the rightmost site
            upper = margs[0]
            margs.insert(0, tuple([a + b + c for a, b, c in
                                   zip(upper[0::3], upper[1::3], upper[2::3])]))
        for length in range(ORDER):  # dropping the leftmost site must agree
            step = 3**length
            upper = margs[length + 1]
            left = tuple([a + b + c for a, b, c in
                          zip(upper[:step], upper[step:2 * step], upper[2 * step:])])
            if left != margs[length]:
                raise ValueError("table is not translation consistent")
        reflect = tuple(map(top.__getitem__, _reversal())) == top
        return cls(tuple(margs), den, name, reflect)

    def __str__(self) -> str:
        return self.name


@lru_cache(maxsize=None)
def _reversal() -> tuple[int, ...]:
    """For each base-3 word index of length ``ORDER``, the index of the reversed word."""
    out = [0]
    for _ in range(ORDER):
        # prepending digit d to w appends d to reversed(w)
        out = [3 * rev + d for d in range(3) for rev in out]
    return tuple(out)


def product_measure(p0, pQ, p1) -> TIMeasure:
    """i.i.d. sites with P(0), P(?), P(1) = p0, pQ, p1."""
    marg = tuple(as_fraction(x) for x in (p0, pQ, p1))
    den = math.lcm(*(m.denominator for m in marg))
    site = [m.numerator * (den // m.denominator) for m in marg]
    table = [1]
    for _ in range(ORDER):
        table = [x * m for x in table for m in site]
    name = f"product({marg[0]},{marg[1]},{marg[2]})"
    return TIMeasure.from_table(table, den**ORDER, name)


def point_mass(symbol: EnvSymbol) -> TIMeasure:
    """The measure concentrated on the constant configuration."""
    weights = [Fraction(1) if s is symbol else Fraction(0) for s in SYMBOLS]
    return product_measure(*weights)


def reversible_markov_measure(weights: Sequence[Sequence[int]]) -> TIMeasure:
    """Stationary reversible Markov chain from a symmetric non-negative weight matrix.

    pi(a) = W(a)/sum(W) with W(a) the row sum, K(a,b) = w(a,b)/W(a).  Symmetry of w
    is detailed balance, which makes the word distribution reflection invariant; a
    symbol with zero row sum gets pi = 0 and is unreachable.  The counts share the
    denominator sum(W) * lcm(nonzero W(a))^(ORDER-1).
    """
    w = [[as_fraction(weights[a][b]) for b in range(3)] for a in range(3)]
    for a in range(3):
        for b in range(3):
            if w[a][b] < 0:
                raise ValueError("weights must be non-negative")
            if w[a][b] != w[b][a]:
                raise ValueError("weight matrix must be symmetric")
    scale = math.lcm(*(x.denominator for row in w for x in row))  # pi and K ignore scale
    w_int = [[x.numerator * (scale // x.denominator) for x in row] for row in w]
    row = [sum(w_int[a]) for a in range(3)]
    total = sum(row)
    if total == 0:
        raise ValueError("weight matrix is identically zero")
    lcm_row = math.lcm(*(s for s in row if s > 0))
    # kernel[a][b] / lcm_row is K(a,b); a zero row stays put
    kernel = [[w_int[a][b] * (lcm_row // row[a]) if row[a] else lcm_row * (a == b)
               for b in range(3)] for a in range(3)]
    table = list(row)
    for _ in range(ORDER - 1):
        table = [x * kernel[i % 3][b] for i, x in enumerate(table) for b in range(3)]
    rows = ", ".join(f"[{', '.join(map(str, row))}]" for row in w)  # exact: 1/2 stays 1/2
    name = f"markov([{rows}])"
    return TIMeasure.from_table(table, total * lcm_row ** (ORDER - 1), name)


class MeasureFamily(Enum):
    PRODUCT = "product"
    REVERSIBLE_MARKOV = "reversible_markov"


def random_measure(family: MeasureFamily, rng: random.Random) -> TIMeasure:
    """Draw a random member of the family; all probabilities have denominator <= 64*3."""
    if family is MeasureFamily.PRODUCT:
        den = rng.randint(1, 64)
        a, b = sorted((rng.randint(0, den), rng.randint(0, den)))
        return product_measure(Fraction(a, den), Fraction(b - a, den), Fraction(den - b, den))
    while True:
        w = [[0] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(a, 3):
                w[a][b] = w[b][a] = rng.randint(0, 8)
        if any(any(r) for r in w):
            return reversible_markov_measure(w)


def sampled_measures(per_family: int, seed: int) -> list[TIMeasure]:
    """The point masses on 0, 1 and ?, then ``per_family`` draws from each family,
    product and reversible Markov alternating, from ``random.Random(seed)``."""
    rng = random.Random(seed)
    mus = [point_mass(s) for s in (EnvSymbol.ZERO, EnvSymbol.ONE, EnvSymbol.QMARK)]
    for _ in range(per_family):
        mus.append(random_measure(MeasureFamily.PRODUCT, rng))
        mus.append(random_measure(MeasureFamily.REVERSIBLE_MARKOV, rng))
    return mus


def empirical_measure(row: Configuration) -> TIMeasure:
    """Sliding-window word counts of a cyclic row, over the denominator width.

    Translation consistent by construction (every window position counted once
    around the cycle); reflection invariance is whatever it happens to be.
    numpy and ``pca`` are imported here, not with the module: only a row,
    which is already a numpy array, needs them, so the exact checks run
    without numpy.
    """
    import numpy as np

    from .pca import Boundary

    if row.boundary is not Boundary.CYCLIC:
        raise ValueError("empirical measure needs a cyclic row")
    if row.cells.ndim != 1:
        raise ValueError("empirical measure needs one row, not a stack")
    codes = row.cells.astype(np.int64)
    idx = np.zeros(row.width, dtype=np.int64)
    for j in range(ORDER):
        idx = idx * 3 + np.roll(codes, -j)
    counts = np.bincount(idx, minlength=3**ORDER).tolist()
    return TIMeasure.from_table(counts, row.width, f"empirical(width={row.width})")


# ------------------------------------------------------------------ cylinders

@lru_cache(maxsize=None)
def _event(text: str) -> CylinderPattern:
    """The parsed pattern: its span and the base-3 indices of the words in it.

    The one place a pattern text is parsed: once per distinct text.
    """
    return CylinderPattern.parse(text)


def cylinder_prob(mu: TIMeasure, text: str) -> Fraction:
    """Probability under mu of the cylinder event named by the pattern text."""
    pat = _event(text)
    if pat.span > ORDER:
        raise ValueError(f"pattern span {pat.span} exceeds measure order {ORDER}")
    marg = mu.counts[pat.span]
    return Fraction(sum([marg[i] for i in pat.indices]), mu.den)


@lru_cache(maxsize=None)
def _signature_groups(span: int) -> tuple[tuple[tuple[TripleClass, ...], tuple[int, ...]], ...]:
    """The input words over span+2 sites grouped by class signature (the classes
    of their span consecutive triples): (signature, base-3 word indices) pairs,
    in order of each signature's first word.  Parameter- and pattern-free."""
    by_sig: dict[tuple[TripleClass, ...], list[int]] = {}
    for u in range(3 ** (span + 2)):
        sig = tuple(TRIPLE_CLASSES[u // 3 ** (span - 1 - j) % 27] for j in range(span))
        by_sig.setdefault(sig, []).append(u)
    return tuple((sig, tuple(us)) for sig, us in by_sig.items())


def _group_masses(marg: tuple[int, ...], span: int) -> tuple[int, ...]:
    """The counts of the span+2 marginal summed within each signature group."""
    return tuple(sum([marg[u] for u in words]) for _, words in _signature_groups(span))


# Stores nothing: _point_kernel calls it only to build, so perfbench/spans.py counts its misses.
@lru_cache(maxsize=0)
def _pushforward_kernel(text: str, params: Params) -> tuple[int, tuple[int, ...]]:
    """(den, k) with k[g] / den = P(the updated window lies in the pattern | the
    input word has signature g), g indexing _signature_groups(span).

    The rule's law depends on a triple only through its class, so every input
    word of one signature has the same kernel value.  Output sites are
    independent given the input word, so each word of the event contributes a
    product of single-site masses.  The masses are the point's integer class
    law masses over its scale (``Params.law_masses``), so a product of span
    masses is an integer over den = scale^span.
    """
    pat = _event(text)
    span = pat.span
    scale, masses = params.law_masses
    # by_class[s][cls]: the mass params.laws[cls] puts on symbol code s, times scale
    by_class = tuple(zip(*masses))
    words = [tuple(by_class[w // 3 ** (span - 1 - j) % 3] for j in range(span))
             for w in pat.indices]
    kernel = tuple(sum([math.prod(map(operator.getitem, sites, sig)) for sites in words])
                   for sig, _ in _signature_groups(span))
    return scale**span, kernel


_point_kernel = per_point(_pushforward_kernel)


def pushforward_cylinder(mu: TIMeasure, text: str, params: Params) -> Fraction:
    """Probability of the cylinder event after one synchronous update of mu.

    The dot product of the kernel with mu's word masses grouped by class
    signature over the span+2 input sites; the grouped masses do not depend on
    (p, q) or on the pattern beyond its span, so each measure sums them once;
    the kernel is kept on the point.  A build costs one product per (event
    word, signature group) pair: one word per group for a plain word, but 3^k
    times that for an event with k ``[0?1]`` cells.
    """
    span = _event(text).span
    if span + 2 > ORDER:
        raise ValueError(f"pushforward of span {span} needs order >= {span + 2}, have {ORDER}")
    den, kernel = _point_kernel(text, params)
    masses = mu.signature_masses.get(span)
    if masses is None:
        masses = mu.signature_masses[span] = _group_masses(mu.counts[span + 2], span)
    return Fraction(sum(map(operator.mul, kernel, masses)), den * mu.den)


# ------------------------------------------------------------------ linear functionals

# A basis value of a measure mu at fixed (p, q): ("c", text) is mu of the
# text's cylinder and ("f", text) its probability after one update of mu.
Key = tuple[str, str]


class Linear:
    """A linear functional of a measure at fixed (p, q): exact coefficients on
    basis values.

    The closed forms, the weight chain, the table forms and the master terms
    are transcribed once each; running a transcription on unit functionals
    instead of numbers turns it into these, once per (p, q).  A key keeps its
    place when its coefficient is zero, so the functional still reads every
    value its transcription names.
    """

    __slots__ = ("coefs",)

    def __init__(self, coefs: dict[Key, Fraction]) -> None:
        self.coefs = coefs

    def __add__(self, other: "Linear") -> "Linear":
        out = dict(self.coefs)
        for key, a in other.coefs.items():
            out[key] = out.get(key, 0) + a
        return Linear(out)

    def __mul__(self, scalar: Fraction) -> "Linear":
        return Linear({key: scalar * a for key, a in self.coefs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Linear":
        return self * -1

    def __sub__(self, other: "Linear") -> "Linear":
        return self + -other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Linear):
            return NotImplemented
        keys = self.coefs.keys() | other.coefs.keys()
        return all(self.coefs.get(key, 0) == other.coefs.get(key, 0) for key in keys)


_ZERO = Linear({})


def _cylinder(text: str) -> Linear:
    """The unit functional mu -> mu(text)."""
    return Linear({("c", text): 1})


def _pushforward(text: str) -> Linear:
    """The unit functional mu -> (image of mu)(text)."""
    return Linear({("f", text): 1})


def _cylinders(terms: Sequence[tuple[int, str]]) -> Linear:
    """sum of coef * mu(text) over the (coef, text) terms."""
    return sum((coef * _cylinder(text) for coef, text in terms), _ZERO)


def _image(form: Linear) -> Linear:
    """The same functional read on the updated measure: each cylinder value
    replaced by its pushforward."""
    return Linear({("f", text): a for (_, text), a in form.coefs.items()})


class _Form(NamedTuple):
    """Functionals at one (p, q), compiled to integers.

    Basis value j of a measure mu is read as an integer numerator n[j] over
    ``scales[j] * mu.den``; functional i is then ``sum(coefs * n[idx]) /
    (den * mu.den)`` for its row (idx, coefs).
    """

    keys: tuple[Key, ...]
    scales: tuple[int, ...]
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    den: int


def _compile(params: Optional[Params], linears: Sequence[Linear]) -> _Form:
    """Integer coefficients over the one denominator L * s^k.

    A cylinder numerator is over mu.den; a pushforward of span j is over
    s^j * mu.den, where s = lcm(den p, den q) and s^j is its kernel's
    denominator, so its coefficient carries the s^(k - j) it lacks, k the
    widest span read; L clears the denominators the coefficients have left.
    """
    keys = tuple(dict.fromkeys(key for form in linears for key in form.coefs))
    scales = tuple(params.law_masses[0] ** _event(text).span if kind == "f" else 1
                   for kind, text in keys)
    top = max(scales, default=1)
    index = {key: j for j, key in enumerate(keys)}
    lifted = [[(index[key], a * (top // scales[index[key]])) for key, a in form.coefs.items() if a]
              for form in linears]
    lcm = math.lcm(*(a.denominator for row in lifted for _, a in row))
    rows = tuple((tuple(j for j, _ in row),
                  tuple(a.numerator * (lcm // a.denominator) for _, a in row)) for row in lifted)
    return _Form(keys, scales, rows, lcm * top)


def _values(form: _Form, mu: TIMeasure, params: Optional[Params]) -> list[Fraction]:
    """Each compiled functional on mu: one integer dot product, one Fraction.

    Cylinder values come through cylinder_prob once per (measure, text) and
    stay on the measure; pushforward values come through pushforward_cylinder,
    whose kernels stay on the point.
    """
    counts = mu.cylinder_counts
    nums = []
    for (kind, text), scale in zip(form.keys, form.scales):
        if kind == "c":
            num = counts.get(text)
            if num is None:
                value = cylinder_prob(mu, text)
                num = counts[text] = value.numerator * (mu.den // value.denominator)
        else:
            value = pushforward_cylinder(mu, text, params)
            num = value.numerator * (scale * mu.den // value.denominator)
        nums.append(num)
    den = form.den * mu.den
    return [Fraction(sum([a * nums[j] for j, a in zip(idx, coefs)]), den) for idx, coefs in form.rows]


# ------------------------------------------------------------------ closed forms

# 20 rational points covering the interior plus the p=0, q=0 and p+q=1 edges.
FORMULA_GRID = tuple(Params(Fraction(a), Fraction(b)) for a, b in (
    ("0", "1"), ("1", "0"), ("1/2", "1/2"), ("1/5", "4/5"),
    ("0", "1/3"), ("0", "2/3"), ("1/3", "0"), ("2/3", "0"),
    ("1/5", "3/10"), ("1/100", "1/100"), ("1/3", "1/5"), ("1/2", "1/4"),
    ("1/4", "1/2"), ("3/10", "3/10"), ("1/10", "1/10"), ("2/5", "1/5"),
    ("1/5", "2/5"), ("1/6", "1/6"), ("9/10", "1/20"), ("1/20", "9/10"),
))


@dataclass(frozen=True)
class ClosedFormResult:
    """One catalog entry evaluated on a measure.

    ``value`` is the pushforward probability of the cylinder: for a fully
    specified entry it is computed from the written formula alone, otherwise it
    is written + remainder with the remainder obtained by subtracting the written
    part from the brute-force pushforward.  ``components`` carries the named
    sub-expressions (written part, C/D remainders).
    """

    formula: str
    params: Params
    measure: str
    value: Fraction
    components: tuple[tuple[str, Fraction], ...]
    fully_specified: bool

    def component(self, name: str) -> Fraction:
        return dict(self.components)[name]

    @property
    def remainders_nonnegative(self) -> bool:
        return all(v >= 0 for k, v in self.components if k.startswith(("C", "D")))


def _closed_form_parts(name: str, params: Params) -> tuple[bool, Linear, tuple[tuple[str, Linear], ...]]:
    """(fully specified, value, named components) of one catalog entry, as
    functionals at (p, q): the catalog's one transcription."""
    p, q, r = params.p, params.q, params.r
    c = _cylinder
    push = _pushforward(name)

    def full(value: Linear, *extra: tuple[str, Linear]):
        return True, value, (("written", value),) + extra

    def partial(written: Linear):
        return False, push, (("written", written), ("C", push - written))

    if name == "?":
        return full(r * c("***"))
    if name == "0?":
        return full(p * r * c("[0?] ***") + (1 - q) * r * c("1 ***"))
    if name == "?0?":
        return full(p * r * r * (c("[0?] [0?] ***") - c("0 0 0 **")))
    if name == "1?":
        return full(r * r * c("000?") + q * r * c("***"))
    if name == "000?":
        return full(p**3 * r * c("[0?] [0?] [0?] ***")
                    + (1 - q) * p * p * r * c("1 [0?] [0?] ***")
                    + (1 - q) ** 2 * p * r * c("1 [0?] ***")
                    + (1 - q) ** 3 * r * c("1 ***"))
    if name == "100?":
        c_term = (q * p * p * r * c("***") + q * p * r * r * c("1 [0?] ***")
                  + q * r * r * (1 - q + p) * c("1 ***"))
        d_term = (q * p * p * r * c("*** ***") + q * p * p * r * c("1 [0?] [0?] ***")
                  + q * (1 - q) * p * r * c("1 [0?] ***") + q * (1 - q) ** 2 * r * c("1 ***"))
        value = (1 - p) * p * p * r * c("0 0 0 ***") + d_term
        return full(value, ("C", c_term), ("D", d_term))
    if name == "10?":
        c_term = q * p * r * c("1 [0?] ***") + q * (1 - q) * r * c("1 ***")
        written = (1 - p) * p * r * c("0 0 0 **") + c_term
        return False, push, (("written", written), ("C", c_term), ("D", push - written))
    if name == "1??":
        return partial((1 - p) * r * r * c("0 0 0 ? [0?]"))
    if name == "1?0?":
        return partial((1 - p) * r * r * p * c("0 0 0 ? [0?] [0?]"))
    if name == "10??":
        return partial((1 - p) * p * r * r * c("0 0 0 ** [0?]"))
    if name == "1?00":
        return partial((1 - p) * r * p * p * c("000?")
                       + (1 - p) * r * r * p * c("0 0 0 ? [0?] 1")
                       + (1 - p) * r * r * (1 + p - q) * c("000?1"))
    if name == "10?0":
        return partial((1 - p) * p * p * r * c("0 0 0 **")
                       + (1 - p) * p * r * r * c("0 0 0 ** 1"))
    # 1?01
    return partial(q * r * p * (1 - p) * c("** 0 0 0")
                   + (1 - p) * r * p * q * c("0 0 0 ? [0?]")
                   + (1 - p) * r * (1 - q) * q * c("000?1"))


@per_point
def _closed_form_form(name: str, params: Params) -> tuple[bool, tuple[str, ...], _Form]:
    """Whether the entry is fully specified, its component names, and its value
    then its components compiled at (p, q)."""
    fully, value, comps = _closed_form_parts(name, params)
    return fully, tuple(k for k, _ in comps), _compile(params, (value, *(v for _, v in comps)))


def closed_form(name: str, mu: TIMeasure, params: Params) -> ClosedFormResult:
    """Evaluate one closed-form catalog entry exactly.

    Requires a reflection-invariant measure (two of the writings use the
    reflected cylinder).  The entry is compiled once per (name, p, q); each
    measure costs one dot product per reported value, and a partially specified
    entry reads its pushforward through ``pushforward_cylinder``.
    """
    if name not in CLOSED_FORM_IDS:
        raise ValueError(f"unknown formula {name!r}; known: {CLOSED_FORM_IDS}")
    if not mu.reflection_invariant:
        raise ValueError("closed forms assume a reflection-invariant measure")
    fully, names, form = _closed_form_form(name, params)
    value, *parts = _values(form, mu, params)
    return ClosedFormResult(name, params, mu.name, value, tuple(zip(names, parts)), fully)


# ------------------------------------------------------------------ weights

def _weight_chain(ev: Callable[[str], Linear], params: Params) -> tuple[Linear, ...]:
    """w0..w4 as functionals, with the unit functional of each cylinder from ``ev``.

    The chained form and the expanded final display are the same functional;
    comparing them keeps the two transcriptions honest, for every measure at
    once.
    """
    p, q, r = params.p, params.q, params.r
    w0 = ev("?") + 2 * ev("0?") - ev("?0?") + 2 * ev("100?")
    w1 = w0 - p * (1 - r) * ev("?")
    w2 = w1 - (2 * p * r * (ev("1?") + ev("10?"))
               + 2 * p * p * r * (ev("1??") + ev("1?0?") + ev("10??"))
               + 4 * r * ev("1?01") + 2 * p * ev("100?"))
    w3 = w2 - 2 * (q + p * p * r) * ev("100?") - 2 * p * p * r * (ev("1?00") + ev("10?0"))
    w4 = w3 - q * ev("?")
    explicit = ((1 - p * p - p * q - q) * ev("?") + 2 * ev("0?") - ev("?0?")
                + 2 * r * (1 - p * p) * ev("100?")
                - 2 * p * r * (ev("1?") + ev("10?"))
                - 2 * p * p * r * (ev("1??") + ev("1?0?") + ev("10??"))
                - 4 * r * ev("1?01") - 2 * p * p * r * (ev("1?00") + ev("10?0")))
    if w4 != explicit:
        raise RuntimeError("chained w4 disagrees with its expanded display")
    return (w0, w1, w2, w3, w4)


@per_point
def _weights(params: Params) -> tuple[Linear, ...]:
    """w0..w4 as functionals of the cylinder values at (p, q); the chain's
    identity check runs here, once per (p, q)."""
    return _weight_chain(_cylinder, params)


@per_point
def _weight_form(params: Params) -> _Form:
    return _compile(params, _weights(params))


def weight(k: int, mu: TIMeasure, params: Params) -> Fraction:
    """The k-th weight functional of the measure, k in 0..4."""
    if not 0 <= k <= 4:
        raise ValueError(f"weight index must be 0..4, got {k}")
    return _values(_weight_form(params), mu, params)[k]


# ------------------------------------------------------------------ window tables

# Rows are (start column, symbols); columns run -2..2 and column 0 is the site
# whose symbol the inequalities bound.  Within each table the rows are pairwise
# disjoint events.
_INEQ1_ROWS: tuple[tuple[int, str], ...] = (
    (-1, "1???"), (-1, "1??0"), (-1, "1?0?"), (-1, "1?00"),
    (-1, "???"), (-1, "??0"),
    (-2, "00?"), (-2, "?0?"),
    (-2, "???1"), (-2, "0??1"),
    (-2, "10??"), (-2, "10?0"),
    (-1, "1??1"), (-1, "1?01"), (-1, "1?1"),
    (-2, "1??1"), (-2, "10?1"),
)

_INEQ2_ROWS_Q: tuple[tuple[int, str], ...] = (
    (-1, "????"), (-1, "???0"), (-1, "??0?"), (-1, "??00"),
    (-1, "0???"), (-1, "0??0"), (-1, "0?0?"), (-1, "0?00"),
    (-1, "1???"), (-1, "1??0"), (-1, "1??1"), (-1, "1?0?"),
    (-1, "1?00"), (-1, "1?01"), (0, "?1"),
    (-1, "???1"), (-1, "0??1"), (-1, "??01"), (-1, "0?01"),
)

_INEQ2_ROWS_0Q: tuple[tuple[int, str], ...] = (
    (-1, "?0??"), (-1, "?0?0"), (-1, "00??"), (-1, "00?0"), (-1, "10??"),
    (-1, "10?0"), (-1, "?0?1"), (-1, "00?1"), (-1, "10?1"),
)

_INEQ2_ROWS_00Q: tuple[tuple[int, str], ...] = (
    (-1, "?00?"), (-1, "000?"), (-1, "100?"),
)

_TABLES: dict[str, tuple[tuple[tuple[int, str], ...], tuple[int, str], bool]] = {
    # table id -> (rows, scope as a row, union must equal the scope exactly)
    "ineq1_rows": (_INEQ1_ROWS, (0, "?"), False),
    "ineq2_rows_q": (_INEQ2_ROWS_Q, (0, "?"), False),
    "ineq2_rows_0q": (_INEQ2_ROWS_0Q, (0, "0?"), True),
    "ineq2_rows_00q": (_INEQ2_ROWS_00Q, (0, "00?"), True),
}


def _window_words(row: tuple[int, str]) -> frozenset[int]:
    """Indices of the words over columns -2..2 that the row matches."""
    start, syms = row
    left, right = start + 2, 3 - start - len(syms)
    if left < 0 or right < 0:
        raise ValueError(f"row {row!r} leaves the columns -2..2")
    text = " ".join(["[0?1]"] * left + [syms] + ["[0?1]"] * right)
    return frozenset(_event(text).indices)


@dataclass(frozen=True)
class TableStructure:
    """Measure-free facts about one row table, from the word sets of its rows."""

    table: str
    rows: int
    disjoint: bool
    within_scope: bool
    covers_scope: Optional[bool]  # None when the union is not claimed exact

    @property
    def ok(self) -> bool:
        return self.disjoint and self.within_scope and self.covers_scope in (None, True)


@lru_cache(maxsize=None)
def table_structure(table: str) -> TableStructure:
    rows, scope_row, exact = _TABLES[table]
    scope = _window_words(scope_row)
    words = [_window_words(row) for row in rows]
    union = frozenset().union(*words)
    disjoint = sum(map(len, words)) == len(union)
    covered = scope <= union if exact else None
    return TableStructure(table, len(rows), disjoint, union <= scope, covered)


_INEQ1_FORMS: tuple[tuple[str, tuple[tuple[int, str], ...]], ...] = (
    ("grouped", ((1, "***"), (-1, "0??"), (-1, "0?0"), (-1, "?00"), (2, "1 ***"),
                 (-2, "100?"), (-1, "??01"), (-1, "0?01"), (-1, "?0?1"), (-1, "00?1"),
                 (2, "1??1"), (1, "1?1"), (2, "1?01"))),
    ("expanded", ((1, "***"), (-1, "0??"), (-1, "0?0"), (-1, "0?1"), (-1, "?00"),
                  (-1, "?01"), (2, "1 ***"), (-2, "100?"), (2, "1??1"), (1, "1?1"),
                  (4, "1?01"))),
    ("final", ((1, "***"), (-2, "0?"), (1, "?0?"), (-2, "100?"), (2, "1 ***"),
               (2, "1??1"), (1, "1?1"), (4, "1?01"))),
)

_INEQ2_LHS: tuple[tuple[int, str], ...] = ((1, "?"), (1, "0?"), (1, "00?"))
_INEQ2_RHS: tuple[tuple[int, str], ...] = (
    (1, "[0?] ***"), (2, "1 ***"), (-1, "100?"), (1, "1?"), (2, "1?01"), (1, "1??1"))


@dataclass(frozen=True)
class TableReport:
    """One table-derived inequality checked on one measure."""

    which: str
    measure: str
    structure: tuple[TableStructure, ...]
    row_sums: tuple[tuple[str, Fraction], ...]
    forms: tuple[tuple[str, Fraction], ...]
    lhs: Fraction
    rhs: Fraction

    @property
    def slack(self) -> Fraction:
        return self.lhs - self.rhs

    @property
    def structural_ok(self) -> bool:
        return all(s.ok for s in self.structure)

    @property
    def passed(self) -> bool:
        return self.structural_ok and self.slack >= 0

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "measure": self.measure,
            "structure": [{"table": s.table, "rows": s.rows, "disjoint": s.disjoint,
                           "within_scope": s.within_scope, "covers_scope": s.covers_scope}
                          for s in self.structure],
            "row_sums": {k: frac_str(v) for k, v in self.row_sums},
            "forms": {k: frac_str(v) for k, v in self.forms},
            "lhs": frac_str(self.lhs),
            "rhs": frac_str(self.rhs),
            "slack": frac_str(self.slack),
            "pass": self.passed,
        }


@lru_cache(maxsize=None)
def _table_form(which: str) -> tuple[tuple[str, ...], tuple[str, ...], _Form]:
    """The row tables, the form names, and the row sums, forms, lhs and rhs of
    one inequality compiled (they are parameter-free)."""
    def row_sum(rows: Sequence[tuple[int, str]]) -> Linear:
        return _cylinders([(1, syms) for _, syms in rows])

    if which == "ineq_1":
        sums = (("ineq1_rows", row_sum(_INEQ1_ROWS)),)
        forms = tuple((name, _cylinders(terms)) for name, terms in _INEQ1_FORMS)
        lhs = _cylinder("?")
        rhs = forms[-1][1]
    else:
        sums = (("ineq2_rows_q", row_sum(_INEQ2_ROWS_Q)),
                ("ineq2_rows_0q", row_sum(_INEQ2_ROWS_0Q)),
                ("ineq2_rows_00q", row_sum(_INEQ2_ROWS_00Q)))
        forms = ()
        lhs = _cylinders(_INEQ2_LHS)
        rhs = _cylinders(_INEQ2_RHS)
    linears = (*(v for _, v in sums), *(v for _, v in forms), lhs, rhs)
    return tuple(k for k, _ in sums), tuple(k for k, _ in forms), _compile(None, linears)


def verify_table_inequality(which: str, mu: TIMeasure) -> TableReport:
    """Check one of the two assembled inequalities on a reflection-invariant measure.

    Structure (disjoint rows inside the claimed scope, exact unions where claimed)
    is verified measure-free on the sets of five-site words the rows match; the
    inequality itself and the displayed intermediate right-hand sides are then
    evaluated exactly on mu, each as one compiled functional.
    """
    if which not in ("ineq_1", "ineq_2"):
        raise ValueError(f"which must be 'ineq_1' or 'ineq_2', got {which!r}")
    if not mu.reflection_invariant:
        raise ValueError("table inequalities assume a reflection-invariant measure")
    tables, form_names, form = _table_form(which)
    values = _values(form, mu, None)
    sums = tuple(zip(tables, values))
    forms = tuple(zip(form_names, values[len(tables):]))
    return TableReport(which, mu.name, tuple(map(table_structure, tables)), sums, forms,
                       values[-2], values[-1])


# ------------------------------------------------------------------ master inequality

# Slack terms subtracted on the right of the master inequality: coefficient(p,q,r)
# times a signed combination of cylinder probabilities.  Every term must come out
# non-negative on its own; D and D' (built from the closed-form remainders) are
# appended by _master_form.
_MASTER_TERMS: tuple[tuple[str, Callable[[Fraction, Fraction, Fraction], Fraction],
                           tuple[tuple[int, str], ...]], ...] = (
    ("q(1+p-pr) [mu(0?)+mu(00?)]",
     lambda p, q, r: q * (1 + p - p * r), ((1, "0?"), (1, "00?"))),
    ("(p(1-r)+q) mu(10?)",
     lambda p, q, r: p * (1 - r) + q, ((1, "10?"),)),
    ("r(4q^2+4qp^2-2q^3+2q^2p) [mu(100?)+mu(1???)+mu(1?0?)+mu(10??)]",
     lambda p, q, r: r * (4 * q * q + 4 * q * p * p - 2 * q**3 + 2 * q * q * p),
     ((1, "100?"), (1, "1???"), (1, "1?0?"), (1, "10??"))),
    ("2r(1-p^2) mu(1??1)",
     lambda p, q, r: 2 * r * (1 - p * p), ((1, "1??1"),)),
    ("r(1-p) mu(1?1)",
     lambda p, q, r: r * (1 - p), ((1, "1?1"),)),
    ("r(4q^2+2qp^2(1+p)-2q^3+2q^2p) [mu(1??0)+mu(1?00)+mu(10?0)]",
     lambda p, q, r: r * (4 * q * q + 2 * q * p * p * (1 + p) - 2 * q**3 + 2 * q * q * p),
     ((1, "1??0"), (1, "1?00"), (1, "10?0"))),
    ("pr^2(1+2q) mu(1[***]1)",
     lambda p, q, r: p * r * r * (1 + 2 * q), ((1, "1 *** 1"),)),
    ("2p^3r^3(1-p) [mu(10000?)+mu(?0000?)]",
     lambda p, q, r: 2 * p**3 * r**3 * (1 - p), ((1, "10000?"), (1, "?0000?"))),
    ("2pqr^2(2-2q+p) mu(1[***])",
     lambda p, q, r: 2 * p * q * r * r * (2 - 2 * q + p), ((1, "1 ***"),)),
    ("(2pqr^2+qr(1-2p^2(1-p))) mu([***])",
     lambda p, q, r: 2 * p * q * r * r + q * r * (1 - 2 * p * p * (1 - p)), ((1, "***"),)),
    ("pr^2(1+2q(1-p)) mu(?000?)",
     lambda p, q, r: p * r * r * (1 + 2 * q * (1 - p)), ((1, "?000?"),)),
    ("6pqr^2(1-p) mu(0000?)",
     lambda p, q, r: 6 * p * q * r * r * (1 - p), ((1, "0000?"),)),
    ("2p^2qr^2 mu(1000?)",
     lambda p, q, r: 2 * p * p * q * r * r, ((1, "1000?"),)),
    ("4qp^2r^2 [mu(1[0?][***])-mu(1000?)]",
     lambda p, q, r: 4 * q * p * p * r * r, ((1, "1 [0?] ***"), (-1, "1000?"))),
    ("2p^2r^3(1-p)(1+p-q) mu(000?1)",
     lambda p, q, r: 2 * p * p * r**3 * (1 - p) * (1 + p - q), ((1, "000?1"),)),
    ("2p^2r^2(1-p)(1-p^2) mu(000[**]1)",
     lambda p, q, r: 2 * p * p * r * r * (1 - p) * (1 - p * p), ((1, "0 0 0 ** 1"),)),
    ("(2pqr^2(1-p)(2+p)+2pqr(1-2pr)+2p^2q^2r+4p^4qr^2) mu(000?)",
     lambda p, q, r: (2 * p * q * r * r * (1 - p) * (2 + p) + 2 * p * q * r * (1 - 2 * p * r)
                      + 2 * p * p * q * q * r + 4 * p**4 * q * r * r),
     ((1, "000?"),)),
    ("2qp^2r(1-p) mu(00000?)",
     lambda p, q, r: 2 * q * p * p * r * (1 - p), ((1, "00000?"),)),
)


@dataclass(frozen=True)
class WeightReport:
    """Master inequality bookkeeping: weights before/after one update, slack terms,
    and the overall slack w4(mu) - w4(image) - sum of the terms."""

    params: Params
    measure: str
    w_mu: tuple[Fraction, ...]
    w_image: tuple[Fraction, ...]
    terms: tuple[tuple[str, Fraction], ...]
    overall_slack: Fraction

    @property
    def negative_terms(self) -> tuple[str, ...]:
        return tuple(name for name, v in self.terms if v < 0)

    @property
    def passed(self) -> bool:
        return self.overall_slack >= 0 and not self.negative_terms

    def to_json_dict(self) -> dict:
        return {
            "p": frac_str(self.params.p),
            "q": frac_str(self.params.q),
            "measure": self.measure,
            "w_mu": [frac_str(v) for v in self.w_mu],
            "w_image": [frac_str(v) for v in self.w_image],
            "terms": [{"name": k, "value": frac_str(v)} for k, v in self.terms],
            "overall_slack": frac_str(self.overall_slack),
            "pass": self.passed,
        }


@per_point
def _master_form(params: Params) -> tuple[tuple[str, ...], _Form]:
    """The slack term names, and w0..w4 of mu, w0..w4 of its image, the slack
    terms and the overall slack compiled at (p, q)."""
    p, q, r = params.p, params.q, params.r
    w_mu = _weights(params)
    terms = [(name, coef(p, q, r) * _cylinders(pats)) for name, coef, pats in _MASTER_TERMS]
    cf = {name: dict(_closed_form_parts(name, params)[2])
          for name in ("10?", "100?", "1??", "1?0?", "10??", "1?01", "1?00", "10?0")}
    d_term = (2 * p * r * cf["10?"]["D"]
              + 2 * p * p * r * (cf["1??"]["C"] + cf["1?0?"]["C"] + cf["10??"]["C"])
              + 4 * r * cf["1?01"]["C"])
    d_prime = (2 * (q + p * p * r) * cf["100?"]["D"]
               + 2 * p * p * r * (cf["1?00"]["C"] + cf["10?0"]["C"]))
    terms.append(("D (update remainders of 10?,1??,1?0?,10??,1?01)", d_term))
    terms.append(("D' (update remainders of 100?,1?00,10?0)", d_prime))
    w_image = tuple(map(_image, w_mu))
    slack = w_mu[4] - w_image[4] - sum((v for _, v in terms), _ZERO)
    linears = (*w_mu, *w_image, *(v for _, v in terms), slack)
    return tuple(name for name, _ in terms), _compile(params, linears)


def verify_master_inequality(mu: TIMeasure, params: Params) -> WeightReport:
    """Exact check that one update decreases w4 by at least the named slack terms.

    w4 of the updated measure is evaluated entirely through brute-force
    pushforward probabilities -- none of the closed forms enter that side.  The
    remainder terms D and D' reuse the closed-form catalog's C/D components.
    Every reported value, the overall slack included, is a functional compiled
    once per (p, q), so each measure costs one integer dot product per value.
    """
    if not params.in_region:
        raise ValueError("master inequality requires p + q > 0")
    if not mu.reflection_invariant:
        raise ValueError("master inequality assumes a reflection-invariant measure")
    names, form = _master_form(params)
    values = _values(form, mu, params)
    return WeightReport(params, mu.name, tuple(values[:5]), tuple(values[5:10]),
                        tuple(zip(names, values[10:-1])), values[-1])


# ------------------------------------------------------------------ stationarity

@dataclass(frozen=True)
class StationarityReport:
    """What the master inequality forces a stationary measure to satisfy.

    ``gauge`` is |mu(?) - r*mu(***)|, zero for an exactly stationary measure; the
    ``forced`` cylinder masses are the ones that must vanish in the parameter
    branch at hand, so for a near-stationary empirical measure they should all be
    small.  Informational -- carries no pass/fail.
    """

    params: Params
    measure: str
    branch: str
    qmark: Fraction
    gauge: Fraction
    forced: tuple[tuple[str, Fraction], ...]

    def to_json_dict(self) -> dict:
        return {
            "p": frac_str(self.params.p),
            "q": frac_str(self.params.q),
            "measure": self.measure,
            "branch": self.branch,
            "qmark": frac_str(self.qmark),
            "gauge": frac_str(self.gauge),
            "forced": {k: frac_str(v) for k, v in self.forced},
        }


@per_point
def _stationary_form(params: Params) -> tuple[str, tuple[str, ...], _Form]:
    """The branch, the forced names, and mu(?), mu(?) - r*mu(***) and the forced
    cylinders compiled at (p, q)."""
    c = _cylinder
    p, q, r = params.p, params.q, params.r
    if r == 0:
        branch, forced = "r=0", (("mu(?)", c("?")),)
    elif q > 0:
        branch, forced = "q>0", (("mu(***)", c("***")), ("mu(?)", c("?")))
    elif p > 0:
        branch = "q=0,p>0"
        forced = (("mu(10?)", c("10?")), ("mu(000?1)", c("000?1")),
                  ("mu(000?)", c("000?")), ("mu(***)", c("***")), ("mu(?)", c("?")))
    else:
        branch, forced = "p=q=0", ()
    linears = (c("?"), c("?") - r * c("***"), *(v for _, v in forced))
    return branch, tuple(k for k, _ in forced), _compile(params, linears)


def stationary_conclusion_check(params: Params, mu: TIMeasure) -> StationarityReport:
    branch, names, form = _stationary_form(params)
    qmark, gauge, *forced = _values(form, mu, params)
    return StationarityReport(params, mu.name, branch, qmark, abs(gauge), tuple(zip(names, forced)))
