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
Cylinder and pushforward probabilities are integer sums over one
denominator, which the checks read as they are and which become Fractions only
when returned; a pushforward kernel multiplies the point's integer class-law
masses over its scale (``Params.law_masses``).  Every quantity built on top
is a linear functional of those values whose coefficients are polynomials in
(p, q): its transcription runs once per process, on first use, on unit
functionals and on p, q and r, all of one sparse integer type (``Sparse``),
giving a parameter-free plan.  A point compiles a plan by integer evaluation to
coefficients over one denominator, the power s^E of its scale, and a measure
evaluates each functional as one integer dot product over one positive
denominator.  The reports keep those numerators and decide their verdicts on
integer signs; a value becomes a Fraction only when it is read.  Every plan
builder returns (labels, plan), and every point-dependent check is compiled by
the one per-point ``_compiled``: its forms, like the kernels, are kept on their
point (``core.per_point``), built once per point in any visiting order and
freed with it.  The window tables are compiled once per process.
Floats never enter a verification path.
"""

from __future__ import annotations

import math
import operator
import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .core import (TRIPLE_CLASSES, CylinderPattern, EnvSymbol, Frozen, Params, SYMBOLS,
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

class TIMeasure(Frozen):
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
    freed with the measure.  Two measures are equal only if they are one object.
    """

    __slots__ = ("counts", "den", "name", "reflection_invariant", "signature_masses",
                 "cylinder_counts")
    _fields = __slots__[:4]
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, counts: tuple[tuple[int, ...], ...], den: int, name: str,
                 reflection_invariant: bool) -> None:
        self._set(counts, den, name, reflection_invariant, {}, {})

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
        reflect = _reversal()(top) == top
        return cls(tuple(margs), den, name, reflect)

    def __str__(self) -> str:
        return self.name


@lru_cache(maxsize=None)
def _reversal() -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Reads a table over the words of length ``ORDER`` at each word's reversal,
    in base-3 index order."""
    out = [0]
    for _ in range(ORDER):
        # prepending digit d to w appends d to reversed(w)
        out = [3 * rev + d for d in range(3) for rev in out]
    return operator.itemgetter(*out)


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
    return product_measure(*(int(s is symbol) for s in SYMBOLS))


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
    numpy is imported here, not with the module: only a row, which is already
    a numpy array, needs it, so the exact checks run without numpy.
    """
    import numpy as np

    if row.cells.ndim != 1:
        raise ValueError("empirical measure needs one row, not a stack")
    width = row.width
    ext = np.resize(row.cells, width + ORDER - 1)  # cell (n + j) % width at n + j
    idx = ext[:width].astype(np.int16)  # 3**ORDER words fit int16
    for j in range(1, ORDER):
        idx *= 3
        idx += ext[j:j + width]
    counts = np.bincount(idx, minlength=3**ORDER).tolist()
    return TIMeasure.from_table(counts, width, f"empirical(width={width})")


# ------------------------------------------------------------------ cylinders

@lru_cache(maxsize=None)
def _event(text: str) -> CylinderPattern:
    """The parsed pattern: its span and the base-3 indices of the words in it.

    The one place a pattern text is parsed: once per distinct text.
    """
    return CylinderPattern.parse(text)


def cylinder_prob(mu: TIMeasure, text: str, *, numerator: bool = False) -> Fraction | int:
    """Probability under mu of the cylinder event named by the pattern text.

    The sum of the event's word counts over ``mu.den``, made a Fraction; with
    ``numerator=True`` the integer sum itself, which is how the compiled checks
    read it.  They call this function for it, not the counts, because the
    benchmark's tracer counts cylinder reads by wrapping it.
    """
    pat = _event(text)
    if pat.span > ORDER:
        raise ValueError(f"pattern span {pat.span} exceeds measure order {ORDER}")
    marg = mu.counts[pat.span]
    num = sum([marg[i] for i in pat.indices])
    return num if numerator else Fraction(num, mu.den)


@lru_cache(maxsize=None)
def _signature_groups(span: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The input words over span+2 sites grouped by class signature (the classes
    of their span consecutive triples): (code, base-3 word indices) pairs, in
    order of each signature's first word, where the code reads the signature's
    class codes in base 3, leftmost triple most significant.  A word's code
    extends the code of its first span+1 sites by the class of its last triple.
    Parameter- and pattern-free."""
    codes = [0] * 9
    for k in range(1, span + 1):
        codes = [codes[u // 3] * 3 + TRIPLE_CLASSES[u % 27] for u in range(3 ** (k + 2))]
    by_code: dict[int, list[int]] = {}
    for u, code in enumerate(codes):
        by_code.setdefault(code, []).append(u)
    return tuple((code, tuple(us)) for code, us in by_code.items())


@lru_cache(maxsize=None)
def _signature_reader(span: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Reads a table over class codes at each signature group's code, in group order."""
    return operator.itemgetter(*[code for code, _ in _signature_groups(span)])


def _group_masses(marg: tuple[int, ...], span: int) -> tuple[int, ...]:
    """The counts of the span+2 marginal summed within each signature group."""
    return tuple(sum([marg[u] for u in words]) for _, words in _signature_groups(span))


# Stores nothing: _point_kernel calls it only to build, so perfbench/spans.py counts its misses.
@lru_cache(maxsize=0)
def _pushforward_kernel(text: str, params: Params) -> tuple[int, tuple[int, ...]]:
    """(den, k) with k[g] / den = P(the updated window lies in the pattern | the
    input word has signature g), g indexing _signature_groups(span).

    The rule's law depends on a triple only through its class, and output
    sites are independent given the input word, so one word of the event
    contributes, at the class codes c_1..c_span, the product over its sites of
    the mass class c_j puts on its symbol j: the outer product of its sites'
    columns, 3^span integers, leftmost site most significant.  The event's
    words are summed site by site from the right, so words that share a
    prefix extend one sum; the kernel reads that table at each group's code.
    The masses are the point's integer class law masses over its scale
    (``Params.law_masses``), so a product of span masses is an integer over
    den = scale^span.
    """
    pat = _event(text)
    scale, masses = params.law_masses
    # columns[s][c]: the mass class c's law puts on symbol code s, times scale
    columns = tuple(zip(*masses))
    # tables[w]: the summed outer products of the sites already read, over the
    # event's words that start with the prefix w
    tables: dict[int, list[int]] = dict.fromkeys(pat.indices, [1])
    for _ in range(pat.span):
        summed: dict[int, list[int]] = {}
        for w, table in tables.items():
            prefix, s = divmod(w, 3)
            block = [m * t for m in columns[s] for t in table]
            if prefix in summed:
                block = list(map(operator.add, summed[prefix], block))
            summed[prefix] = block
        tables = summed
    return scale**pat.span, _signature_reader(pat.span)(tables[0])


_point_kernel = per_point(_pushforward_kernel)


def pushforward_cylinder(mu: TIMeasure, text: str, params: Params, *,
                         numerator: bool = False) -> Fraction | int:
    """Probability of the cylinder event after one synchronous update of mu.

    The dot product of the kernel with mu's word masses grouped by class
    signature over the span+2 input sites; the grouped masses do not depend on
    (p, q) or on the pattern beyond its span, so each measure sums them once;
    the kernel is kept on the point.  A build sums one outer product of span
    columns per event word (3^k words for an event with k ``[0?1]`` cells),
    sharing the sums of words with a common prefix, and reads the 3^span
    result once per signature group.

    The dot product is an integer over the kernel's denominator s**span (s
    the point's scale) times ``mu.den``, made a Fraction; with
    ``numerator=True`` it is returned as that integer, which is how the
    compiled checks read it.  They call this function for it, not the kernel,
    because the benchmark's tracer times kernel builds and warm reads by
    wrapping it.
    """
    span = _event(text).span
    if span + 2 > ORDER:
        raise ValueError(f"pushforward of span {span} needs order >= {span + 2}, have {ORDER}")
    den, kernel = _point_kernel(text, params)
    masses = mu.signature_masses.get(span)
    if masses is None:
        masses = mu.signature_masses[span] = _group_masses(mu.counts[span + 2], span)
    num = sum(map(operator.mul, kernel, masses))
    return num if numerator else Fraction(num, den * mu.den)


# ------------------------------------------------------------------ linear functionals

# A basis value of a measure mu at fixed (p, q): ("c", text) is mu of the
# text's cylinder and ("f", text) its probability after one update of mu.
Key = tuple[str, str]


class Sparse:
    """An integer combination of basis values times monomials in (p, q):
    ``terms[key, i, j]`` is the coefficient of that basis value times p^i q^j,
    and the key None stands for the constant 1.

    So one type holds p, q, r, ints and the linear functionals of a measure
    whose coefficients are polynomials in (p, q).  The closed forms, the
    weight chain, the table forms and the master terms are transcribed once
    each; running a transcription on unit functionals and on p, q and r turns
    it into these, once per process.  A term keeps its entry when its
    coefficient is zero, so a functional still reads every value its
    transcription names.  Just enough for the transcriptions: ``+``, ``-``,
    ``*`` and ``**`` with each other and with ints.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[Optional[Key], int, int], int]) -> None:
        self.terms = terms

    def __add__(self, other: "Sparse | int") -> "Sparse":
        out = dict(self.terms)
        for term, c in _sparse(other).terms.items():
            out[term] = out.get(term, 0) + c
        return Sparse(out)

    __radd__ = __add__

    def __mul__(self, other: "Sparse | int") -> "Sparse":
        out: dict[tuple[Optional[Key], int, int], int] = {}
        for (key, i, j), c in self.terms.items():
            for (other_key, k, l), d in _sparse(other).terms.items():
                if key is not None and other_key is not None:
                    raise TypeError("a product of two functionals is not linear")
                term = (key if other_key is None else other_key), i + k, j + l
                out[term] = out.get(term, 0) + c * d
        return Sparse(out)

    __rmul__ = __mul__

    def __neg__(self) -> "Sparse":
        return self * -1

    def __sub__(self, other: "Sparse | int") -> "Sparse":
        return self + -other

    def __rsub__(self, other: int) -> "Sparse":
        return -self + other

    def __pow__(self, n: int) -> "Sparse":
        return math.prod([self] * n, start=_sparse(1))

    def __eq__(self, other: object) -> bool:
        """Equal when every coefficient is, a missing term reading 0."""
        if not isinstance(other, (Sparse, int)):
            return NotImplemented
        other = _sparse(other)
        terms = self.terms.keys() | other.terms.keys()
        return all(self.terms.get(t, 0) == other.terms.get(t, 0) for t in terms)


def _sparse(x: Sparse | int) -> Sparse:
    """x, with an int read as a constant; a zero keeps its entry."""
    if isinstance(x, int):
        return Sparse({(None, 0, 0): x})
    if not isinstance(x, Sparse):
        raise TypeError(f"a Sparse combines with ints, not {type(x).__name__}")
    return x


# The parameters: p, q and r = 1 - p - q.
_P, _Q = Sparse({(None, 1, 0): 1}), Sparse({(None, 0, 1): 1})
_R = 1 - _P - _Q
_ZERO = Sparse({})


def _cylinder(text: str) -> Sparse:
    """The unit functional mu -> mu(text)."""
    return Sparse({(("c", text), 0, 0): 1})


def _pushforward(text: str) -> Sparse:
    """The unit functional mu -> (image of mu)(text)."""
    return Sparse({(("f", text), 0, 0): 1})


def _cylinders(terms: Sequence[tuple[int, str]]) -> Sparse:
    """sum of coef * mu(text) over the (coef, text) terms."""
    return sum((coef * _cylinder(text) for coef, text in terms), _ZERO)


def _image(form: Sparse) -> Sparse:
    """The same functional read on the updated measure: each cylinder value
    replaced by its pushforward."""
    return Sparse({(("f", key[1]), i, j): c for (key, i, j), c in form.terms.items()})


class _Plan(NamedTuple):
    """Functionals whose coefficients are polynomials in (p, q), parameter-free.

    Basis value j is a cylinder (``spans[j]`` = 0) or a pushforward of span
    ``spans[j]``.  ``degree`` is E, the largest degree plus span of a nonzero
    term.  Each row (idx, coefs) is one distinct functional.  With p = a/s and
    q = b/s, its coefficient on basis value idx[t], lifted to the one
    denominator s^E, is the sum of c * a^i * b^k * s^l over the terms
    (c, i, k, l) of coefs[t], where i + k + l = E - spans[idx[t]].  ``order``
    gives the row of each functional as the caller listed them: functionals
    that are equal share one row.
    """

    keys: tuple[Key, ...]
    spans: tuple[int, ...]
    rows: tuple[tuple[tuple[int, ...], tuple[tuple[tuple[int, int, int, int], ...], ...]], ...]
    degree: int
    order: tuple[int, ...]


def _plan(forms: Sequence[Sparse]) -> _Plan:
    """The functionals as a plan: a zero term leaves its row, and its key stays;
    equal functionals (as a fully specified closed form's value and written
    part are) make one row."""
    keys = tuple(dict.fromkeys(key for form in forms for key, _, _ in form.terms
                               if key is not None))
    spans = tuple(_event(text).span if kind == "f" else 0 for kind, text in keys)
    index = {key: j for j, key in enumerate(keys)}
    rows: list[dict[int, list[tuple[int, int, int]]]] = []
    seen: dict[frozenset, int] = {}  # each distinct functional's row
    order = []
    for form in forms:
        row: dict[int, list[tuple[int, int, int]]] = {}
        for (key, i, k), c in form.terms.items():
            if c and key is None:
                raise ValueError(f"a planned functional has the constant term {c} p^{i} q^{k}")
            if c:
                row.setdefault(index[key], []).append((c, i, k))
        functional = frozenset((j, frozenset(terms)) for j, terms in row.items())
        if functional not in seen:
            seen[functional] = len(rows)
            rows.append(row)
        order.append(seen[functional])
    degree = max((i + k + spans[j] for row in rows for j, terms in row.items()
                  for _, i, k in terms), default=0)
    return _Plan(keys, spans, tuple(
        (tuple(row), tuple(tuple((c, i, k, degree - spans[j] - i - k) for c, i, k in terms)
                           for j, terms in row.items())) for row in rows), degree, tuple(order))


class _Form(NamedTuple):
    """Functionals at one (p, q), compiled to integers.

    Basis value j of a measure mu is read as an integer numerator n[j]: a
    cylinder's over ``mu.den``, a pushforward's of span k over ``s**k *
    mu.den`` (s the point's scale), as ``_values`` reads them; functional i is
    then ``sum(coefs * n[idx]) / (den * mu.den)`` for its row (idx, coefs) =
    ``rows[order[i]]``.
    """

    keys: tuple[Key, ...]
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    den: int
    order: tuple[int, ...]


def _compile(plan: _Plan, params: Optional[Params]) -> _Form:
    """The plan at (p, q) by integer evaluation, over the one denominator s^E.

    (s, a, b) = ``params.scaled``, so p = a/s and q = b/s; a pushforward of
    span j is over s^j * mu.den, its kernel's denominator.  Without a point
    (``None``) the plan must have constant coefficients.
    """
    if params is None and plan.degree:
        raise ValueError(f"a plan of degree {plan.degree} needs a point")
    s, a, b = (1, 0, 0) if params is None else params.scaled
    pa, pb, ps = ([x**n for n in range(plan.degree + 1)] for x in (a, b, s))
    rows = tuple((idx, tuple(sum([c * pa[i] * pb[k] * ps[l] for c, i, k, l in coef])
                             for coef in coefs)) for idx, coefs in plan.rows)
    return _Form(plan.keys, rows, s**plan.degree, plan.order)


def _values(form: _Form, mu: TIMeasure, params: Optional[Params]) -> tuple[list[int], int]:
    """Each compiled functional on mu, as an integer numerator over the one
    positive denominator ``form.den * mu.den``: one integer dot product per
    distinct functional, and no Fraction, so a caller decides a sign or an
    order on integers and makes a Fraction only for a value it reports.

    The basis values are read as integer numerators too: a cylinder's over
    ``mu.den``, through ``cylinder_prob(..., numerator=True)`` once per
    (measure, text), kept on the measure; a pushforward's over its kernel's
    denominator times ``mu.den``, through ``pushforward_cylinder(...,
    numerator=True)``, whose kernels stay on the point.  Both are called by
    their module-level names, the benchmark tracer's hook.
    """
    counts = mu.cylinder_counts
    nums = []
    for kind, text in form.keys:
        if kind == "c":
            num = counts.get(text)
            if num is None:
                num = counts[text] = cylinder_prob(mu, text, numerator=True)
        else:
            num = pushforward_cylinder(mu, text, params, numerator=True)
        nums.append(num)
    sums = [sum([a * nums[j] for j, a in zip(idx, coefs)]) for idx, coefs in form.rows]
    return [sums[i] for i in form.order], form.den * mu.den


@per_point
def _compiled(plan: Callable[..., tuple[object, _Plan]], *args) -> tuple[object, _Form]:
    """``plan(*args[:-1])``, a builder's (labels, plan) made once per process,
    with its plan compiled at the point ``args[-1]``, once per point."""
    labels, built = plan(*args[:-1])
    return labels, _compile(built, args[-1])


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """The values n / den, each reduced."""
    return tuple(Fraction(n, den) for n in nums)


# ------------------------------------------------------------------ closed forms

# 20 rational (p, q) points covering the interior plus the p=0, q=0 and p+q=1
# edges; a caller makes each point's Params, and with it the point's memos.
FORMULA_GRID = tuple((Fraction(a), Fraction(b)) for a, b in (
    ("0", "1"), ("1", "0"), ("1/2", "1/2"), ("1/5", "4/5"),
    ("0", "1/3"), ("0", "2/3"), ("1/3", "0"), ("2/3", "0"),
    ("1/5", "3/10"), ("1/100", "1/100"), ("1/3", "1/5"), ("1/2", "1/4"),
    ("1/4", "1/2"), ("3/10", "3/10"), ("1/10", "1/10"), ("2/5", "1/5"),
    ("1/5", "2/5"), ("1/6", "1/6"), ("9/10", "1/20"), ("1/20", "9/10"),
))


class ClosedFormResult(NamedTuple):
    """One catalog entry evaluated on a measure.

    ``value`` is the pushforward probability of the cylinder: for a fully
    specified entry it is computed from the written formula alone, otherwise it
    is written + remainder with the remainder obtained by subtracting the written
    part from the brute-force pushforward.  ``components`` carries the named
    sub-expressions (written part, C/D remainders), named by ``names``, and
    ``pushforward`` the brute-force pushforward itself.

    The values are kept as integer numerators ``nums`` (the value, one per
    component, then the pushforward) over the one positive denominator
    ``den``; two names for one functional read one computed numerator.
    ``passed`` decides on them; ``value``, ``components`` and ``pushforward``
    are made as Fractions only when read.
    """

    formula: str
    params: Params
    measure: str
    names: tuple[str, ...]
    nums: tuple[int, ...]
    den: int
    fully_specified: bool

    @property
    def value(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def components(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(zip(self.names, _fractions(self.nums[1:-1], self.den)))

    def component(self, name: str) -> Fraction:
        return dict(self.components)[name]

    @property
    def pushforward(self) -> Fraction:
        return Fraction(self.nums[-1], self.den)

    @property
    def passed(self) -> bool:
        """The value equals the pushforward and no C/D remainder is negative."""
        remainders = [n for k, n in zip(self.names, self.nums[1:-1]) if k.startswith(("C", "D"))]
        return self.nums[0] == self.nums[-1] and all(n >= 0 for n in remainders)


def _closed_form_parts(name: str) -> tuple[bool, Sparse, tuple[tuple[str, Sparse], ...]]:
    """(fully specified, value, named components) of one catalog entry, as
    functionals with coefficients in (p, q): the catalog's one transcription."""
    p, q, r = _P, _Q, _R
    c = _cylinder
    push = _pushforward(name)

    def full(value: Sparse, *extra: tuple[str, Sparse]):
        return True, value, (("written", value),) + extra

    def partial(written: Sparse):
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


@lru_cache(maxsize=None)
def _closed_form_plan(name: str) -> tuple[tuple[bool, tuple[str, ...]], _Plan]:
    """Whether the entry is fully specified and its component names, and its
    value, its components and then its brute-force pushforward as a plan.  A
    fully specified entry's value and written part are one functional, and so
    are a partial entry's value and pushforward: each such pair shares a row."""
    fully, value, comps = _closed_form_parts(name)
    return (fully, tuple(k for k, _ in comps)), _plan((value, *(v for _, v in comps),
                                                       _pushforward(name)))


def closed_form(name: str, mu: TIMeasure, params: Params) -> ClosedFormResult:
    """Evaluate one closed-form catalog entry exactly.

    Requires a reflection-invariant measure (two of the writings use the
    reflected cylinder).  Each measure costs one dot product per reported
    value, and every entry reads its pushforward through
    ``pushforward_cylinder`` once.
    """
    if name not in CLOSED_FORM_IDS:
        raise ValueError(f"unknown formula {name!r}; known: {CLOSED_FORM_IDS}")
    if not mu.reflection_invariant:
        raise ValueError("closed forms assume a reflection-invariant measure")
    (fully, names), form = _compiled(_closed_form_plan, name, params)
    nums, den = _values(form, mu, params)
    return ClosedFormResult(name, params, mu.name, names, tuple(nums), den, fully)


# ------------------------------------------------------------------ weights

def _weight_chain(ev: Callable[[str], Sparse]) -> tuple[Sparse, ...]:
    """w0..w4 as functionals, with the unit functional of each cylinder from ``ev``.

    The chained form and the expanded final display are the same functional;
    comparing their polynomial coefficients keeps the two transcriptions
    honest, for every measure and every (p, q) at once.
    """
    p, q, r = _P, _Q, _R
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


@lru_cache(maxsize=None)
def _weights() -> tuple[Sparse, ...]:
    """w0..w4 as functionals of the cylinder values; the chain's identity
    check runs here, once per process."""
    return _weight_chain(_cylinder)


@lru_cache(maxsize=None)
def _weight_plan() -> tuple[tuple[()], _Plan]:
    return (), _plan(_weights())


def weight(k: int, mu: TIMeasure, params: Params) -> Fraction:
    """The k-th weight functional of the measure, k in 0..4."""
    if not 0 <= k <= 4:
        raise ValueError(f"weight index must be 0..4, got {k}")
    nums, den = _values(_compiled(_weight_plan, params)[1], mu, params)
    return Fraction(nums[k], den)


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


class TableStructure(NamedTuple):
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


class TableReport(NamedTuple):
    """One table-derived inequality checked on one measure.

    The values are kept as integer numerators ``nums`` over the one positive
    denominator ``den``: the row sum of each table of ``structure``, then one
    per displayed form (named by ``form_names``), then lhs and rhs.  ``passed``
    compares lhs with rhs on integers; ``row_sums``, ``forms``, ``lhs``,
    ``rhs`` and ``slack`` are made as Fractions only when read.
    """

    which: str
    measure: str
    structure: tuple[TableStructure, ...]
    form_names: tuple[str, ...]
    nums: tuple[int, ...]
    den: int

    @property
    def row_sums(self) -> tuple[tuple[str, Fraction], ...]:
        sums = self.nums[:len(self.structure)]
        return tuple(zip((s.table for s in self.structure), _fractions(sums, self.den)))

    @property
    def forms(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(zip(self.form_names,
                         _fractions(self.nums[len(self.structure):-2], self.den)))

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.nums[-2], self.den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.nums[-1], self.den)

    @property
    def slack(self) -> Fraction:
        return Fraction(self.nums[-2] - self.nums[-1], self.den)

    @property
    def structural_ok(self) -> bool:
        return all(s.ok for s in self.structure)

    @property
    def passed(self) -> bool:
        return self.structural_ok and self.nums[-2] >= self.nums[-1]

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


def _table_plan(which: str) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], _Plan]:
    """The row tables and the form names of one inequality, and its row sums,
    forms, lhs and rhs as a plan (their coefficients are constants)."""
    if which == "ineq_1":
        tables, forms, lhs, rhs = ("ineq1_rows",), _INEQ1_FORMS, ((1, "?"),), _INEQ1_FORMS[-1][1]
    else:
        tables, forms, lhs, rhs = (("ineq2_rows_q", "ineq2_rows_0q", "ineq2_rows_00q"), (),
                                   _INEQ2_LHS, _INEQ2_RHS)
    sums = [[(1, syms) for _, syms in _TABLES[table][0]] for table in tables]
    linears = [_cylinders(terms) for terms in (*sums, *(t for _, t in forms), lhs, rhs)]
    return (tables, tuple(name for name, _ in forms)), _plan(linears)


@lru_cache(maxsize=None)
def _table_form(which: str) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], _Form]:
    """The inequality's plan, made and compiled once per process: it needs no point."""
    labels, plan = _table_plan(which)
    return labels, _compile(plan, None)


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
    (tables, form_names), form = _table_form(which)
    nums, den = _values(form, mu, None)
    return TableReport(which, mu.name, tuple(map(table_structure, tables)), form_names,
                       tuple(nums), den)


# ------------------------------------------------------------------ master inequality

# Slack terms subtracted on the right of the master inequality: coefficient(p,q,r)
# times a signed combination of cylinder probabilities.  Every term must come out
# non-negative on its own; D and D' (built from the closed-form remainders) are
# appended by _master_plan.
_MASTER_TERMS: tuple[tuple[str, Callable[[Sparse, Sparse, Sparse], Sparse],
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


class WeightReport(NamedTuple):
    """Master inequality bookkeeping: weights before/after one update, slack terms,
    and the overall slack w4(mu) - w4(image) - sum of the terms.

    The values are kept as integer numerators ``nums`` over the one positive
    denominator ``den``: w0..w4 of mu, w0..w4 of its image, one per slack term
    (named by ``names``), then the overall slack.  ``negative_terms`` and
    ``passed`` read their signs; ``w_mu``, ``w_image``, ``terms`` and
    ``overall_slack`` are made as Fractions only when read.
    """

    params: Params
    measure: str
    names: tuple[str, ...]
    nums: tuple[int, ...]
    den: int

    @property
    def w_mu(self) -> tuple[Fraction, ...]:
        return _fractions(self.nums[:5], self.den)

    @property
    def w_image(self) -> tuple[Fraction, ...]:
        return _fractions(self.nums[5:10], self.den)

    @property
    def terms(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(zip(self.names, _fractions(self.nums[10:-1], self.den)))

    @property
    def overall_slack(self) -> Fraction:
        return Fraction(self.nums[-1], self.den)

    @property
    def negative_terms(self) -> tuple[str, ...]:
        return tuple(name for name, n in zip(self.names, self.nums[10:-1]) if n < 0)

    @property
    def passed(self) -> bool:
        return self.nums[-1] >= 0 and not self.negative_terms

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


@lru_cache(maxsize=None)
def _master_plan() -> tuple[tuple[str, ...], _Plan]:
    """The slack term names, and w0..w4 of mu, w0..w4 of its image, the slack
    terms and the overall slack as a plan."""
    p, q, r = _P, _Q, _R
    w_mu = _weights()
    terms = [(name, coef(p, q, r) * _cylinders(pats)) for name, coef, pats in _MASTER_TERMS]
    cf = {name: dict(_closed_form_parts(name)[2])
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
    return tuple(name for name, _ in terms), _plan(linears)


def verify_master_inequality(mu: TIMeasure, params: Params) -> WeightReport:
    """Exact check that one update decreases w4 by at least the named slack terms.

    w4 of the updated measure is evaluated entirely through brute-force
    pushforward probabilities -- none of the closed forms enter that side.  The
    remainder terms D and D' reuse the closed-form catalog's C/D components.
    Every reported value, the overall slack included, is one compiled
    functional, so each measure costs one integer dot product per value, and
    the verdict is read from the signs of those integers.
    """
    if not params.in_region:
        raise ValueError("master inequality requires p + q > 0")
    if not mu.reflection_invariant:
        raise ValueError("master inequality assumes a reflection-invariant measure")
    names, form = _compiled(_master_plan, params)
    nums, den = _values(form, mu, params)
    return WeightReport(params, mu.name, names, tuple(nums), den)


# ------------------------------------------------------------------ stationarity

class StationarityReport(NamedTuple):
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


# The cylinders that must vanish at stationarity, by parameter branch.
_FORCED = {"r=0": ("?",), "q>0": ("***", "?"), "q=0,p>0": ("10?", "000?1", "000?", "***", "?"),
           "p=q=0": ()}


@lru_cache(maxsize=None)
def _stationary_plan(branch: str) -> tuple[str, _Plan]:
    """The branch, and mu(?), mu(?) - r*mu(***) and its forced cylinders as a plan."""
    c = _cylinder
    return branch, _plan((c("?"), c("?") - _R * c("***"), *map(c, _FORCED[branch])))


def stationary_conclusion_check(params: Params, mu: TIMeasure) -> StationarityReport:
    branch = "r=0" if not params.r else "q>0" if params.q else "q=0,p>0" if params.p else "p=q=0"
    _, form = _compiled(_stationary_plan, branch, params)
    qmark, gauge, *forced = _fractions(*_values(form, mu, params))
    names = tuple(f"mu({text})" for text in _FORCED[branch])
    return StationarityReport(params, mu.name, branch, qmark, abs(gauge), tuple(zip(names, forced)))
