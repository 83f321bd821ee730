"""Reference implementations the tests compare the package against.

Each one does the job of some part of ``percolab`` the slow, direct way (one
sample at a time, one word at a time, one stream at a time), so that agreement
with the fast path is evidence that the fast path is right.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from percolab import core, game, pca
from percolab.core import (
    EnvSymbol,
    GameClass,
    GameVersion,
    Params,
    SiteLabel,
    StochOrder,
    TripleClass,
    Word,
    as_fraction,
    iter_words,
    symbol_leq,
    upper_sets,
    word_str,
)
from percolab.measures import (
    _INEQ1_FORMS,
    _INEQ1_ROWS,
    _INEQ2_LHS,
    _INEQ2_RHS,
    _INEQ2_ROWS_0Q,
    _INEQ2_ROWS_00Q,
    _INEQ2_ROWS_Q,
    _MASTER_TERMS,
    CLOSED_FORM_IDS,
    ORDER,
    ClosedFormResult,
    StationarityReport,
    TableReport,
    TIMeasure,
    WeightReport,
    cylinder_prob,
    frac_str,
    pushforward_cylinder,
    table_structure,
)
from percolab.pca import (
    Configuration,
    ModelSpec,
    _GOLD,
    _MUL1,
    _MUL2,
    _TAG_N,
    _TAG_T,
    SeededStream,
    _as_u64,
)
from percolab.pca import step as pca_step

# ------------------------------------------------------------------ streams


def _finalize(z):
    """splitmix64 finalizer in plain numpy expressions, scalars or arrays."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MUL1
        z = (z ^ (z >> np.uint64(27))) * _MUL2
        return z ^ (z >> np.uint64(31))


def key_u64(seed_u64, t, n):
    """The (seed, t, n) hash with every step in numpy, (seed, t) prefix included."""
    with np.errstate(over="ignore"):
        h = _finalize(seed_u64 + _GOLD)
        h = _finalize(h ^ (_as_u64(t) * _MUL2 + _TAG_T))
        return _finalize(h ^ (_as_u64(n) * _MUL1 + _TAG_N))


def variates(stream: SeededStream, t: int, n0: int, count: int) -> np.ndarray:
    """The 53-bit variates h >> 11 at sites n0..n0+count-1 of step t."""
    sites = n0 + np.arange(count, dtype=np.int64)
    return key_u64(stream._seed_u64(), t, sites) >> np.uint64(11)


def u01(stream: SeededStream, t: int, n: int) -> float:
    """The uniform at (t, n), hashed one scalar key at a time."""
    return float((key_u64(stream._seed_u64(), t, n) >> np.uint64(11)) * 2.0**-53)


def child_stream(stream: SeededStream, k: int) -> SeededStream:
    """The stream of sample k, as the batched game solver keys it."""
    return SeededStream(int(stream.child_seeds_u64(k + 1)[k]))


# ------------------------------------------------------------------ exact variates

ONE53 = 2**53  # no variate reaches it
_M64 = 2**64 - 1
# The stream and step at which ``hashing_to`` sets the hashes.
EXACT_SEED, EXACT_T = 5, 3


def _unfinalize_tail(h: int) -> int:
    """The inverse of ``pca._finalize_tail`` on a Python int."""
    h ^= h >> 31 ^ h >> 62
    h = h * pow(pca._MUL2_INT, -1, 2**64) & _M64
    h ^= h >> 27 ^ h >> 54
    return h * pow(pca._MUL1_INT, -1, 2**64) & _M64


@contextmanager
def hashing_to(hashes: Sequence[int]):
    """Within the block, site n of step ``EXACT_T`` of the stream
    ``EXACT_SEED`` hashes to hashes[n] exactly, in ``u01_range`` and
    ``u01_block`` alike: ``pca._site_keys`` is swapped for the keys that
    finalize to them under that (seed, t) prefix, and put back after.  Yields
    the stream and the step."""
    prefix = pca._finalize_int((EXACT_SEED + pca._GOLD_INT) & _M64)
    prefix = pca._finalize_int(prefix ^ pca._step_key(EXACT_T))
    prefix ^= prefix >> 30
    keys = np.array([_unfinalize_tail(h) ^ prefix for h in hashes], dtype=np.uint64)
    real = pca._site_keys
    pca._site_keys = lambda n0, count: keys
    try:
        yield SeededStream(EXACT_SEED), EXACT_T
    finally:
        pca._site_keys = real


def step_at(ks, params: Params, cells) -> np.ndarray:
    """``pca.step``'s cells from the row or stack ``cells`` at the variates
    ``ks``: site n reads ks[n].  The step runs from the hashes k << 11 and
    again from the hashes with all 11 low bits set; None if the two differ."""
    outs = []
    for low in (0, 0x7FF):
        with hashing_to([int(k) << 11 | low for k in ks]) as (stream, t):
            outs.append(pca.step(Configuration(cells), ModelSpec(0, params), stream, t).cells)
    return outs[0] if np.array_equal(*outs) else None


def interval_law(read, cuts):
    """The law that ``read`` induces on the variates 0..2**53-1, as integer
    counts per output code, one row per output row; None if the output
    changes inside an interval.

    ``read`` maps an array of variates to an array of codes of shape (rows,
    variates), or to None.  The variates split into intervals at the cuts;
    ``read`` is asked at both ends and the midpoint of each.
    """
    bounds = sorted({0, ONE53, *(min(int(c), ONE53) for c in cuts)})
    spans = list(zip(bounds, bounds[1:]))
    ks = np.array([k for lo, hi in spans for k in (lo, (lo + hi - 1) // 2, hi - 1)],
                  dtype=np.uint64)
    out = read(ks)
    if out is None:
        return None
    out = np.asarray(out).reshape(-1, len(spans), 3)
    if not (out == out[..., :1]).all():
        return None
    laws = np.zeros((out.shape[0], 3), dtype=object)
    for row, codes in enumerate(out[..., 0]):
        for code, (lo, hi) in zip(codes, spans):
            laws[row, code] += hi - lo
    return laws


def ceiling_law(masses: Sequence[int], scale: int) -> list[int]:
    """The law masses / scale inverted exactly on the variates: each code holds
    the variates from ceil(F * 2**53) of the cumulative mass F before it up to
    that of the cumulative mass through it."""
    bounds = [0, *(math.ceil(Fraction(f, scale) * ONE53)
                   for f in itertools.accumulate(masses))]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def class_rows(count: int) -> np.ndarray:
    """Constant rows of 0, ? and 1, ``count`` sites each: every triple of row c
    is of class c (ALL_ZERO, MIXED, HAS_ONE)."""
    return np.repeat(np.arange(3, dtype=np.int8)[:, None], count, axis=1)


def step_law_mismatches(params: Params) -> list[TripleClass]:
    """The triple classes whose law ``pca.step`` draws at ``params``, read at
    exact variates on ``class_rows``, is not ``core.CLASS_LAWS`` inverted
    exactly (``ceiling_law``)."""
    laws = interval_law(lambda ks: step_at(ks, params, class_rows(ks.size)),
                        pca.variate_cuts(params))
    scale, masses = params.law_masses
    return [cls for cls in TripleClass
            if laws is None or list(laws[cls]) != ceiling_law(masses[cls], scale)]


def line_rule_mismatches() -> list[tuple[int, tuple[int, ...]]]:
    """The (label, successor triple) cases, of all 81, where
    ``game.classify_line`` differs from ``core.site_class``."""
    cases = [(label, triple) for label in range(3)
             for triple in itertools.product(range(3), repeat=3)]
    labels = np.array([[label] for label, _ in cases], dtype=np.int8)
    triples = np.array([triple for _, triple in cases], dtype=np.int8)
    got = game.classify_line(labels, triples, GameVersion.V1)[:, 0]
    return [case for case, cls in zip(cases, got.tolist())
            if cls != core.site_class(*case)]


# ------------------------------------------------------------------ rows


def config_from_symbols(symbols: Iterable[EnvSymbol]) -> Configuration:
    """A row written out symbol by symbol."""
    return Configuration(np.array([s.value for s in symbols], dtype=np.int8))


def symbols(cfg: Configuration) -> tuple[EnvSymbol, ...]:
    """The row read back symbol by symbol."""
    return tuple(EnvSymbol(int(c)) for c in cfg.cells)


def envelope_of_pair(cfg_a: Configuration, cfg_b: Configuration) -> Configuration:
    """Sitewise summary of two binary rows: common value where equal, ? where not."""
    if (cfg_a.cells == 1).any() or (cfg_b.cells == 1).any():
        raise ValueError("envelope_of_pair takes binary rows")
    if cfg_a.width != cfg_b.width:
        raise ValueError(f"width mismatch: {cfg_a.width} != {cfg_b.width}")
    return Configuration(np.where(cfg_a.cells == cfg_b.cells, cfg_a.cells, np.int8(1)))


# ------------------------------------------------------------------ stepping


def thresholds(a, b, c, params: Params, binary: bool):
    """Per-site inverse-CDF cut points (x0, x1) in the code order 0 < ? < 1,
    read from the site's own three cells, as numerators over the scale s of
    ``params.scaled``: a site draws 0 below x0 / s and ? below x1 / s."""
    s, pa, qb = params.scaled
    has_one = (a == 2) | (b == 2) | (c == 2)
    x0 = np.where(has_one, s - qb, pa)
    if binary:
        return x0, x0
    all_zero = (a == 0) & (b == 0) & (c == 0)
    x1 = x0 + np.where(has_one | all_zero, 0, s - pa - qb)
    return x0, x1


def reaches(k, x, s: int) -> np.ndarray:
    """Whether each variate k, the uniform k * 2**-53, is at or above x / s,
    exactly: k * s >= x * 2**53, compared in Python ints."""
    k, x = np.asarray(k).astype(object), np.asarray(x).astype(object)
    return np.asarray(k * s >= x << 53, dtype=bool)


def draw(k, x0, x1, s: int) -> np.ndarray:
    """The codes that the variates k draw at the cut points x0 / s and x1 / s."""
    return reaches(k, x0, s).astype(np.int8) + reaches(k, x1, s).astype(np.int8)


def neighbours(cfg: Configuration, offset: int):
    """The (a, b, c) cells of each site of a cyclic row, by modular indexing."""
    width = cfg.width
    return tuple(cfg.cells[..., [(n + offset + k) % width for n in range(width)]]
                 for k in range(3))


def step(cfg: Configuration, model: ModelSpec, stream: SeededStream, t: int) -> Configuration:
    """One update with the cut points computed site by site from the cells: the
    binary automaton's when no row holds a ? (code 1), else the three-symbol
    rule's; site n reads the variate keyed (t, n)."""
    binary = not (cfg.cells == 1).any()
    a, b, c = neighbours(cfg, model.offset)
    x0, x1 = thresholds(a, b, c, model.params, binary)
    k = variates(stream, t, 0, cfg.width)
    return Configuration(draw(k, x0, x1, model.params.scaled[0]))


def last_row(model: ModelSpec, width: int, steps: int, stream: SeededStream) -> Configuration:
    """The row after ``steps`` package steps from the all-? row of ``width``
    sites, each of them run, from t = 0."""
    row = Configuration.constant(width, EnvSymbol.QMARK)
    for t in range(steps):
        row = pca_step(row, model, stream, t)
    return row


def read_window(cells: np.ndarray, origin: int, count: int) -> np.ndarray:
    """Sites origin..origin+count-1 of the periodic line that the cyclic row
    ``cells`` is one period of."""
    width = cells.shape[-1]
    return cells[..., [(origin + j) % width for j in range(count)]]


def light_cone(cfg: Configuration, offset: int, steps: int) -> tuple[np.ndarray, int]:
    """The cells and origin of the window of the periodic line whose light cone
    after ``steps`` updates is one period starting at site 0."""
    origin = offset * steps
    return read_window(cfg.cells, origin, cfg.width + 2 * steps), origin


def window_step(cells: np.ndarray, origin: int, period: int, model: ModelSpec,
                stream: SeededStream, t: int) -> tuple[np.ndarray, int]:
    """One update of a window of the periodic line, by slicing: output cell j
    reads window cells j, j+1, j+2, so the window loses 2 cells and its origin
    moves by -offset; site n reads the variate keyed (t, n mod period)."""
    width = cells.shape[-1]
    if width < 3:
        raise ValueError("window exhausted: narrower than 3 cells")
    binary = not (cells == 1).any()
    a, b, c = (cells[..., k:k + width - 2] for k in range(3))
    x0, x1 = thresholds(a, b, c, model.params, binary)
    out_origin = origin - model.offset
    sites = np.array([(out_origin + j) % period for j in range(width - 2)], dtype=np.int64)
    k = key_u64(stream._seed_u64(), t, sites) >> np.uint64(11)
    return draw(k, x0, x1, model.params.scaled[0]), out_origin


def empirical_counts(cells: np.ndarray) -> list[int]:
    """The length-``ORDER`` word counts of a cyclic row, each window's base-3
    index built in int64 from one ``np.roll`` of the row per order."""
    codes = np.asarray(cells).astype(np.int64)
    idx = np.zeros(codes.size, dtype=np.int64)
    for j in range(ORDER):
        idx = idx * 3 + np.roll(codes, -j)
    return np.bincount(idx, minlength=3**ORDER).tolist()


# ------------------------------------------------------------------ game


def out_set(v: GameVersion, x: int, y: int) -> tuple[tuple[int, int], ...]:
    """The three out-neighbours of (x, y), in the scheme's fixed order."""
    if v is GameVersion.V1:
        return ((x, y + 2), (x + 1, y + 1), (x + 2, y))
    if v is GameVersion.V2:
        return ((x, y + 1), (x + 1, y + 1), (x + 2, y + 1))
    if v is GameVersion.V3:
        return ((x + 1, y), (x, y + 1), (x - 1, y + 2))
    return ((x - 1, y + 1), (x, y + 1), (x + 1, y + 1))


def line_of(v: GameVersion, x: int, y: int) -> int:
    """Line parameter k of site (x, y): diagonals for V1/V3, horizontals for V2/V4."""
    return x + y if v in (GameVersion.V1, GameVersion.V3) else y


def line_step(v: GameVersion) -> int:
    """Increment of the line parameter k from one line to its successor."""
    return 2 if v is GameVersion.V1 else 1


def _class_table() -> np.ndarray:
    """The game's rule as a lookup: entry 27*label + 9*n0 + 3*n1 + n2 is the
    class of a site with that label and out-neighbour classes (n0, n1, n2),
    read off the game's definition case by case."""
    table = np.empty(81, dtype=np.int8)
    for label in SiteLabel:
        for nbrs in itertools.product(GameClass, repeat=3):
            if label is SiteLabel.TRAP:
                cls = GameClass.W
            elif label is SiteLabel.TARGET:
                cls = GameClass.L
            elif GameClass.L in nbrs:
                cls = GameClass.W  # move onto a losing site
            elif all(c is GameClass.W for c in nbrs):
                cls = GameClass.L  # every move hands the opponent a win
            else:
                cls = GameClass.D
            n0, n1, n2 = nbrs
            table[27 * label + 9 * n0 + 3 * n1 + n2] = cls
    table.setflags(write=False)
    return table


CLASS_TABLE = _class_table()


def classify_by_table(labels, next_classes) -> np.ndarray:
    """``game.classify_line`` as a gather from ``CLASS_TABLE``: the out-neighbours
    of labels[..., j] are next_classes[..., j:j+3]."""
    labels = np.asarray(labels, dtype=np.intp)
    nxt = np.asarray(next_classes, dtype=np.intp)
    return CLASS_TABLE[labels * 27 + nxt[..., :-2] * 9 + nxt[..., 1:-1] * 3 + nxt[..., 2:]]


@dataclass(frozen=True, eq=False)
class ClassGrid:
    """Backward-induction classes of every line from the frontier down to the
    base site, keyed by the line parameter k; origins give the absolute index
    of each line's first entry under the i = x identification."""

    version: GameVersion
    horizon: int
    lines: dict[int, np.ndarray]
    origins: dict[int, int]

    def origin_class(self) -> GameClass:
        base = self.lines[0]
        return GameClass(int(base[-self.origins[0]]))


def sample_labels(
    params: Params, stream: SeededStream, line_index: int, origin: int, width: int
) -> np.ndarray:
    """Labels of sites origin..origin+width-1 on the line ``line_index`` steps
    above the base; keyed by (line_index, site) so the field is reusable. Each
    variate is compared exactly with p and with 1 - q."""
    s, pa, qb = params.scaled
    return draw(variates(stream, line_index, origin, width), pa, s - qb, s)


def solve_sample(
    version: GameVersion, params: Params, horizon: int, stream: SeededStream
) -> ClassGrid:
    """Classify one sampled label field down to the base site at (line 0, index 0).

    The line s steps above the base covers absolute indices
    [s*offset, s*offset + 2s]; the frontier (s = horizon) starts all-D.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    step_k = line_step(version)
    lines: dict[int, np.ndarray] = {}
    origins: dict[int, int] = {}
    classes = np.full(1 + 2 * horizon, GameClass.D, dtype=np.int8)
    lines[horizon * step_k] = classes
    origins[horizon * step_k] = horizon * version.offset
    for s in range(horizon - 1, -1, -1):
        origin = s * version.offset
        labels = sample_labels(params, stream, s, origin, 1 + 2 * s)
        classes = classify_by_table(labels, classes)
        lines[s * step_k] = classes
        origins[s * step_k] = origin
    return ClassGrid(version, horizon, lines, origins)


# ------------------------------------------------------------------ laws


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


def prob(dist: LocalDistribution, sym: EnvSymbol) -> Fraction:
    """The law's probability of one symbol."""
    return (dist.prob0, dist.probQ, dist.prob1)[sym.value]


def as_dict(dist: LocalDistribution) -> dict[str, Fraction]:
    return {"0": dist.prob0, "?": dist.probQ, "1": dist.prob1}


def triple_class(triple: Sequence[EnvSymbol]) -> TripleClass:
    """The local rule's case split, read off the symbols: any 1, then all 0,
    else a ? and no 1."""
    if any(s is EnvSymbol.ONE for s in triple):
        return TripleClass.HAS_ONE
    if all(s is EnvSymbol.ZERO for s in triple):
        return TripleClass.ALL_ZERO
    return TripleClass.MIXED


def rule_law(triple: Sequence[EnvSymbol], params: Params) -> LocalDistribution:
    """The local rule's output law of ``triple``, written out case by case."""
    p, q, r = params.p, params.q, params.r
    cls = triple_class(triple)
    if cls is TripleClass.HAS_ONE:
        return LocalDistribution(1 - q, 0, q)
    if cls is TripleClass.ALL_ZERO:
        return LocalDistribution(p, 0, 1 - p)
    return LocalDistribution(p, r, q)


# ------------------------------------------------------------------ lemmas


def mass(dist: LocalDistribution, symbols: Iterable[EnvSymbol]) -> Fraction:
    """The mass the law puts on a set of symbols."""
    return sum(prob(dist, s) for s in symbols)


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
    """Check d1 <= d2 in the given stochastic order (margins = d2 - d1 per upper set),
    one ``Fraction`` mass per upper set."""
    margins = tuple(mass(d2, u) - mass(d1, u) for u in upper_sets(order))
    return DominationCheck(order, d1, d2, margins)


def triple_leq(order: StochOrder, u, v) -> bool:
    """Coordinatewise comparison of two length-3 symbol tuples."""
    return all(symbol_leq(order, a, b) for a, b in zip(u, v))


def lemma_report(which: int, params: Params, law=None) -> dict:
    """``verify_lemma(which, params).to_json_dict()``, one domination check per
    ordered triple pair.  ``law`` maps a triple to its output law and defaults
    to the envelope rule at ``params``."""
    order = StochOrder.TOTAL if which == 1 else StochOrder.PARTIAL
    if law is None:
        law = lambda t: rule_law(t, params)  # noqa: E731
    rule = {t: law(t) for t in iter_words(3)}
    comparable = []
    violations = []
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
            comparable.append(check)
            if not check.holds:
                violations.append({"u": word_str(u), "v": word_str(v),
                                   "margins": [str(m) for m in check.margins]})
    return {
        "which": which,
        "order": "total" if which == 1 else "partial",
        "p": str(params.p),
        "q": str(params.q),
        "total_pairs": total,
        "comparable_pairs": len(comparable),
        "violation_count": len(violations),
        "worst_margin": str(min(check.worst_margin for check in comparable)),
        "violations": violations,
    }


# ------------------------------------------------------------------ patterns


def text_span(text: str) -> int:
    """Number of sites the pattern text covers: one per subset cell, one per
    character of any other token."""
    return sum(1 if tok.startswith("[") else len(tok) for tok in text.split())


def word_in_text(word: Sequence[EnvSymbol], text: str) -> bool:
    """Membership of one word in the event the pattern text names, read token by
    token straight off the text."""
    if len(word) != text_span(text):
        raise ValueError(f"word length {len(word)} != pattern span {text_span(text)}")
    chars = word_str(word)
    pos = 0
    for tok in text.split():
        if tok in ("**", "***"):
            chunk = chars[pos:pos + len(tok)]
            if "1" in chunk or "?" not in chunk:
                return False
        elif tok.startswith("["):
            if chars[pos] not in tok[1:-1]:
                return False
        elif chars[pos:pos + len(tok)] != tok:
            return False
        pos += 1 if tok.startswith("[") else len(tok)
    return True


def text_words(text: str) -> list[Word]:
    """All words of the text's span lying in its event."""
    return [w for w in iter_words(text_span(text)) if word_in_text(w, text)]


def word_index(word: Sequence[EnvSymbol]) -> int:
    """Base-3 index of a word, leftmost symbol most significant."""
    idx = 0
    for s in word:
        idx = idx * 3 + s.value
    return idx


def signature_groups(span: int) -> tuple[tuple[tuple[TripleClass, ...], tuple[int, ...]], ...]:
    """The input words over span+2 sites grouped by the classes of their span
    triples, each read off its symbols: (signature, base-3 word indices) pairs,
    in order of each signature's first word."""
    by_sig: dict[tuple[TripleClass, ...], list[int]] = {}
    for u, word in enumerate(iter_words(span + 2)):
        sig = tuple(triple_class(word[j:j + 3]) for j in range(span))
        by_sig.setdefault(sig, []).append(u)
    return tuple((sig, tuple(us)) for sig, us in by_sig.items())


# ------------------------------------------------------------------ measures


def closed_form_json(res: ClosedFormResult) -> dict:
    """One evaluated catalog entry as a JSON-ready dict."""
    return {
        "formula": res.formula,
        "p": frac_str(res.params.p),
        "q": frac_str(res.params.q),
        "measure": res.measure,
        "value": frac_str(res.value),
        "components": {k: frac_str(v) for k, v in res.components},
        "fully_specified": res.fully_specified,
        "pass": res.passed,
    }


def written_alt_1q01(mu: TIMeasure, params: Params) -> Fraction:
    """A second writing of the written part of 1?01 that trades the reflected
    block ``** 0 0 0`` for marginal identities; plus the catalog's C it gives
    the pushforward."""
    p, q, r = params.p, params.q, params.r
    c = lambda text: cylinder_prob(mu, text)  # noqa: E731
    return (2 * (1 - p) * r * p * q * c("000?") + (1 - p) * p * r * q * c("0000?")
            + (1 - p) * r * q * (r - p) * c("000?1"))


def word_prob(mu: TIMeasure, word: Sequence[EnvSymbol]) -> Fraction:
    """mu of the cylinder of one plain word, read straight from the counts."""
    if len(word) > ORDER:
        raise ValueError(f"word length {len(word)} exceeds order {ORDER}")
    return Fraction(mu.counts[len(word)][word_index(word)], mu.den)


# The cylinders the weight chain w0..w4 reads.
WEIGHT_SPANS = ("?", "0?", "?0?", "100?", "1?", "10?", "1??", "1?0?", "10??",
                "1?01", "1?00", "10?0")

# Linear relations between cylinder probabilities: each side is a list of
# (coefficient, pattern) and the residual lhs - rhs must vanish.  All of them are
# plain marginal/partition bookkeeping valid for any translation-invariant
# measure, except one_hat3_split whose collapsed double term also needs
# reflection invariance.
IDENTITIES: dict[str, tuple[tuple[tuple[int, str], ...], tuple[tuple[int, str], ...]]] = {
    "hat3_left_extension": (((1, "***"),),
                            ((1, "1 ***"), (1, "[0?] [0?] ***"), (1, "1 [0?] ***"))),
    "hat_block_shift": (((1, "1 [0?] ***"),),
                        ((1, "1 *** [0?]"), (1, "1000?"), (-1, "1?000"))),
    "left_split_1000q": (((1, "1000?"),),
                         ((1, "000?"), (-1, "?000?"), (-1, "0000?"))),
    "left_split_000q": (((1, "000?"),),
                        ((1, "?000?"), (1, "0000?"), (1, "1000?"))),
    "right_split_000q": (((1, "000??"), (1, "000?0")),
                         ((1, "000?"), (-1, "000?1"))),
    "zeros_hat3": (((1, "0 0 0 ***"),),
                   ((1, "000?"), (1, "0000?"), (1, "00000?"),
                    (-1, "0 0 0 ** 1"), (-1, "000?1"))),
    "zeros_hat2": (((1, "0 0 0 **"),),
                   ((1, "000?"), (1, "0000?"), (-1, "000?1"))),
    "zeros_q_pad": (((1, "0 0 0 ? [0?]"),),
                    ((1, "000?"), (-1, "000?1"))),
    "zeros_q_pad2": (((1, "0 0 0 ? [0?] [0?]"),),
                     ((1, "000?"), (-1, "000?1"), (-1, "0 0 0 ? [0?] 1"))),
    "zeros_hat2_pad": (((1, "0 0 0 ** [0?]"),),
                       ((1, "000?"), (1, "0000?"), (-1, "000?1"), (-1, "0 0 0 ** 1"))),
    "one_hat3_split": (((1, "1 ***"),),
                       ((1, "1?"), (1, "10?"), (1, "100?"),
                        (-1, "1?1"), (-1, "1??1"), (-2, "1?01"))),
    "one_qq_right": (((1, "1???"), (1, "1??0")),
                     ((1, "1??"), (-1, "1??1"))),
}


def verify_identity(name: str, mu: TIMeasure) -> Fraction:
    """Residual (lhs - rhs) of a named identity; zero when it holds."""
    lhs, rhs = IDENTITIES[name]
    total = Fraction(0)
    for coef, pat in lhs:
        total += coef * cylinder_prob(mu, pat)
    for coef, pat in rhs:
        total -= coef * cylinder_prob(mu, pat)
    return total


# ------------------------------------------------------------------ exact checks
#
# Each check evaluated the direct way: every cylinder and pushforward value read
# through the public functions as a Fraction, and every formula combined in
# Fraction arithmetic, measure by measure.


def over_one_den(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(nums, den): the values as integer numerators over their least common
    denominator, the form the reports keep them in."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def linear(mu: TIMeasure, terms: Sequence[tuple[int, str]]) -> Fraction:
    """sum of coef * mu(text) over the (coef, text) terms."""
    return sum((coef * cylinder_prob(mu, pat) for coef, pat in terms), Fraction(0))


def closed_form(name: str, mu: TIMeasure, params: Params) -> ClosedFormResult:
    """``measures.closed_form``, one Fraction at a time."""
    if name not in CLOSED_FORM_IDS:
        raise ValueError(f"unknown formula {name!r}; known: {CLOSED_FORM_IDS}")
    if not mu.reflection_invariant:
        raise ValueError("closed forms assume a reflection-invariant measure")
    p, q, r = params.p, params.q, params.r
    c = lambda text: cylinder_prob(mu, text)  # noqa: E731
    push = pushforward_cylinder(mu, name, params)

    def result(value: Fraction, comps: tuple[tuple[str, Fraction], ...],
               fully: bool) -> ClosedFormResult:
        names = tuple(k for k, _ in comps)
        return ClosedFormResult(name, params, mu.name, names,
                                *over_one_den([value, *(v for _, v in comps), push]), fully)

    def full(value: Fraction, *extra: tuple[str, Fraction]) -> ClosedFormResult:
        return result(value, (("written", value),) + extra, True)

    def partial(written: Fraction) -> ClosedFormResult:
        return result(push, (("written", written), ("C", push - written)), False)

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
        return result(push, (("written", written), ("C", c_term), ("D", push - written)), False)
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
    return partial(q * r * p * (1 - p) * c("** 0 0 0")
                   + (1 - p) * r * p * q * c("0 0 0 ? [0?]")
                   + (1 - p) * r * (1 - q) * q * c("000?1"))


def weight_chain(ev: Callable[[str], Fraction], params: Params) -> tuple[Fraction, ...]:
    """w0..w4 from the cylinder values ``ev`` supplies, chained."""
    p, q, r = params.p, params.q, params.r
    w0 = ev("?") + 2 * ev("0?") - ev("?0?") + 2 * ev("100?")
    w1 = w0 - p * (1 - r) * ev("?")
    w2 = w1 - (2 * p * r * (ev("1?") + ev("10?"))
               + 2 * p * p * r * (ev("1??") + ev("1?0?") + ev("10??"))
               + 4 * r * ev("1?01") + 2 * p * ev("100?"))
    w3 = w2 - 2 * (q + p * p * r) * ev("100?") - 2 * p * p * r * (ev("1?00") + ev("10?0"))
    w4 = w3 - q * ev("?")
    return (w0, w1, w2, w3, w4)


def weight(k: int, mu: TIMeasure, params: Params) -> Fraction:
    """``measures.weight``, one Fraction at a time."""
    if not 0 <= k <= 4:
        raise ValueError(f"weight index must be 0..4, got {k}")
    return weight_chain(lambda t: cylinder_prob(mu, t), params)[k]


def table_report(which: str, mu: TIMeasure) -> TableReport:
    """``measures.verify_table_inequality``, one Fraction at a time."""
    if which not in ("ineq_1", "ineq_2"):
        raise ValueError(f"which must be 'ineq_1' or 'ineq_2', got {which!r}")
    if not mu.reflection_invariant:
        raise ValueError("table inequalities assume a reflection-invariant measure")

    def row_sum(rows: Sequence[tuple[int, str]]) -> Fraction:
        return sum((cylinder_prob(mu, syms) for _, syms in rows), Fraction(0))

    if which == "ineq_1":
        structure = (table_structure("ineq1_rows"),)
        sums = (("ineq1_rows", row_sum(_INEQ1_ROWS)),)
        forms = tuple((name, linear(mu, terms)) for name, terms in _INEQ1_FORMS)
        lhs = cylinder_prob(mu, "?")
        rhs = forms[-1][1]
    else:
        structure = tuple(table_structure(t)
                          for t in ("ineq2_rows_q", "ineq2_rows_0q", "ineq2_rows_00q"))
        sums = (("ineq2_rows_q", row_sum(_INEQ2_ROWS_Q)),
                ("ineq2_rows_0q", row_sum(_INEQ2_ROWS_0Q)),
                ("ineq2_rows_00q", row_sum(_INEQ2_ROWS_00Q)))
        forms = ()
        lhs = linear(mu, _INEQ2_LHS)
        rhs = linear(mu, _INEQ2_RHS)
    values = [*(v for _, v in sums), *(v for _, v in forms), lhs, rhs]
    return TableReport(which, mu.name, structure, tuple(k for k, _ in forms),
                       *over_one_den(values))


def master_report(mu: TIMeasure, params: Params) -> WeightReport:
    """``measures.verify_master_inequality``, one Fraction at a time; the overall
    slack is w4(mu) - w4(image) minus the sum of the terms."""
    if not params.in_region:
        raise ValueError("master inequality requires p + q > 0")
    if not mu.reflection_invariant:
        raise ValueError("master inequality assumes a reflection-invariant measure")
    p, q, r = params.p, params.q, params.r
    w_mu = weight_chain(lambda t: cylinder_prob(mu, t), params)
    w_image = weight_chain(lambda t: pushforward_cylinder(mu, t, params), params)
    terms = [(name, coef(p, q, r) * linear(mu, pats)) for name, coef, pats in _MASTER_TERMS]
    cf = {name: closed_form(name, mu, params)
          for name in ("10?", "100?", "1??", "1?0?", "10??", "1?01", "1?00", "10?0")}
    d_term = (2 * p * r * cf["10?"].component("D")
              + 2 * p * p * r * (cf["1??"].component("C") + cf["1?0?"].component("C")
                                 + cf["10??"].component("C"))
              + 4 * r * cf["1?01"].component("C"))
    d_prime = (2 * (q + p * p * r) * cf["100?"].component("D")
               + 2 * p * p * r * (cf["1?00"].component("C") + cf["10?0"].component("C")))
    terms.append(("D (update remainders of 10?,1??,1?0?,10??,1?01)", d_term))
    terms.append(("D' (update remainders of 100?,1?00,10?0)", d_prime))
    slack = w_mu[4] - w_image[4] - sum(v for _, v in terms)
    return WeightReport(params, mu.name, tuple(k for k, _ in terms),
                        *over_one_den([*w_mu, *w_image, *(v for _, v in terms), slack]))


def stationary_report(params: Params, mu: TIMeasure) -> StationarityReport:
    """``measures.stationary_conclusion_check``, one Fraction at a time."""
    c = lambda text: cylinder_prob(mu, text)  # noqa: E731
    p, q, r = params.p, params.q, params.r
    gauge = abs(c("?") - r * c("***"))
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
    return StationarityReport(params, mu.name, branch, c("?"), gauge, forced)
