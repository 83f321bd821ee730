"""Row-by-row simulation of the three-symbol lattice dynamics.

The update rule reads the neighbourhood {i, i+1, i+2} of each site (offset i is
configurable: i = 0 gives the right-looking chain, i = -1 the centered one) and
draws the new symbol over {0, ?, 1} independently per site: a triple containing
1 -> 0 w.p. 1-q, 1 w.p. q; triple 000 -> 0 w.p. p, 1 w.p. 1-p; a triple over
{0,?} with at least one ? -> 0 w.p. p, 1 w.p. q, ? w.p. r.  A row without ?
holds only triples of the first two kinds, so it steps as the binary automaton
F_{p,q} on {0, 1}, and its successor has no ? either: the three-symbol rule is
the envelope of the binary one, and no setting tells them apart.

Those three triple classes and their exact laws live in ``core``
(``TripleClass``, ``TRIPLE_CLASSES``, ``CLASS_LAWS``), where the exact checks
read them without importing numpy; this module adds the numeric side: hashing,
the integer cut points of (p, q), the vectorised site rule and stepping rows.

Randomness is counter-based: every (time, site) pair is hashed to one uniform
variate, so results are independent of array width, evaluation order, and worker
count. A variate is the top 53 bits of its 64-bit hash, the integer k = h >> 11,
and stands for u = k * 2**-53 in [0, 1); it is never made a float. Sampling
inverts the CDF in the fixed symbol-code order 0 < ? < 1, which makes the
common-randomness coupling of two rows monotone in that order. Every law is
inverted at two points, p and 1 - q (p + r is 1 - q), and each is compared as
the integer cut ceil(t * 2**53), computed exactly from ``Params.scaled``
(``variate_cuts``): k >= ceil(t * 2**53) iff k * 2**-53 >= t. The cut of 1 is
2**53, which no variate reaches.

``step`` labels each site as the game does, by the number of cuts its variate
reaches (trap below p, target at or above 1 - q, open between), and runs the
game's induction step on its triple under W=0, D=?, L=1: a trap steps to 0, a
target to 1 and an open site to 2 - the triple's largest code, its class
(``core.TripleClass``).  As cut p <= cut 1 - q, that draws each class's law:
ALL_ZERO (000) 0 below p, else 1; MIXED (a ? and no 1) 0, ?, 1; HAS_ONE (a 1)
1 only at or above 1 - q.  The rule is written once in the standard library
(``core.site_class``, which ``verify kernel`` checks exactly) and once
vectorised (``site_classes``), which ``step`` and ``game.classify_line`` read.
A row's hash XORs the (seed, t) prefix, hashed in Python ints, into the
per-site keys of sites 0..width-1, which are cached, so a row builds them
once; both sides carry the finalizer's first round already (``_site_keys``).
``u01_block`` hashes many streams in row tiles of at most ``_TILE`` variates,
in a tile and scratch array that the process makes once and reuses, so its
temporaries stay cache-sized however many streams it serves.  It reads each
tile against the cuts while the tile is still in cache and returns only int8
label codes (how many cuts each variate reaches): the game's labels, without a
line's uint64 variate block.  It compares the raw hashes with the
cuts shifted left by 11, which decides as the variates would, so the label
path never shifts a hash.

A configuration is one cyclic row, or a stack of cyclic rows of one width,
at sites 0..width-1: ``step`` keeps the width and wraps indices, by copying
the row's slices into a buffer two cells wider.  Site n of step t reads the
variate keyed (t, n) whatever the width, so a site whose light cone has not
yet wrapped round the row holds exactly what it would on the infinite
lattice.  (The game's backward induction is the finite light cone of the
envelope automaton; rows here serve the long-run densities.)  ``step`` draws
one variate per (t, n) for every row of a stack, which couples the rows by
common randomness while each steps exactly as it would alone.

``last_row`` reads the row after many steps from all-? by coupling from the
past (Propp and Wilson): under common randomness a row with fewer ? steps to a
row with fewer ?, so a short window of the last steps, run from all-?, gives
the true row whenever it ends without ?.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import EnvSymbol, Frozen, Params, per_point

# ------------------------------------------------------------------ randomness

_U64 = np.uint64
_INT8 = np.dtype(np.int8)
_GOLD = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_TAG_T = _U64(0xD6E8FEB86659FD93)
_TAG_N = _U64(0xA0761D6478BD642F)
_TAG_CHILD = _U64(0x8BB84B93962EACC9)
_MASK64 = (1 << 64) - 1
_GOLD_INT, _MUL1_INT, _MUL2_INT, _TAG_T_INT = (int(c) for c in (_GOLD, _MUL1, _MUL2, _TAG_T))


# Variates hashed at once by ``u01_block``: a tile and its scratch array are
# 1 MB of uint64, half of a 2 MB L2.  On the game's 1000 x 401 block (2-CPU
# Xeon VM, 2 MB L2 per core) tiles of 2**15 and 2**16 hash it in 1.8 ms,
# 2**18 in 2.6 ms and one untiled block in 5.0 ms.
_TILE = 1 << 16


def _finalize_tail(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer after its first round z ^= z >> 30, in place on
    a uint64 array that the caller owns; returns it. Its one temporary is
    ``scratch`` when given, an array of z's shape that the caller lends, else a
    new one."""
    t = np.empty_like(z) if scratch is None else scratch
    z *= _MUL1
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _MUL2
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array that the caller owns;
    returns it."""
    t = z >> _U64(30)
    z ^= t
    return _finalize_tail(z, t)


def _finalize_int(z: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MUL1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2_INT) & _MASK64
    return z ^ (z >> 31)


def _as_u64(x) -> np.ndarray:
    """Reinterpret (possibly negative) integers as two's-complement uint64."""
    return np.asarray(x, dtype=np.int64).view(_U64)


def _step_key(t: int) -> int:
    """The step's key t*MUL2 + TAG_T, in Python ints masked to 64 bits."""
    return ((t & _MASK64) * _MUL2_INT + _TAG_T_INT) & _MASK64


@lru_cache(maxsize=1)
def _site_keys(n0: int, count: int) -> np.ndarray:
    """The site keys n*MUL1 + TAG_N of sites n0..n0+count-1, each with the
    finalizer's first round key ^ (key >> 30) applied, read-only; a row
    asks for the same sites at every step.  One entry suffices: each command
    hashes one window at a time.

    A variate finalizes key ^ prefix, and xor distributes over the shift, so
    its first round is (key ^ (key >> 30)) ^ (prefix ^ (prefix >> 30)): the
    hash applies it to each prefix, xors in these keys and runs only
    ``_finalize_tail``.
    """
    keys = _as_u64(n0 + np.arange(count, dtype=np.int64))
    keys *= _MUL1
    keys += _TAG_N
    keys ^= keys >> _U64(30)
    keys.setflags(write=False)
    return keys


@lru_cache(maxsize=1)
def _tile_buffers(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """A uint64 tile and its scratch array of ``cells`` entries each, made once
    and lent to every ``u01_block`` call (percolab runs single-threaded).  One
    entry suffices: every row up to ``_TILE`` wide asks for the same size."""
    return np.empty(cells, dtype=_U64), np.empty(cells, dtype=_U64)


def u01_block(seeds: np.ndarray, t: int, n0: int, count: int,
              cuts: tuple[np.uint64, ...]) -> np.ndarray:
    """Label codes for many streams at once: shape (len(seeds), count), keyed
    (t, n0+j).  Each variate, the 53-bit integer k of the uniform k * 2**-53,
    is read as the number of ``cuts`` it reaches, an int8, while its tile is
    still in cache; the cuts are ascending integer cut points as made by
    ``variate_cuts``.  The variates themselves are never kept, so a caller
    holds one int8 per variate.

    The rows are hashed in tiles of at most ``_TILE`` variates (one row at
    least), in the process's reused tile and scratch array
    (``_tile_buffers``).
    """
    # k = h >> 11 reaches a cut c < 2**53 iff its hash h reaches c << 11.
    # No variate reaches a cut of 2**53 or more, and the cuts ascend, so
    # the cuts that some hash reaches are the first few.
    cuts = [_U64(int(c) << 11) for c in cuts if c < 1 << 53]
    out = np.empty((seeds.size, count), dtype=np.int8)
    if not cuts:
        out.fill(0)
        return out
    prefix = _finalize(seeds.reshape(-1) + _GOLD)
    prefix ^= _U64(_step_key(t))
    _finalize(prefix)
    prefix ^= prefix >> _U64(30)
    keys = _site_keys(n0, count)
    rows = max(1, _TILE // max(count, 1))
    buf, spare = _tile_buffers(max(_TILE, count))
    for r0 in range(0, prefix.size, rows):
        part = prefix[r0:r0 + rows, None]
        cells = part.size * count
        tile = buf[:cells].reshape(-1, count)
        np.bitwise_xor(part, keys, out=tile)
        _finalize_tail(tile, spare[:cells].reshape(tile.shape))
        reached = out[r0:r0 + rows]
        np.greater_equal(tile, cuts[0], out=reached.view(np.bool_))
        also = spare.view(np.bool_)[:cells].reshape(tile.shape)
        for cut in cuts[1:]:
            np.greater_equal(tile, cut, out=also)
            reached += also.view(np.int8)
    return out


class SeededStream(NamedTuple):
    """Counter-based uniform source; the variate at (t, n) depends only on (seed, t, n)."""

    seed: int

    def _seed_u64(self):
        return _U64(self.seed & _MASK64)

    def u01_range(self, t: int, n0: int, count: int) -> np.ndarray:
        """Variates at sites n0, n0+1, ..., n0+count-1 of step t, as the 53-bit
        integers k of the uniforms k * 2**-53.

        The (seed, t) prefix is hashed in Python ints, masked to 64 bits: the
        same bits as numpy's uint64 arithmetic, without its fixed cost per call.
        """
        prefix = _finalize_int((self.seed + _GOLD_INT) & _MASK64)
        prefix = _finalize_int(prefix ^ _step_key(t))
        k = np.bitwise_xor(_site_keys(n0, count), _U64(prefix ^ (prefix >> 30)))
        _finalize_tail(k)
        return np.right_shift(k, _U64(11), out=k)

    def child_seeds_u64(self, count: int, start: int = 0) -> np.ndarray:
        """Seeds of the derived streams for samples start..start+count-1; distinct
        samples get independent (t, n) tables, and sample k's seed does not
        depend on which range it is made in."""
        ks = np.arange(start, start + count, dtype=np.int64)
        with np.errstate(over="ignore"):
            return _finalize(self._seed_u64() ^ (_as_u64(ks) * _MUL1 + _TAG_CHILD))


# ------------------------------------------------------------------ model/state

class ModelSpec(Frozen):
    """Neighbourhood offset i (window {i, i+1, i+2}) + parameters."""

    __slots__ = _fields = ("offset", "params")

    def __init__(self, offset: int, params: Params) -> None:
        if abs(offset) > 2**62:  # so an offset plus a width stays in int64
            raise ValueError(f"offset must satisfy |offset| <= 2**62, got {offset}")
        self._set(offset, params)


class Configuration(Frozen):
    """A cyclic row of symbol codes at sites 0..width-1, or a stack of them.

    ``cells`` has shape (width,) for one row, or (rows, width) for a stack of
    rows of one width; ``step`` feeds every row of a stack the same (t, n)
    variates.  Two configurations are equal only if they are one object.
    """

    __slots__ = _fields = ("cells",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, cells: np.ndarray) -> None:
        cells = np.asarray(cells)
        if cells.ndim not in (1, 2) or cells.size == 0:
            raise ValueError("cells must be a nonempty row or stack of rows")
        if (cells.dtype != _INT8 and cells.dtype.kind in "iu"
                and 0 <= cells.min() <= cells.max() <= 2):
            cells = cells.astype(np.int8)  # range-checked first: the cast would wrap
        if cells.dtype != _INT8 or cells.view(np.uint8).max() > 2:  # -1 reads as 255
            raise ValueError("cell codes must be the integers 0 (zero), 1 (?), or 2 (one)")
        arr = cells.copy()
        arr.setflags(write=False)
        self._set(arr)

    @classmethod
    def _of_rule(cls, cells: np.ndarray) -> "Configuration":
        """A configuration that takes over ``cells``, the local rule's fresh
        int8 output (codes 0..2 by construction, held by no one else), and
        makes it read-only in place: without the copy and the code scan that
        every row a caller builds goes through."""
        cells.setflags(write=False)
        cfg = object.__new__(cls)
        cfg._set(cells)
        return cfg

    @property
    def width(self) -> int:
        return int(self.cells.shape[-1])

    def counts(self) -> tuple[int, int, int]:
        """(count of 0, count of ?, count of 1) over every row -- exact integers."""
        nonzero = int(np.count_nonzero(self.cells))
        ones = int(np.count_nonzero(self.cells == 2))
        return self.cells.size - nonzero, nonzero - ones, ones

    @classmethod
    def constant(cls, width: int, symbol: EnvSymbol) -> "Configuration":
        return cls(np.full(width, symbol.value, dtype=np.int8))


# ------------------------------------------------------------------ stepping

def _extended_row(cfg: Configuration, offset: int) -> np.ndarray:
    """The cyclic row two cells wider that every site reads its triple from:
    cell j is cell (offset + j) % width, so site n's triple is cells n, n + 1
    and n + 2 of it."""
    cells, width = cfg.cells, cfg.width
    start = offset % width
    ext = np.empty((*cells.shape[:-1], width + 2), dtype=np.int8)
    ext[..., :width - start] = cells[..., start:]
    ext[..., width - start:width] = cells[..., :start]
    ext[..., width] = ext[..., 0]
    ext[..., width + 1] = ext[..., 1 % width]
    return ext


@per_point
def variate_cuts(params: Params) -> tuple[np.uint64, np.uint64]:
    """The integer cut points ceil(t * 2**53) of p and of 1 - q, exactly: a
    variate k is at or above one iff k * 2**-53 >= t.  With (s, a, b) =
    ``params.scaled``, t is a/s or (s - b)/s, whose ceiling -((-x << 53) // s)
    is taken in Python ints; a <= s - b, so cut p <= cut 1 - q.  A site's
    label is the number of them its variate reaches, in ``step`` and in the
    game alike.  numpy scalars, which numpy compares with an array faster
    than Python ints.  Kept on the point (``per_point``)."""
    s, a, b = params.scaled
    return tuple(_U64(-((-x << 53) // s)) for x in (a, s - b))


def site_classes(labels, successors) -> np.ndarray:
    """``core.site_class`` on whole lines: the class code of each site j from
    its label code and the codes successors[..., j], [..., j + 1] and
    [..., j + 2], so the successor line is two cells wider.  Works on stacks
    of lines (the last axis is the line, and labels broadcast against the
    stack); the classes keep the inputs' integer type, a fresh array.

    An open site is 2 - the largest successor, a trap W and a target L, the
    codes of their labels: so the class is label + (label is open) * (1 -
    largest).  The open mask compares with the int 1, in the labels' own type
    (an IntEnum member makes numpy compare in int64), is read as int8, which
    int8 classes multiply without a cast, and is made before the classes, so
    that the classes are the newest block: glibc then has no line-sized hole
    above them to trim and fault back in on the next line.
    """
    labels = np.asarray(labels)
    nxt = np.asarray(successors)
    if nxt.shape[-1] != labels.shape[-1] + 2:
        raise ValueError(
            f"successor line must cover every out-neighbourhood: "
            f"need width {labels.shape[-1] + 2}, got {nxt.shape[-1]}"
        )
    is_open = (labels == 1).view(np.int8)
    cls = np.maximum(nxt[..., :-2], nxt[..., 1:-1], dtype=np.result_type(labels, nxt))
    np.maximum(cls, nxt[..., 2:], out=cls)
    np.subtract(1, cls, out=cls)
    cls *= is_open
    cls += labels
    return cls


def step(cfg: Configuration, model: ModelSpec, stream: SeededStream, t: int) -> Configuration:
    """Advance a row, or each row of a stack under the same variates, by one step;
    deterministic given (seed, t) and the input.  Each site is labelled as
    the game labels it, by the number of cuts its variate reaches, and runs
    the game's induction step on its triple (module docstring)."""
    k = stream.u01_range(t, 0, cfg.width)
    cut_p, cut_1q = variate_cuts(model.params)
    labels = (k >= cut_p).view(np.int8)
    labels += (k >= cut_1q).view(np.int8)
    return Configuration._of_rule(site_classes(labels, _extended_row(cfg, model.offset)))


class StepStats(NamedTuple):
    t: int
    width: int
    count0: int
    countQ: int
    count1: int


class TrajectoryResult(NamedTuple):
    rows: tuple[StepStats, ...]
    final: Configuration


def trajectory(
    init: Configuration, model: ModelSpec, steps: int, stream: SeededStream
) -> TrajectoryResult:
    """Run ``steps`` updates; returns T+1 rows of exact symbol counts (and width);
    a stack's counts are taken over every row, so they sum to rows * width."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cfg = init
    rows = [StepStats(0, cfg.width, *cfg.counts())]
    for t in range(steps):
        cfg = step(cfg, model, stream, t)
        rows.append(StepStats(t + 1, cfg.width, *cfg.counts()))
    return TrajectoryResult(tuple(rows), cfg)


# Steps in ``last_row``'s window: at p = q = 1/4 a 10**4-site row from all-?
# holds no ? after 11 to 16 steps (seeds 0 to 4).
_WINDOW = 64


def _from_qmarks(model: ModelSpec, width: int, stream: SeededStream, times: range) -> Configuration:
    """The all-? row of ``width`` sites, stepped at each t of ``times`` in turn."""
    row = Configuration.constant(width, EnvSymbol.QMARK)
    for t in times:
        row = step(row, model, stream, t)
    return row


def last_row(model: ModelSpec, width: int, steps: int, stream: SeededStream) -> Configuration:
    """The row after ``steps`` steps t = 0..steps-1 from the all-? row of
    ``width`` sites, exactly, by coupling from the past.

    A window steps an all-? row at the last ``_WINDOW`` keys t = steps -
    _WINDOW .. steps - 1 only.  Say row x refines row y when x equals y
    wherever y holds no ?.  The true row at t = steps - _WINDOW refines all-?,
    and under one label ``site_classes`` maps a refining triple to a refining
    class: a trap or a target reads no triple, and an open site's 2 - largest
    code is ? unless y's triple holds a 1, which x's holds too, or is 000,
    which x's is too.  So a window that ends without ? ends at the true row.

    Otherwise, or when steps <= _WINDOW, the row is stepped from t = 0 as
    usual: at worst ``_WINDOW`` steps more than the plain loop.  ``step`` is
    read from this module's globals at each call, so a wrapper put on it there
    sees these steps too.
    """
    window = range(steps - _WINDOW, steps)
    if window.start > 0:
        row = _from_qmarks(model, width, stream, window)
        if not (row.cells == EnvSymbol.QMARK.value).any():
            return row
    return _from_qmarks(model, width, stream, range(steps))
