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
the integer cut points of (p, q) and stepping rows.

Randomness is counter-based: every (time, site) pair is hashed to one uniform
variate, so results are independent of array width, evaluation order, and worker
count. A variate is the top 53 bits of its 64-bit hash, the integer k = h >> 11,
and stands for u = k * 2**-53 in [0, 1); it is never made a float. Sampling
inverts the CDF in the fixed symbol-code order 0 < ? < 1, which makes the
common-randomness coupling of two rows monotone in that order. Every law is
inverted at the floats p, p + r and 1 - q, and each is compared as the integer
ceil(t * 2**53) (``variate_cuts``): k >= ceil(t * 2**53) iff k * 2**-53 >= t,
exactly, because k is an integer and t * 2**53 is an exact float. A cut at or
above 1.0 becomes 2**53 or more, which no variate reaches.

A triple's class is its largest code (``core.TripleClass``), which selects its
cuts: ALL_ZERO (000) at p, MIXED (a ? and no 1) at p and p + r, and HAS_ONE
(a 1) at 1 - q.
A row's hash XORs the (seed, t) prefix, hashed in Python ints, into the
per-site keys of sites 0..width-1, which are cached, so a row builds them
once; both sides carry the finalizer's first round already (``_site_keys``).
``u01_block`` hashes many streams in row tiles of at most ``_TILE`` variates,
in a tile and scratch array that the process makes once and reuses, so its
temporaries stay cache-sized however many streams it serves.  Given cuts, it
reads each tile against them while the tile is still in cache and returns only
int8 label codes (how many cuts each variate reaches): the game's labels,
without a line's uint64 variate block.  It compares the raw hashes with the
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import EnvSymbol, Params, per_point

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
              cuts: tuple[np.uint64, ...] | None = None) -> np.ndarray:
    """Variates for many streams at once: shape (len(seeds), count), keyed
    (t, n0+j); each is the 53-bit integer k of the uniform k * 2**-53.

    With ``cuts``, ascending integer cut points as made by ``variate_cuts``,
    each variate is read as the number of cuts it reaches, an int8, while its
    tile is still in cache: the variates themselves are never kept, so a
    caller that wants only labels holds one int8 per variate.

    The rows are hashed in tiles of at most ``_TILE`` variates (one row at
    least), all finalized with one tile-sized scratch array.  Labels are
    hashed in the process's reused tile (``_tile_buffers``); variates in
    place in their output.
    """
    prefix = _finalize(seeds.reshape(-1) + _GOLD)
    prefix ^= _U64(_step_key(t))
    _finalize(prefix)
    prefix ^= prefix >> _U64(30)
    keys = _site_keys(n0, count)
    out = np.empty((prefix.size, count), dtype=_U64 if cuts is None else np.int8)
    if cuts is not None:
        # k = h >> 11 reaches a cut c < 2**53 iff its hash h reaches c << 11.
        # No variate reaches a cut of 2**53 or more, and the cuts ascend, so
        # the cuts that some hash reaches are the first few.
        cuts = [_U64(int(c) << 11) for c in cuts if c < 1 << 53]
        if not cuts:
            out.fill(0)
            return out
    rows = max(1, _TILE // max(count, 1))
    buf, spare = _tile_buffers(max(_TILE, count))
    for r0 in range(0, prefix.size, rows):
        part = prefix[r0:r0 + rows, None]
        cells = part.size * count
        tile = out[r0:r0 + rows] if cuts is None else buf[:cells].reshape(-1, count)
        np.bitwise_xor(part, keys, out=tile)
        _finalize_tail(tile, spare[:cells].reshape(tile.shape))
        if cuts is None:
            np.right_shift(tile, _U64(11), out=tile)
            continue
        reached = out[r0:r0 + rows]
        np.greater_equal(tile, cuts[0], out=reached.view(np.bool_))
        also = spare.view(np.bool_)[:cells].reshape(tile.shape)
        for cut in cuts[1:]:
            np.greater_equal(tile, cut, out=also)
            reached += also.view(np.int8)
    return out


@dataclass(frozen=True)
class SeededStream:
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

@dataclass(frozen=True)
class ModelSpec:
    """Neighbourhood offset i (window {i, i+1, i+2}) + parameters."""

    offset: int
    params: Params

    def __post_init__(self) -> None:
        if abs(self.offset) > 2**62:  # so an offset plus a width stays in int64
            raise ValueError(f"offset must satisfy |offset| <= 2**62, got {self.offset}")


@dataclass(frozen=True, eq=False)
class Configuration:
    """A cyclic row of symbol codes at sites 0..width-1, or a stack of them.

    ``cells`` has shape (width,) for one row, or (rows, width) for a stack of
    rows of one width; ``step`` feeds every row of a stack the same (t, n)
    variates.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim not in (1, 2) or cells.size == 0:
            raise ValueError("cells must be a nonempty row or stack of rows")
        if (cells.dtype != _INT8 and cells.dtype.kind in "iu"
                and 0 <= cells.min() <= cells.max() <= 2):
            cells = cells.astype(np.int8)  # range-checked first: the cast would wrap
        if cells.dtype != _INT8 or cells.view(np.uint8).max() > 2:  # -1 reads as 255
            raise ValueError("cell codes must be the integers 0 (zero), 1 (?), or 2 (one)")
        arr = cells.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @classmethod
    def _of_rule(cls, cells: np.ndarray) -> "Configuration":
        """A configuration that takes over ``cells``, the local rule's fresh
        int8 output (codes 0..2 by construction, held by no one else), and
        makes it read-only in place: without the copy and the code scan that
        every row a caller builds goes through."""
        cells.setflags(write=False)
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "cells", cells)
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

def _neighbour_views(cfg: Configuration, offset: int):
    """The (a, b, c) triple views of every site: cell (n + offset + k) % width
    of site n, for k = 0, 1, 2."""
    cells, width = cfg.cells, cfg.width
    start = offset % width
    # cell (start + j) % width, for j < width + 2, copied slice by slice
    ext = np.empty((*cells.shape[:-1], width + 2), dtype=np.int8)
    ext[..., :width - start] = cells[..., start:]
    ext[..., width - start:width] = cells[..., :start]
    ext[..., width] = ext[..., 0]
    ext[..., width + 1] = ext[..., 1 % width]
    return ext[..., :-2], ext[..., 1:-1], ext[..., 2:]


@per_point
def variate_cuts(params: Params) -> tuple[np.uint64, np.uint64, np.uint64]:
    """The integer cut points ceil(t * 2**53) of the floats p, p + r and 1 - q:
    a variate k is at or above one iff k * 2**-53 >= t.  The rule inverts a
    triple's class law at p (000), at p and p + r (MIXED) or at 1 - q (HAS_ONE),
    and a game label at p and 1 - q.  numpy scalars, which numpy compares with
    an array faster than Python ints.  Kept on the point (``per_point``)."""
    p, q, r = float(params.p), float(params.q), float(params.r)
    return tuple(_U64(math.ceil(t * 2.0**53)) for t in (p, p + r, 1.0 - q))


def _apply_rule(largest: np.ndarray, params: Params, k: np.ndarray) -> np.ndarray:
    """The updated cells, a fresh int8 array: site n of each row inverts its
    triple's class law, selected by the largest code, at the variate k[n].

    The low bit is k >= 1 - q for HAS_ONE and k >= p otherwise; the high bit
    is k >= p + r for MIXED and the low bit otherwise.  Each is selected branch
    free, as a ^ (mask & (a ^ b)), which is much faster than ``np.where`` on a
    random mask.  When no triple is MIXED, as in every row without ?, the high
    bit is the low bit throughout, so the MIXED select is skipped.
    """
    cut_p, cut_pr, cut_1q = variate_cuts(params)
    at_p = k >= cut_p
    low = (largest == 2) & (at_p ^ (k >= cut_1q))
    low ^= at_p
    mixed = largest == 1
    if not mixed.any():
        low = low.view(np.int8)
        return low + low
    high = mixed & (at_p ^ (k >= cut_pr))
    high ^= low
    return low.view(np.int8) + high.view(np.int8)


def step(cfg: Configuration, model: ModelSpec, stream: SeededStream, t: int) -> Configuration:
    """Advance a row, or each row of a stack under the same variates, by one step;
    deterministic given (seed, t) and the input.  Each output site's triple is
    classed by its largest code (module docstring)."""
    a, b, c = _neighbour_views(cfg, model.offset)
    largest = np.maximum(a, b)
    np.maximum(largest, c, out=largest)
    k = stream.u01_range(t, 0, cfg.width)
    return Configuration._of_rule(_apply_rule(largest, model.params, k))


@dataclass(frozen=True)
class StepStats:
    t: int
    width: int
    count0: int
    countQ: int
    count1: int


@dataclass(frozen=True)
class TrajectoryResult:
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
