"""Row-by-row simulation of the binary and three-symbol lattice dynamics.

The update rule reads the neighbourhood {i, i+1, i+2} of each site (offset i is
configurable: i = 0 gives the right-looking chain, i = -1 the centered one) and
draws the new symbol independently per site:

* binary alphabet {0,1}: triple 000 -> 0 w.p. p, 1 w.p. 1-p; any other triple
  -> 0 w.p. 1-q, 1 w.p. q;
* three-symbol alphabet {0,?,1}: a triple containing 1 -> 0 w.p. 1-q, 1 w.p. q;
  triple 000 -> 0 w.p. p, 1 w.p. 1-p; a triple over {0,?} with at least one ?
  -> 0 w.p. p, 1 w.p. q, ? w.p. r.

Those three triple classes and their exact laws live in ``core``
(``TripleClass``, ``TRIPLE_CLASSES``, ``class_law``), where the exact checks
read them without importing numpy; this module adds the numeric side: hashing,
the per-(p, q) cut-point table and stepping rows.

Randomness is counter-based: every (time, site) pair is hashed to one uniform
variate, so results are independent of array width, evaluation order, and worker
count. A variate is the top 53 bits of its 64-bit hash, the integer k = h >> 11,
and stands for u = k * 2**-53 in [0, 1); it is never made a float. Sampling
inverts the CDF in the fixed symbol-code order 0 < ? < 1, which makes the
common-randomness coupling of two rows monotone in that order. The cut points
are the floats of a per-(p, q) table, and each is compared as the integer
ceil(t * 2**53): k >= ceil(t * 2**53) iff k * 2**-53 >= t, exactly, because k is
an integer and t * 2**53 is an exact float. A cut at or above 1.0 becomes 2**53
or more, which no variate reaches.

Two boundary policies: Cyclic keeps the width fixed and wraps indices; LightCone
shrinks the row by 2 sites per step (both from the right for offset 0, one per
side for offset -1) so that every surviving cell carries exactly the law of the
infinite-lattice dynamics restricted to that window.

A configuration is one row or a stack of rows over one window.  ``step`` draws
one variate per (t, n) for every row of a stack, which couples the rows by
common randomness while each steps exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (TRIPLE_CLASSES, EnvSymbol, LocalDistribution, Params, TripleClass,
                   class_law, triple_class)

# ------------------------------------------------------------------ randomness

_U64 = np.uint64
_GOLD = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_TAG_T = _U64(0xD6E8FEB86659FD93)
_TAG_N = _U64(0xA0761D6478BD642F)
_TAG_CHILD = _U64(0x8BB84B93962EACC9)
_MASK64 = (1 << 64) - 1
_GOLD_INT, _MUL1_INT, _MUL2_INT, _TAG_T_INT = (int(c) for c in (_GOLD, _MUL1, _MUL2, _TAG_T))


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array (0-d too) that the
    caller owns; returns it. Working in place makes one temporary, not six."""
    t = np.empty_like(z)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _MUL1
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _MUL2
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _finalize_int(z: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MUL1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2_INT) & _MASK64
    return z ^ (z >> 31)


def _as_u64(x) -> np.ndarray:
    """Reinterpret (possibly negative) integers as two's-complement uint64."""
    return np.asarray(x, dtype=np.int64).view(_U64)


def _key_u64(seed_u64, t, n):
    """Hash (seed, t, n) to uint64; t, n may be scalars or broadcastable arrays.

    With scalar seed and t, the (seed, t) prefix is computed in Python ints,
    masked to 64 bits: the same bits as the numpy scalar finalizers, without
    their fixed cost on every call.
    """
    with np.errstate(over="ignore"):  # uint64 scalar arithmetic wraps by design
        if np.ndim(seed_u64) == 0 and np.ndim(t) == 0:
            h = _finalize_int((int(seed_u64) + _GOLD_INT) & _MASK64)
            h = _U64(_finalize_int(h ^ (((int(t) & _MASK64) * _MUL2_INT + _TAG_T_INT) & _MASK64)))
        else:
            h = _finalize(np.asarray(seed_u64 + _GOLD))
            h = _finalize(h ^ (_as_u64(t) * _MUL2 + _TAG_T))
        return _finalize(np.asarray(h ^ (_as_u64(n) * _MUL1 + _TAG_N)))


def variate_cut(t) -> np.ndarray:
    """The integer cut point ceil(t * 2**53) of float cut point(s) ``t``: a
    variate k is at or above it iff k * 2**-53 >= t."""
    return np.ceil(np.asarray(t, dtype=np.float64) * 2.0**53).astype(_U64)


def u01_block(seeds: np.ndarray, t: int, n0: int, count: int) -> np.ndarray:
    """Variates for many streams at once: shape (len(seeds), count), keyed
    (t, n0+j); each is the 53-bit integer k of the uniform k * 2**-53."""
    sites = n0 + np.arange(count, dtype=np.int64)
    h = _key_u64(seeds.reshape(-1, 1), t, sites.reshape(1, -1))
    return np.right_shift(h, _U64(11), out=h)


@dataclass(frozen=True)
class SeededStream:
    """Counter-based uniform source; the variate at (t, n) depends only on (seed, t, n)."""

    seed: int

    def _seed_u64(self):
        return _U64(self.seed & _MASK64)

    def u01_range(self, t: int, n0: int, count: int) -> np.ndarray:
        """Variates at sites n0, n0+1, ..., n0+count-1 of step t, as the 53-bit
        integers k of the uniforms k * 2**-53."""
        sites = n0 + np.arange(count, dtype=np.int64)
        h = _key_u64(self._seed_u64(), t, sites)
        return np.right_shift(h, _U64(11), out=h)

    def child_seeds_u64(self, count: int, start: int = 0) -> np.ndarray:
        """Seeds of the derived streams for samples start..start+count-1; distinct
        samples get independent (t, n) tables, and sample k's seed does not
        depend on which range it is made in."""
        ks = np.arange(start, start + count, dtype=np.int64)
        with np.errstate(over="ignore"):
            return _finalize(self._seed_u64() ^ (_as_u64(ks) * _MUL1 + _TAG_CHILD))


# ------------------------------------------------------------------ model/state

class Alphabet(Enum):
    BINARY = "binary"
    ENVELOPE = "envelope"


class Boundary(Enum):
    CYCLIC = "cyclic"
    LIGHTCONE = "lightcone"


@dataclass(frozen=True)
class ModelSpec:
    """Alphabet + neighbourhood offset i (window {i, i+1, i+2}) + parameters."""

    alphabet: Alphabet
    offset: int
    params: Params

    def __post_init__(self) -> None:
        if abs(self.offset) > 2**62:  # so an offset plus a width stays in int64
            raise ValueError(f"offset must satisfy |offset| <= 2**62, got {self.offset}")


@dataclass(frozen=True, eq=False)
class Configuration:
    """A finite row of symbol codes, or a stack of rows, with a boundary policy.

    ``cells`` has shape (width,) for one row, or (rows, width) for a stack of
    rows over one window; ``step`` feeds every row of a stack the same (t, n)
    variates.  ``origin`` is the absolute lattice index of the first column; it
    shifts under the LightCone policy so that (t, n) randomness keys stay
    attached to absolute sites, which is what makes window restriction exact.
    """

    cells: np.ndarray
    boundary: Boundary
    origin: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.cells, dtype=np.int8)
        if arr.ndim not in (1, 2) or arr.size == 0:
            raise ValueError("cells must be a nonempty row or stack of rows")
        if arr.view(np.uint8).max() > 2:  # a negative code reads as 128..255
            raise ValueError("cell codes must be 0 (zero), 1 (?), or 2 (one)")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def width(self) -> int:
        return int(self.cells.shape[-1])

    @property
    def has_qmark(self) -> bool:
        return bool((self.cells == 1).any())

    def counts(self) -> tuple[int, int, int]:
        """(count of 0, count of ?, count of 1) over every row -- exact integers."""
        return (
            int((self.cells == 0).sum()),
            int((self.cells == 1).sum()),
            int((self.cells == 2).sum()),
        )

    @classmethod
    def constant(
        cls, width: int, symbol: EnvSymbol, boundary: Boundary, origin: int = 0
    ) -> "Configuration":
        return cls(np.full(width, symbol.value, dtype=np.int8), boundary, origin)


# ------------------------------------------------------------------ local rule

def local_rule(model: ModelSpec, triple: Sequence[EnvSymbol]) -> LocalDistribution:
    """Exact one-site output law for a neighbourhood triple.

    A binary triple is never MIXED, so both alphabets share the class laws.
    """
    syms = tuple(triple)
    if len(syms) != 3 or not all(isinstance(s, EnvSymbol) for s in syms):
        raise ValueError(f"need a triple of symbols, got {triple!r}")
    if model.alphabet is Alphabet.BINARY and any(s is EnvSymbol.QMARK for s in syms):
        raise ValueError("? symbol passed to a binary model")
    return class_law(triple_class(syms), model.params)


# ------------------------------------------------------------------ stepping

def _neighbour_views(cfg: Configuration, offset: int):
    """Return (a, b, c) triple views and the output row's absolute origin/width."""
    cells, width = cfg.cells, cfg.width
    if cfg.boundary is Boundary.CYCLIC:
        # offset % width first: take's wrap mode reduces an index one width at a time
        start = offset % width
        ext = np.take(cells, np.arange(start, start + width + 2), axis=-1, mode="wrap")
        return ext[..., :-2], ext[..., 1:-1], ext[..., 2:], cfg.origin, width
    if width < 3:
        raise ValueError("window exhausted: LightCone row narrower than 3 cells")
    # Output site n is computable iff its whole neighbourhood lies in the window:
    # n ranges over [origin - offset, origin + width - 1 - offset - 2].
    return cells[..., :-2], cells[..., 1:-1], cells[..., 2:], cfg.origin - offset, width - 2


@lru_cache(maxsize=None)
def _cut_points(params: Params) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF cut points (t0, t1) of every triple, by base-3 index, in the
    code order 0 < ? < 1.  Only a MIXED triple has t1 > t0, so a binary row,
    which holds no ?, reads the binary rule from the same table."""
    p, q, r = float(params.p), float(params.q), float(params.r)
    t0 = np.array([1.0 - q if cls is TripleClass.HAS_ONE else p for cls in TRIPLE_CLASSES])
    t1 = t0 + np.array([r if cls is TripleClass.MIXED else 0.0 for cls in TRIPLE_CLASSES])
    t0.setflags(write=False)
    t1.setflags(write=False)
    return t0, t1


@lru_cache(maxsize=None)
def _variate_cuts(params: Params) -> tuple[np.ndarray, np.ndarray]:
    """The cut points of ``_cut_points`` as integers, for comparing variates."""
    c0, c1 = (variate_cut(t) for t in _cut_points(params))
    c0.setflags(write=False)
    c1.setflags(write=False)
    return c0, c1


def _triples(cfg: Configuration, model: ModelSpec):
    """The base-3 index of each output site's triple, and the output row's
    absolute origin and width, once the row is checked against the alphabet."""
    if model.alphabet is Alphabet.BINARY and cfg.has_qmark:
        raise ValueError("? symbol passed to a binary model")
    a, b, c, out_origin, out_width = _neighbour_views(cfg, model.offset)
    # intp, not int8: numpy gathers with an int8 index much more slowly
    return 9 * a.astype(np.intp) + 3 * b + c, out_origin, out_width


def _apply_rule(triple: np.ndarray, params: Params, k: np.ndarray) -> np.ndarray:
    """The updated cells: site n of each row inverts its triple's cut points at the variate k[n]."""
    c0, c1 = _variate_cuts(params)
    return (k >= c0[triple]).view(np.int8) + (k >= c1[triple]).view(np.int8)


def step(cfg: Configuration, model: ModelSpec, stream: SeededStream, t: int) -> Configuration:
    """Advance a row, or each row of a stack under the same variates, by one step;
    deterministic given (seed, t) and the input."""
    triple, out_origin, out_width = _triples(cfg, model)
    k = stream.u01_range(t, out_origin, out_width)
    return Configuration(_apply_rule(triple, model.params, k), cfg.boundary, out_origin)


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
