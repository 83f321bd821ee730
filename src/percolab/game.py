"""Random-turn token games on Z^2 and their line-by-line classification.

Every site of Z^2 independently carries a label: trap with probability p,
target with probability q, open with probability r = 1 - p - q. A token is
pushed along one of four out-neighbourhood schemes: from (x, y) to
(x, y+2), (x+1, y+1), (x+2, y) for V1; (x, y+1), (x+1, y+1), (x+2, y+1) for
V2; (x+1, y), (x, y+1), (x-1, y+2) for V3; (x-1, y+1), (x, y+1), (x+1, y+1)
for V4. Landing on a trap wins for the player who moved there, landing on a
target loses, and play continues through open sites. Under optimal play each
site splits into W (the player to move from it wins), L (loses), or D
(neither can force a win).

Classification is pure backward induction: the class of a site is a function
of its own label and the classes of its three out-neighbours, which all lie on
the next line (diagonals x+y=k for V1/V3, horizontals y=k for V2/V4).
Identifying each line with Z via the x-coordinate, the out-neighbours of site
n sit at n+i, n+i+1, n+i+2 on the successor line, with i = 0 for V1/V2 and
i = -1 for V3/V4 -- the same window shape as `pca`. The game's vocabulary
(``GameVersion``, ``SiteLabel``, ``GameClass``) and its one-site rule
(``core.site_class``) live in ``core``; ``classify_line`` runs that rule on
whole lines of int8 codes through ``pca.site_classes``, its one vectorised
copy. Integrating the label out, one induction step *is* one step of the
three-symbol dynamics under the correspondence W=0, D=?, L=1 (codes
coincide); ``core.kernel_correspondence`` checks this exactly, in integers and
without numpy, the tests pin ``classify_line`` to the rule, and ``pca.step``
is that step, each site labelled at the cuts p and 1 - q.

Draw probabilities are estimated by starting the frontier line, at distance T
above the base site, in the all-D (unresolved) state and inducting down.
Labels are keyed by (line index, absolute site) so the sampled label field is
shared across horizons: raising T only ever resolves D's, never flips a W/L.
The all-D frontier is the envelope automaton started from all-? in the light
cone, so a sample's base site leaves D at its coupling-from-the-past
coalescence time.

The requested horizons are asked in ascending batches, each holding the
horizons up to twice its smallest: the doubling schedule of coupling from the
past. One downward pass serves a whole batch, hashing the labels once per
(sample, line) below its largest horizon, and only the samples whose base is
still D at that horizon go on to the next batch: a base resolved at a short
horizon is never hashed again. The batches hash at most 8/3 of what one pass
from the largest horizon would (``_count_draws``). ``pca.u01_block`` reads
each label against the cuts p and 1 - q while its variate's tile is still in
cache and hands back int8 codes, so no line's uint64 variate block is ever
held: a line costs one byte per site, or two past 126 horizons in a batch.
Classes only refine as the horizon grows and a resolved site keeps its value,
so of the m horizons of a batch entered so far (h enters, all-D, at its
frontier line h - 1) a site is D at the d smallest and W, or L, at the other
m - d: one code, 1 - (m - d) or 1 + (m - d), holds them all, and 1 (D) means D
at every one. Labelled trap 1 - m, open 1 and target 1 + m, `classify_line`'s
own rule inducts every horizon at once. A row is dropped once every code in it
is 1 +- m: no horizon holds a D there, and a D-free line stays D-free (an open
site is D only next to a D, and trap and target sites are never D). When a
horizon enters no code changes, only m; dropped rows come back as 1 - m, W at
the older horizons and D at the new one. Samples are also processed in chunks
of bounded size. Batching, dropping and chunking are exact because a label is
a counter-based function of (sample seed, line, site): which other samples are
present, in which chunk and in which batch, changes no sample's labels.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import core
from .core import GameVersion, Params
from .pca import SeededStream, site_classes, u01_block, variate_cuts

# The kernel check is core's, where ``verify kernel`` runs it without numpy;
# perfbench/spans.py rebinds it by this name to time it as game.kernel_check.
kernel_correspondence = core.kernel_correspondence


def classify_line(labels, next_classes, version: GameVersion) -> np.ndarray:
    """One backward-induction step: classes on a line from its own labels and
    the successor line's classes, by ``pca.site_classes``: the game's
    one-site rule ``core.site_class`` (which ``kernel_correspondence``
    checks), vectorised, which ``pca.step`` runs too.

    Alignment convention (all versions): the out-neighbours of labels[j] are
    next_classes[j], next_classes[j+1], next_classes[j+2] -- the line
    identification absorbs the offset, which only moves the window's absolute
    position (the caller's bookkeeping). Works on stacks of lines: the last
    axis is the line, and the classes keep the inputs' integer type. On the
    codes of the module docstring the same rule inducts nested horizons at
    once: an open site's 2 - (largest out-neighbour code 1 +- j) is W (L) at
    the j longest horizons where a neighbour is L (all three are W), D at the
    others. Deterministic.

    ``version`` is not read: the offset lives in the caller's bookkeeping.  It
    stays because ``perfbench/spans.py`` wraps this function with a
    three-argument wrapper, which a traced run calls positionally; and this
    is a function of its own, not a name for ``site_classes``, because that
    wrapper replaces it in every namespace holding it, where it would count
    ``pca.step``'s sites too.
    """
    return site_classes(labels, next_classes)


# ------------------------------------------------------------- draw estimates

def _holds_d(codes: np.ndarray, m: int) -> np.ndarray:
    """Whether each packed code c (module docstring) of m horizons is D at
    one of them, 1 - m < c < 1 + m, as one unsigned compare: on the codes'
    unsigned view, c - (2 - m) modulo 2**bits is below 2m - 1 exactly then.
    Every code lies in [1 - m, 1 + m], so the shift wraps only 1 - m."""
    unsigned = codes.view(f"u{codes.itemsize}")
    shifted = unsigned + unsigned.dtype.type((m - 2) % (1 << 8 * codes.itemsize))
    return shifted < 2 * m - 1


# Cells of one chunk's code line: bounds the per-line arrays of the labels and
# the classification (a few int8, or int16, arrays of this many entries; the
# hash works in tiles of its own).  A horizon whose widest line alone exceeds
# it is rejected.
_CELL_BUDGET = 1 << 20
_Z = 1.96  # wilson_interval's two-sided 95% quantile of the standard normal law


def _batch_depths(
    version: GameVersion,
    batch: Sequence[int],
    seeds: np.ndarray,
    cuts: tuple[np.uint64, np.uint64],
) -> np.ndarray:
    """For each sample of ``seeds``, at how many of the ascending horizons of
    ``batch`` its base site is D: one downward pass from the largest.

    The line s steps above the base covers absolute indices [s*offset,
    s*offset + 2s]. The pass walks the lines from B - 1 down to 0, B the
    batch's largest horizon, with ``codes`` the packed classes (module
    docstring) of the ``live`` rows on the line below, 1 + 2(s + 1) wide at
    line s, for the m horizons entered so far; a row stays while one of its
    codes holds a D at some horizon (``_holds_d``). A base code c is D at the
    m - |c - 1| smallest horizons, and a dropped row at none.
    """
    levels = batch[::-1]
    top = levels[0]
    # the narrowest signed type holding every code 1 +- m: int8 up to 126 horizons
    dtype = np.min_scalar_type(-2 - len(levels))
    m, codes, live = 0, np.empty((0, 1), dtype=dtype), np.arange(0)
    for s in range(top - 1, -1, -1):
        if m < len(levels) and levels[m] == s + 1:
            entered = np.full((seeds.size, 2 * s + 3), 1 - m, dtype=dtype)
            if live.size:
                entered[live] = codes
            codes, live = entered, np.arange(seeds.size)
            del entered  # else it keeps this line's codes alive to the next entry
            m += 1
        kept = _holds_d(codes, m).any(axis=1)
        if not kept.all():
            codes, live = codes[kept], live[kept]
        if not live.size:
            if m == len(levels):
                break
            continue
        # the line's SiteLabel codes 0, 1, 2, spread to 1 - m, 1, 1 + m
        labels = u01_block(seeds[live], s, s * version.offset, 1 + 2 * s, cuts)
        if m > 1:
            labels = labels.astype(dtype, copy=False)
            labels -= 1
            labels *= m
            labels += 1
        codes = classify_line(labels, codes, version)
        del labels  # else it keeps this line's labels alive through the next hash
    depth = np.zeros(seeds.size, dtype=np.intp)
    depth[live] = m - np.abs(codes[:, 0] - 1)
    return depth


def _count_draws(
    version: GameVersion,
    params: Params,
    horizons: Sequence[int],
    samples: int,
    stream: SeededStream,
) -> dict[int, int]:
    """For each distinct horizon, the number of the ``samples`` independent
    label fields whose base site is D, in ascending batches of horizons.

    Sample i is keyed by the i-th of ``stream.child_seeds_u64(samples)``. The
    positive horizons are sorted ascending and cut into batches, each holding
    the horizons up to twice its smallest. Each batch is one downward pass
    (``_batch_depths``) over the samples whose base was still D at the previous
    batch's largest horizon; the horizon of rank i in the batch counts the
    samples D at more than i of its horizons, and only those D at all of them
    go on. A base resolved at a shorter horizon stays resolved at every longer
    one (module docstring), so a sample left behind counts 0 at every later
    horizon and its cone is never hashed again: this is the doubling schedule
    of coupling from the past. Horizon 0 has no line to walk: its base site is
    the frontier, always D, so it counts every sample and makes no seeds.

    A batch of largest horizon B hashes at most B^2 sites a sample. The
    largest horizons of batches two apart more than double, so the batches
    hash at most 8/3 of the one-pass count, samples x (largest horizon)^2
    (the last two batches at most H^2 each, the two before them (H/2)^2
    each, and so on). The worst case is p = q = 0, where nothing resolves and
    every batch re-hashes every sample's lines below its largest horizon:
    50,100,101, say, hashes about twice the one pass there.
    Samples run in chunks of at most _CELL_BUDGET cells of the widest line, and
    a chunk's seeds are made when it starts, so memory does not grow with
    ``samples``.
    """
    draws = dict.fromkeys(horizons, 0)
    if 0 in draws:
        draws[0] = samples
    batches: list[list[int]] = []
    for h in sorted({h for h in horizons if h > 0}):
        if batches and h <= 2 * batches[-1][0]:
            batches[-1].append(h)
        else:
            batches.append([h])
    if not batches:
        return draws
    cuts = variate_cuts(params)  # p and 1 - q
    rows = _CELL_BUDGET // (1 + 2 * batches[-1][-1])
    for start in range(0, samples, rows):
        seeds = stream.child_seeds_u64(min(rows, samples - start), start)
        for batch in batches:
            depth = _batch_depths(version, batch, seeds, cuts)
            for rank, h in enumerate(batch):
                draws[h] += int(np.count_nonzero(depth > rank))
            seeds = seeds[depth == len(batch)]
            if not seeds.size:
                break
    return draws


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    z2 = _Z * _Z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = _Z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - half)  # endpoints are exact
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


class DrawEstimate(NamedTuple):
    """Fraction of sampled label fields whose base site is still unresolved (D)
    after induction from an all-D frontier at distance ``horizon``."""

    version: GameVersion
    params: Params
    horizon: int
    samples: int
    draws: int
    seed: int

    @property
    def fraction(self) -> float:
        return self.draws / self.samples

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.draws, self.samples)

    def to_json_dict(self) -> dict:
        lo, hi = self.ci
        return {
            "version": self.version.value,
            "p": str(self.params.p),
            "q": str(self.params.q),
            "horizon": self.horizon,
            "samples": self.samples,
            "draw_fraction": self.fraction,
            "ci_low": lo,
            "ci_high": hi,
            "seed": self.seed,
        }


def check_request(horizons: Sequence[int], samples: int) -> None:
    """Refuse no horizon, fewer than one sample, or a horizon outside
    0..(_CELL_BUDGET - 1) // 2, so that one sample's widest line fits a chunk."""
    if not horizons:
        raise ValueError("no horizon given")
    for horizon in horizons:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if 1 + 2 * horizon > _CELL_BUDGET:
            raise ValueError(f"horizon must be <= {(_CELL_BUDGET - 1) // 2}, got {horizon}")
    if samples < 1:
        raise ValueError("samples must be >= 1")


def draw_fraction(
    version: GameVersion,
    params: Params,
    horizons: Sequence[int],
    samples: int,
    stream: SeededStream,
) -> tuple[DrawEstimate, ...]:
    """Monte Carlo upper bounds on the base site's draw probability, one per
    requested horizon, in the requested order (duplicates kept).

    A label is keyed by (sample, line, site), so every horizon reads the same
    label field; that makes the estimate nonincreasing in the horizon sample by
    sample, not just in law.
    """
    horizons = tuple(horizons)
    check_request(horizons, samples)
    draws = _count_draws(version, params, horizons, samples, stream)
    return tuple(DrawEstimate(version, params, h, samples, draws[h], stream.seed)
                 for h in horizons)
