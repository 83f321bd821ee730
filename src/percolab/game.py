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
i = -1 for V3/V4 -- the same window shape as `pca`. Integrating the label out,
one induction step *is* one step of the three-symbol dynamics under the
correspondence W=0, D=?, L=1 (codes coincide); kernel_correspondence checks
this exactly.

Draw probabilities are estimated by starting the frontier line, at distance T
above the base site, in the all-D (unresolved) state and inducting down.
Labels are keyed by (line index, absolute site) so the sampled label field is
shared across horizons: raising T only ever resolves D's, never flips a W/L.
The all-D frontier is the envelope automaton started from all-? in the light
cone, so a sample's base site leaves D at its coupling-from-the-past
coalescence time.

One downward pass serves every requested horizon. It keeps one class layer per
horizon above the current line, stacked so that every layer reads the same
labels, which are hashed once per (sample, line). A horizon's layer enters,
all-D, at its frontier line; the layers already there are widened back to the
whole chunk with W in the rows they had dropped, which is harmless because a
D-free line stays D-free (an open site is D only next to a D, and trap and
target sites are never D). A row is dropped once no layer holds a D in it and
a layer once none of its rows holds one: neither can give a D base site any
more. The pass is exact because classes only refine as the horizon grows, so a
longer horizon's D's are a subset of a shorter one's, and each layer is the
induction its horizon alone would run. Samples are also processed in chunks of
bounded size. Dropping and chunking are exact because a label is a
counter-based function of (sample seed, line, site): which other samples are
present, and in which chunk, changes no sample's labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import EnvSymbol, LocalDistribution, Params, iter_words
from .pca import Alphabet, ModelSpec, SeededStream, local_rule, u01_block, variate_cut


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
    """Outcome classes; codes deliberately coincide with the symbol codes of
    `core` under W=0, D=?, L=1."""

    W = 0
    D = 1
    L = 2


def _label_cuts(params: Params) -> tuple[np.ndarray, np.ndarray]:
    """The label cut points p and 1 - q, as floats, made variate cut points."""
    return variate_cut(float(params.p)), variate_cut(1.0 - float(params.q))


def _labels(k: np.ndarray, cuts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Site labels of the variates ``k``, by inverse CDF at ``_label_cuts``."""
    return (k >= cuts[0]).view(np.int8) + (k >= cuts[1]).view(np.int8)


def classify_line(labels, next_classes, version: GameVersion) -> np.ndarray:
    """One backward-induction step: classes on a line from its own labels and
    the successor line's classes.

    Alignment convention (all versions): the out-neighbours of labels[j] are
    next_classes[j], next_classes[j+1], next_classes[j+2] -- the line
    identification absorbs the offset, which only moves the window's absolute
    position (the caller's bookkeeping). Works on stacks of lines: the last
    axis is the line. Deterministic.
    """
    labels = np.asarray(labels, dtype=np.int8)
    nxt = np.asarray(next_classes, dtype=np.int8)
    if nxt.shape[-1] != labels.shape[-1] + 2:
        raise ValueError(
            f"successor line must cover every out-neighbourhood: "
            f"need width {labels.shape[-1] + 2}, got {nxt.shape[-1]}"
        )
    # With W=0, D=1, L=2 an open site is W next to an L, L when all three
    # out-neighbours are W and D otherwise: 2 - max(n0, n1, n2).  A trap is W
    # and a target L, the codes of their labels.  So the class is
    # label + (label is open) * (1 - max).
    cls = np.maximum(nxt[..., :-2], nxt[..., 1:-1])
    np.maximum(cls, nxt[..., 2:], out=cls)
    np.subtract(1, cls, out=cls)
    cls *= labels == SiteLabel.OPEN
    cls += labels
    return cls


# ------------------------------------------------------------- correspondence

@dataclass(frozen=True)
class KernelComparison:
    """Induced one-site law of classify_line vs the three-symbol local rule."""

    triple: tuple[EnvSymbol, EnvSymbol, EnvSymbol]
    induced: LocalDistribution
    expected: LocalDistribution

    @property
    def equal(self) -> bool:
        return self.induced == self.expected


@dataclass(frozen=True)
class KernelReport:
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
            "mismatches": [
                "".join(str(s) for s in c.triple)
                for c in self.comparisons
                if not c.equal
            ],
            "passed": self.passed,
        }


def kernel_correspondence(version: GameVersion, params: Params) -> KernelReport:
    """Exact check that one induction step, label integrated out, is one step
    of the three-symbol local rule: for each of the 27 successor-class triples
    the induced law on {W, D, L} must equal the rule's law on {0, ?, 1}."""
    p, q, r = params.p, params.q, params.r
    label_probs = ((SiteLabel.TRAP, p), (SiteLabel.OPEN, r), (SiteLabel.TARGET, q))
    model = ModelSpec(Alphabet.ENVELOPE, version.offset, params)
    comparisons = []
    for triple in iter_words(3):
        nxt = np.array([s.value for s in triple], dtype=np.int8)
        masses = [Fraction(0), Fraction(0), Fraction(0)]
        for label, prob in label_probs:
            cls = int(classify_line(np.array([label], dtype=np.int8), nxt, version)[0])
            masses[cls] += prob
        induced = LocalDistribution(masses[0], masses[1], masses[2])
        comparisons.append(KernelComparison(triple, induced, local_rule(model, triple)))
    return KernelReport(version, params, tuple(comparisons))


# ------------------------------------------------------------- draw estimates

# Cells of one chunk's class stack: bounds the per-line temporaries of the
# hash and the classification (several 8-byte arrays of this many entries).
_CELL_BUDGET = 1 << 20


def _count_draws(
    version: GameVersion,
    params: Params,
    horizons: Sequence[int],
    samples: int,
    stream: SeededStream,
) -> dict[int, int]:
    """For each distinct horizon, the number of the ``samples`` independent
    label fields whose base site is D, in one downward pass per chunk.

    Sample i is keyed by the i-th of ``stream.child_seeds_u64(samples)``; the
    line s steps above the base covers absolute indices [s*offset, s*offset + 2s].
    The pass walks the lines from H - 1 down to 0, H the largest horizon, with
    ``stack[j]`` the classes that horizon ``layers[j]`` gives the ``live`` rows
    of the chunk on the line below the current one: every layer of the stack is
    1 + 2(s + 1) wide at line s, so the labels of a line are hashed once, for
    the live rows, and classified in every layer.

    - Horizon h enters at line h - 1 as an all-D layer. The rows that the other
      layers had dropped come back as W lines, which stay D-free.
    - A row is dropped before its next line is hashed once no layer holds a D
      in it, and a layer once none of its rows does: an open site is D only
      next to a D, so neither can give a D base site again.

    Horizon 0 has no line to walk: its base site is the frontier, always D.
    Samples run in chunks of at most _CELL_BUDGET stacked cells, and a chunk's
    seeds are made when it starts, so memory does not grow with ``samples``;
    since labels depend only on (sample seed, line, site), neither dropping nor
    chunking changes any remaining sample's labels, and every count is exact.
    """
    levels = sorted(set(horizons), reverse=True)
    cuts = _label_cuts(params)
    draws = dict.fromkeys(levels, 0)
    # the stack is widest on a horizon's frontier line h - 1: one layer of
    # 1 + 2h cells per horizon at least h
    widest = max((1 + 2 * h) * (i + 1) for i, h in enumerate(levels))
    rows = max(1, _CELL_BUDGET // widest)
    for start in range(0, samples, rows):
        seeds = stream.child_seeds_u64(min(rows, samples - start), start)
        pending = list(levels)
        layers: list[int] = []
        stack = np.empty((0, 0, 0), dtype=np.int8)
        live = np.arange(seeds.size)
        for s in range(levels[0] - 1, -1, -1):
            if pending and pending[0] == s + 1:
                layers.append(pending.pop(0))
                widened = np.full((len(layers), seeds.size, 2 * s + 3), GameClass.W,
                                  dtype=np.int8)
                if len(layers) > 1:
                    widened[:-1, live] = stack
                widened[-1] = GameClass.D
                stack, live = widened, np.arange(seeds.size)
            has_d = (stack == GameClass.D).any(axis=2)
            kept = has_d.any(axis=1)
            if not kept.all():
                layers = [h for h, keep in zip(layers, kept) if keep]
                stack, has_d = stack[kept], has_d[kept]
            rows_kept = has_d.any(axis=0)
            if not rows_kept.all():
                stack, live = stack[:, rows_kept], live[rows_kept]
            if not layers:
                if not pending:
                    break
                continue
            k = u01_block(seeds[live], s, s * version.offset, 1 + 2 * s)
            stack = classify_line(_labels(k, cuts), stack, version)
        for h, layer in zip(layers, stack):
            draws[h] += int(np.count_nonzero(layer[:, 0] == GameClass.D))
        if pending:  # only horizon 0 is never entered
            draws[0] += seeds.size
    return draws


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, centre - half)  # endpoints are exact
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


@dataclass(frozen=True)
class DrawEstimate:
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
    sample, not just in law. Every horizon is checked before any is run.
    """
    horizons = tuple(horizons)
    if not horizons:
        raise ValueError("no horizon given")
    for horizon in horizons:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    draws = _count_draws(version, params, horizons, samples, stream)
    return tuple(DrawEstimate(version, params, h, samples, draws[h], stream.seed)
                 for h in horizons)
