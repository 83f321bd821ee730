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

One downward pass serves every requested horizon, hashing the labels once per
(sample, line). Classes only refine as the horizon grows and a resolved site
keeps its value, so of the m horizons entered so far (h enters, all-D, at its
frontier line h - 1) a site is D at the d smallest and W, or L, at the other
m - d: one code, 1 - (m - d) or 1 + (m - d), holds them all, and 1 (D) means D
at every one. Labelled trap 1 - m, open 1 and target 1 + m, `classify_line`'s
own rule inducts every horizon at once. A row is dropped once every code in it
is 1 +- m: no horizon holds a D there, and a D-free line stays D-free (an open
site is D only next to a D, and trap and target sites are never D). When a
horizon enters no code changes, only m; dropped rows come back as 1 - m, W at
the older horizons and D at the new one. Samples are also processed in chunks
of bounded size. Dropping and chunking are exact because a label is a
counter-based function of (sample seed, line, site): which other samples are
present, and in which chunk, changes no sample's labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np

from .core import TRIPLE_CLASSES, EnvSymbol, Params, iter_words
from .pca import SeededStream, u01_block, variate_cuts


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


def _labels(k: np.ndarray, cuts: tuple[np.uint64, np.uint64, np.uint64], m: int = 1,
            dtype=np.int8) -> np.ndarray:
    """Site labels of the variates ``k``, by inverse CDF at the cuts p and
    1 - q of ``cuts``, the ``variate_cuts`` of the parameters, as the codes
    1 - m (trap), 1 (open) and 1 + m (target): with m = 1 these are the
    `SiteLabel` codes."""
    cut_p, _, cut_1q = cuts
    labels = (k >= cut_p).astype(dtype)
    labels -= k < cut_1q  # -1, 0, 1
    labels *= m
    labels += 1
    return labels


def classify_line(labels, next_classes, version: GameVersion) -> np.ndarray:
    """One backward-induction step: classes on a line from its own labels and
    the successor line's classes.

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
    three-argument wrapper, which a traced run calls positionally.
    """
    labels = np.asarray(labels)
    nxt = np.asarray(next_classes)
    if nxt.shape[-1] != labels.shape[-1] + 2:
        raise ValueError(
            f"successor line must cover every out-neighbourhood: "
            f"need width {labels.shape[-1] + 2}, got {nxt.shape[-1]}"
        )
    # With W=0, D=1, L=2 an open site is W next to an L, L when all three
    # out-neighbours are W and D otherwise: 2 - max(n0, n1, n2).  A trap is W
    # and a target L, the codes of their labels.  So the class is
    # label + (label is open) * (1 - max).
    cls = np.maximum(nxt[..., :-2], nxt[..., 1:-1], dtype=np.result_type(labels, nxt))
    np.maximum(cls, nxt[..., 2:], out=cls)
    np.subtract(1, cls, out=cls)
    cls *= labels == SiteLabel.OPEN
    cls += labels
    return cls


# ------------------------------------------------------------- correspondence

@dataclass(frozen=True)
class KernelComparison:
    """Induced one-site law of classify_line vs the three-symbol local rule,
    each as its masses on codes 0, 1, 2, integers over the point's scale."""

    triple: tuple[EnvSymbol, EnvSymbol, EnvSymbol]
    induced: tuple[int, int, int]
    expected: tuple[int, int, int]

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
    the induced law on {W, D, L} must equal the rule's law on {0, ?, 1}.

    The 81 (successor triple, label) cases are classified by one
    ``classify_line`` call, the rule the game loop runs, as a stack of 81
    one-site lines.  The label masses over the point's scale, summed per
    class, are compared with ``Params.law_masses``.
    """
    triples = tuple(iter_words(3))
    nxt = np.repeat(np.array(triples, dtype=np.int8), len(SiteLabel), axis=0)
    labels = np.tile(np.array(list(SiteLabel), dtype=np.int8), len(triples))[:, None]
    classes = classify_line(labels, nxt, version).reshape(len(triples), len(SiteLabel))
    s, a, b = params.scaled
    label_masses = (a, s - a - b, b)  # by SiteLabel code
    expected = params.law_masses[1]
    comparisons = []
    for triple, rule_class, row in zip(triples, TRIPLE_CLASSES, classes.tolist()):
        induced = tuple(sum([m for c, m in zip(row, label_masses) if c == k]) for k in range(3))
        comparisons.append(KernelComparison(triple, induced, expected[rule_class]))
    return KernelReport(version, params, tuple(comparisons))


# ------------------------------------------------------------- draw estimates

# Cells of one chunk's code line: bounds the per-line temporaries of the hash
# and the classification (several 8-byte arrays of this many entries).  A
# horizon whose widest line alone exceeds it is rejected.
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
    ``codes`` the packed classes (module docstring) of the ``live`` rows on the
    line below, 1 + 2(s + 1) wide at line s, for the m positive horizons
    entered so far. The horizon of rank i (0 = smallest positive) counts the
    base codes c with m - |c - 1| > i. Horizon 0 has no line to walk: its base
    site is the frontier, always D, so it counts every sample and makes no seeds.
    Samples run in chunks of at most _CELL_BUDGET cells of the widest line, and
    a chunk's seeds are made when it starts, so memory does not grow with
    ``samples``.
    """
    draws = dict.fromkeys(horizons, 0)
    if 0 in draws:
        draws[0] = samples
    levels = sorted({h for h in horizons if h > 0}, reverse=True)
    if not levels:
        return draws
    top = levels[0]
    cuts = variate_cuts(params)
    # the narrowest signed type holding every code 1 +- m: int8 up to 126 horizons
    dtype = np.min_scalar_type(-2 - len(levels))
    rows = _CELL_BUDGET // (1 + 2 * top)
    for start in range(0, samples, rows):
        seeds = stream.child_seeds_u64(min(rows, samples - start), start)
        m, codes, live = 0, np.empty((0, 1), dtype=dtype), np.arange(0)
        for s in range(top - 1, -1, -1):
            if m < len(levels) and levels[m] == s + 1:
                entered = np.full((seeds.size, 2 * s + 3), 1 - m, dtype=dtype)
                if live.size:
                    entered[live] = codes
                codes, live = entered, np.arange(seeds.size)
                m += 1
            kept = (np.abs(codes - 1) < m).any(axis=1)
            if not kept.all():
                codes, live = codes[kept], live[kept]
            if not live.size:
                if m == len(levels):
                    break
                continue
            # passed straight through: no local keeps a line's variates alive
            # while the next line is hashed
            codes = classify_line(
                _labels(u01_block(seeds[live], s, s * version.offset, 1 + 2 * s),
                        cuts, m, dtype),
                codes, version)
        depth = m - np.abs(codes[:, 0] - 1)
        for rank, h in enumerate(reversed(levels)):
            draws[h] += int(np.count_nonzero(depth > rank))
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
    sample, not just in law. Every horizon is checked before any is run: it
    lies in 0..(_CELL_BUDGET - 1) // 2, so one sample's widest line fits a chunk.
    """
    horizons = tuple(horizons)
    if not horizons:
        raise ValueError("no horizon given")
    for horizon in horizons:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if 1 + 2 * horizon > _CELL_BUDGET:
            raise ValueError(f"horizon must be <= {(_CELL_BUDGET - 1) // 2}, got {horizon}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    draws = _count_draws(version, params, horizons, samples, stream)
    return tuple(DrawEstimate(version, params, h, samples, draws[h], stream.seed)
                 for h in horizons)
