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

The induction does only the work that can still change the draw count. An
open site is D only if one of its out-neighbours is D, and trap and target
sites are never D, so once a sample's line holds no D no line below it does:
its base site is W or L, and the sample is dropped. Samples are also processed
in chunks of bounded size. Both are exact because a label is a counter-based
function of (sample seed, line, site): which other samples are present, and in
which chunk, changes no sample's labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction

import numpy as np

from .core import EnvSymbol, LocalDistribution, Params, iter_words
from .pca import Alphabet, ModelSpec, SeededStream, local_rule, u01_block


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


def _labels_from_u(u: np.ndarray, params: Params) -> np.ndarray:
    t0 = float(params.p)
    t1 = 1.0 - float(params.q)
    return (u >= t0).astype(np.int8) + (u >= t1).astype(np.int8)


def _class_table() -> np.ndarray:
    """The game's rule as a lookup: entry 27*label + 9*n0 + 3*n1 + n2 is the
    class of a site with that label and out-neighbour classes (n0, n1, n2).

    Built from the game's own definition, not from `pca.local_rule`, so that
    kernel_correspondence compares two independent derivations.
    """
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


_CLASS_TABLE = _class_table()


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
    # every term is at most 54, 18, 6 or 2, so the index (at most 80) fits in int8
    idx = labels * 27 + nxt[..., :-2] * 9 + nxt[..., 1:-1] * 3 + nxt[..., 2:]
    return _CLASS_TABLE[idx]


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

# Cells of one chunk's class block: bounds the per-line temporaries of the
# hash and the lookup (several 8-byte arrays of this many entries).
_CELL_BUDGET = 1 << 20


def _count_draws(
    version: GameVersion,
    params: Params,
    horizon: int,
    samples: int,
    stream: SeededStream,
) -> int:
    """Number of the ``samples`` independent label fields whose base site is
    D, computed line-at-a-time across samples.

    Sample i is keyed by the i-th of ``stream.child_seeds_u64(samples)``; the
    line s steps above the base covers absolute indices [s*offset, s*offset + 2s],
    and the frontier (s = horizon) starts all-D. A sample whose line holds no D
    can never give a D base site (an open site is D only next to a D), so it
    is dropped before the next line is hashed, and a chunk stops once none is
    left. Samples run in chunks of at most _CELL_BUDGET frontier cells, and a
    chunk's seeds are made when it starts, so memory does not grow with
    ``samples``; since labels depend only on (sample seed, line, site), neither
    dropping nor chunking changes any remaining sample's labels, and the count
    is exact.
    """
    rows = max(1, _CELL_BUDGET // (1 + 2 * horizon))
    draws = 0
    for start in range(0, samples, rows):
        seeds = stream.child_seeds_u64(min(rows, samples - start), start)
        classes = np.full((seeds.size, 1 + 2 * horizon), GameClass.D, dtype=np.int8)
        for s in range(horizon - 1, -1, -1):
            live = (classes == GameClass.D).any(axis=1)
            if not live.all():
                seeds, classes = seeds[live], classes[live]
                if seeds.size == 0:
                    break
            u = u01_block(seeds, s, s * version.offset, 1 + 2 * s)
            classes = classify_line(_labels_from_u(u, params), classes, version)
        draws += int(np.count_nonzero(classes[:, 0] == GameClass.D))
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
    horizon: int,
    samples: int,
    stream: SeededStream,
) -> DrawEstimate:
    """Monte Carlo upper bound on the base site's draw probability.

    A label is keyed by (sample, line, site), so every horizon reads the same
    label field; that makes the estimate nonincreasing in ``horizon`` sample by
    sample, not just in law.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    draws = _count_draws(version, params, horizon, samples, stream)
    return DrawEstimate(version, params, horizon, samples, draws, stream.seed)
