"""Command-line front end: reproducible simulations, game sweeps, verification reports.

Parameters are parsed as exact rationals ("1/5" or "0.2"), the seed defaults to a
fixed constant, and outputs are assembled in deterministic order, so identical
command lines produce byte-identical CSV/JSON.  ``verify`` subcommands exit 0 iff
every check they ran passed.

numpy and the layers built on it (``pca``, ``game``) are imported only for the
commands that step rows: ``simulate``, ``game``, ``sweep`` and ``verify
stationary``.  The other ``verify`` checks, ``verify kernel`` among them, are
exact arithmetic and run without numpy.
Likewise ``measures`` is imported only for the checks that read it
(``formulas``, ``tables``, ``weights``, ``stationary``) and ``orders`` only
for ``verify lemmas``.

Two things keep the fixed cost that every command pays low.  Importing this
module registers ``gc.freeze`` to run at exit: the interpreter's shutdown
would otherwise run the cyclic collector several times over the tens of
thousands of objects the imports made, which the OS reclaims anyway.  And the
``artifact_version`` that ``verify`` reports prints is read straight from the
distribution's ``.dist-info`` or ``.egg-info`` entry on ``sys.path``, since
importing ``importlib.metadata`` (and the ``email`` parser it loads) would
cost every command about 20 ms of start-up.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import importlib
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .core import EnvSymbol, Params, as_fraction

# atexit handlers run after every command's output is written, and no command
# collects generation 2 before then
atexit.register(gc.freeze)

DEFAULT_SEED = 1729

# RunConfig is the parsed argparse namespace: one flat bag of flags per invocation.
RunConfig = argparse.Namespace

_INIT_SYMBOL = {"qmarks": EnvSymbol.QMARK, "zeros": EnvSymbol.ZERO, "ones": EnvSymbol.ONE}

_COARSE_GRID = ((Fraction(1, 5), Fraction(3, 10)), (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                (Fraction(1, 100), Fraction(1, 100)))


# The most digits a rational flag may hold, and the largest exponent it may
# write: Fraction("1e10000000") alone took 8 s (2-CPU Xeon VM), longer
# exponents take longer still, and a value past the interpreter's 4300-digit
# limit fails when a report prints it.
_MAX_DIGITS = 1000


def _rational(text: str) -> Fraction:
    """An exact rational from "a/b" or a decimal, refused before ``Fraction``
    reads it if it holds more than ``_MAX_DIGITS`` digits or an exponent
    beyond that many places."""
    exponent = text.lower().partition("e")[2]
    try:
        places = abs(int(exponent)) if exponent else 0
    except ValueError:  # no exponent after all: Fraction refuses the token
        places = 0
    if sum(map(str.isdigit, text)) > _MAX_DIGITS or places > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"a rational may hold at most {_MAX_DIGITS} digits "
                                         f"and an exponent of at most {_MAX_DIGITS}")
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _grid_step(text: str) -> Fraction:
    step = _rational(text)
    if not 0 < step <= 1:
        raise argparse.ArgumentTypeError(f"grid step must satisfy 0 < step <= 1, got {text!r}")
    return step


def _count(text: str) -> int:
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    raise argparse.ArgumentTypeError(f"count must be >= 0, got {text!r}")


def _seed(text: str) -> int:
    """A seed in [0, 2**64): the hash reads it mod 2**64, so no two in range share a stream."""
    try:
        if 0 <= (value := int(text)) < 2**64:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"a seed is an integer in [0, 2**64), got {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty horizon list")
    return values


# The most (p, q) points one command may visit, the most measures it may
# build, and the most (measure, point) runs of the master inequality it may
# make: three measures at every point of the finest grid.  Each count is taken
# before anything is built, so a larger request is refused at once instead of
# running (and filling memory) for hours.  So is the most label sites a game
# or sweep may hash, counted as one pass from the largest horizon would hash
# them, points x samples x (largest horizon)^2 (README sweep: 4.2e8); the
# game's ascending batches hash at most 8/3 of that, so the cap admits at most
# about 2.7e10 hashed sites, some two and a half minutes at the 2e8 sites a
# second they hash near p = q = 0 (2-CPU Xeon VM).  And so is the most site
# updates a row command may ask, --width x --steps (README: 2e7).  A step
# costs about 22 us whatever its width and then some 4 ns a site (2-CPU Xeon
# VM: 29 us at width 1, 58 us at 10**4, 415 us at 10**5), so a narrower row
# counts as ``_STEP_SITES`` sites a step: 10**10 site updates are
# then at most about a minute of steps at any width.
_MAX_POINTS = 100_000
_MAX_MEASURES = 1_000
_MAX_RUNS = 300_000
_MAX_SITES = 10**10
_STEP_SITES = 5_000

# A row command's memory, counted before any row is built: its row arrays peak
# below 50 traced bytes a site (tracemalloc, width 10**6: simulate 35,
# verify stationary 19), and simulate keeps about 1 400 bytes of records a step
# (JSON; 480 as CSV).  The cap of 10**9 bytes, an eighth of an 8 GB VM, leaves
# the rest to the interpreter, numpy and whatever else shares the machine, and
# admits rows of 2e7 sites (README: 2e4).
_SITE_BYTES = 50
_STEP_BYTES = 1_400
_MAX_ROW_BYTES = 10**9


def _check_points(count: int, what: str, noun: str = "points", cap: Optional[int] = None) -> None:
    """Refuse, naming ``count``, more than ``cap`` (default ``_MAX_POINTS``) of
    ``noun``."""
    cap = _MAX_POINTS if cap is None else cap
    if count > cap:
        raise ValueError(f"{what} has {count} {noun}, more than the {cap} that one run may visit")


def _check_rows(cfg: RunConfig, what: str, step_bytes: int = 0) -> None:
    """Refuse more than ``_MAX_SITES`` site updates, --width (at least
    ``_STEP_SITES``) x --steps, and more than ``_MAX_ROW_BYTES`` of rows and of
    ``step_bytes`` a step."""
    narrow = f" (at least {_STEP_SITES} sites a step)" if cfg.width < _STEP_SITES else ""
    _check_points(max(cfg.width, _STEP_SITES) * cfg.steps,
                  f"{what}: --width {cfg.width} x --steps {cfg.steps}{narrow}",
                  "site updates", _MAX_SITES)
    _check_points(_SITE_BYTES * cfg.width + step_bytes * cfg.steps,
                  f"{what}: --width {cfg.width}" + (f" and --steps {cfg.steps}" if step_bytes else ""),
                  "bytes of rows", _MAX_ROW_BYTES)


def _measure_count(cfg: RunConfig) -> int:
    """How many measures ``--measures`` samples: the three point masses and
    two per family; refused above ``_MAX_MEASURES`` before any is built."""
    count = 3 + 2 * cfg.measures
    _check_points(count, f"verify {cfg.check}: --measures {cfg.measures}", "measures",
                  _MAX_MEASURES)
    return count


def _axis(start: Fraction, stop: Fraction, step: Fraction) -> tuple[Fraction, ...]:
    """start, start+step, ... up to and including stop, exactly; needs step > 0."""
    values = []
    x = start
    while x <= stop:
        values.append(x)
        x += step
    return tuple(values)


def _grid_spec(text: str) -> tuple[Fraction, ...]:
    """start:stop:step, all exact rationals, endpoints inclusive.

    Only the values in [0, 1] are kept: no (p, q) point with p or q outside it
    is in the region.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid spec must be start:stop:step, got {text!r}")
    start, stop, step = (_rational(tok) for tok in parts)
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
    first = start + max(0, math.ceil(-start / step)) * step  # the first value >= 0
    last = min(stop, Fraction(1))
    count = (last - first) // step + 1 if first <= last else 0  # len of the axis
    try:
        _check_points(count, f"grid spec {text!r}", "values in [0, 1]")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return _axis(first, last, step)


def _artifact_version() -> str:
    """The installed ``artifact`` distribution's version, or "unknown".

    Reads the layouts that an install leaves in a ``sys.path`` directory: the
    first ``.dist-info`` or ``.egg-info`` entry, in ``sys.path`` order, whose
    name up to its first "-" is ``artifact`` in any case (the rule and order of
    ``importlib.metadata``'s path finder), and the Version header of the first
    nonempty one of its METADATA, its PKG-INFO and, for an ``.egg-info`` file,
    the entry itself.  Unlike ``importlib.metadata`` it looks inside no zip
    file on ``sys.path`` and asks no ``sys.meta_path`` finder, and a
    distribution without a Version header reads "unknown", not None.
    """
    for entry in sys.path:
        try:
            names = os.listdir(entry or ".")
        except OSError:
            continue
        infos = [os.path.join(entry, name) for name in names
                 if name.lower().endswith((".dist-info", ".egg-info"))
                 and name.lower().rpartition(".")[0].partition("-")[0] == "artifact"]
        if infos:
            break
    else:
        return "unknown"
    text = ""
    for path in (os.path.join(infos[0], "METADATA"), os.path.join(infos[0], "PKG-INFO"), infos[0]):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            continue
        if text:
            break
    for line in text.partition("\n\n")[0].splitlines():  # the headers
        key, sep, value = line.partition(":")
        if sep and key.lower() == "version":
            return value.strip()
    return "unknown"


def _csv_text(fieldnames: Sequence[str], rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ simulate

def cmd_simulate(cfg: RunConfig) -> int:
    from .pca import Configuration, ModelSpec, SeededStream, trajectory

    # a row without ? steps as the binary automaton, so --model only checks --init
    init_symbol = _INIT_SYMBOL[cfg.init]
    if cfg.model == "binary" and init_symbol is EnvSymbol.QMARK:
        raise ValueError("simulate: --init qmarks needs --model envelope")
    _check_rows(cfg, "simulate", _STEP_BYTES)
    model = ModelSpec(cfg.offset, Params(cfg.p, cfg.q))
    init = Configuration.constant(cfg.width, init_symbol)
    result = trajectory(init, model, cfg.steps, SeededStream(cfg.seed))
    rows = [{"t": s.t, "width": s.width, "count0": s.count0,
             "countQ": s.countQ, "count1": s.count1} for s in result.rows]
    if cfg.format == "json":
        _emit(_json_text(rows), cfg.out)
    else:
        _emit(_csv_text(("t", "width", "count0", "countQ", "count1"), rows), cfg.out)
    return 0


# ------------------------------------------------------------------ game

def _param_axis(single: Optional[Fraction], grid: Optional[tuple[Fraction, ...]],
                flag: str) -> tuple[Fraction, ...]:
    if single is not None and grid is not None:
        raise ValueError(f"game: give --{flag} or --{flag}-grid, not both")
    if grid is not None:
        return grid
    if single is None:
        raise ValueError(f"game: --{flag} or --{flag}-grid is required")
    return (single,)


def cmd_game(cfg: RunConfig) -> int:
    from .core import GameVersion
    from .game import check_request, draw_fraction
    from .pca import SeededStream

    version = GameVersion[cfg.version.upper()]
    ps = _param_axis(cfg.p, cfg.p_grid, "p")
    qs = _param_axis(cfg.q, cfg.q_grid, "q")
    _check_points(len(ps) * len(qs), "game: the (p, q) grid")
    # corners outside the simplex are skipped; each Params lives only while its point runs
    points = [(p, q) for p in ps for q in qs if 0 <= p and 0 <= q and p + q <= 1]
    if not points:
        if len(ps) == 1 and len(qs) == 1:
            raise ValueError(f"game: (p={ps[0]}, q={qs[0]}) is outside the region")
        raise ValueError("game: no requested (p, q) point lies in the region")
    check_request(cfg.horizons, cfg.samples)
    top = max(cfg.horizons)
    _check_points(len(points) * cfg.samples * top**2, f"game: --samples {cfg.samples} to horizon "
                  f"{top} at {len(points)} (p, q) point(s)", "label sites", _MAX_SITES)
    rows = [est.to_json_dict() for p, q in points
            for est in draw_fraction(version, Params(p, q), cfg.horizons, cfg.samples,
                                     SeededStream(cfg.seed))]
    if cfg.format == "json":
        _emit(_json_text(rows), cfg.out)
    else:
        _emit(_csv_text(("version", "p", "q", "horizon", "samples", "draw_fraction",
                         "ci_low", "ci_high", "seed"), rows), cfg.out)
    return 0


# ------------------------------------------------------------------ verify

def _verify_lemmas(cfg: RunConfig) -> dict:
    from .orders import verify_lemma

    if cfg.grid == "coarse":
        points = [Params(p, q) for p, q in _COARSE_GRID]
    else:
        axis = _axis(Fraction(0), Fraction(1), Fraction(1, 6))
        points = [Params(p, q) for p in axis for q in axis if p + q <= 1]
    reports = [verify_lemma(which, params).to_json_dict()
               for params in points for which in (1, 2)]
    return {"check": "lemmas", "grid": cfg.grid, "points": len(points), "reports": reports,
            "pass": all(r["violation_count"] == 0 for r in reports)}


def _verify_kernel(cfg: RunConfig) -> dict:
    from .core import GameVersion, kernel_correspondence

    versions = list(GameVersion) if cfg.version == "all" else [GameVersion[cfg.version.upper()]]
    params = Params(cfg.p, cfg.q)
    reports = [kernel_correspondence(v, params).to_json_dict() for v in versions]
    return {"check": "kernel", "reports": reports, "pass": all(r["passed"] for r in reports)}


def _verify_formulas(cfg: RunConfig) -> dict:
    from .measures import CLOSED_FORM_IDS, FORMULA_GRID, closed_form, frac_str, sampled_measures

    _measure_count(cfg)
    mus = sampled_measures(cfg.measures, cfg.seed)
    # points outside measures, so each point and all it keeps is freed when done
    failures = [[] for _ in mus]
    for p, q in FORMULA_GRID:
        params = Params(p, q)
        for mu, found in zip(mus, failures):
            for fid in CLOSED_FORM_IDS:
                res = closed_form(fid, mu, params)
                if not res.passed:
                    found.append({"formula": fid, "measure": mu.name,
                                  "p": frac_str(params.p), "q": frac_str(params.q),
                                  "value": frac_str(res.value),
                                  "pushforward": frac_str(res.pushforward)})
    failures = [f for found in failures for f in found]
    return {"check": "formulas", "measures": len(mus), "points": len(FORMULA_GRID),
            "formulas": list(CLOSED_FORM_IDS),
            "comparisons": len(mus) * len(FORMULA_GRID) * len(CLOSED_FORM_IDS),
            "failures": failures, "pass": not failures}


def _verify_tables(cfg: RunConfig) -> dict:
    from .measures import sampled_measures, verify_table_inequality

    _measure_count(cfg)
    mus = sampled_measures(cfg.measures, cfg.seed)
    reports = [verify_table_inequality(which, mu).to_json_dict()
               for mu in mus for which in ("ineq_1", "ineq_2")]
    return {"check": "tables", "measures": len(mus), "reports": reports,
            "pass": all(r["pass"] for r in reports)}


def _verify_weights(cfg: RunConfig) -> dict:
    from .measures import frac_str, sampled_measures, verify_master_inequality

    n = 1 // cfg.grid  # the axis is 0, step, ..., n * step; p + q <= 1 iff i + j <= n
    count = (n + 1) * (n + 2) // 2 - 1
    _check_points(count, f"verify weights: grid step {cfg.grid}")
    runs = _measure_count(cfg) * count
    _check_points(runs, f"verify weights: --measures {cfg.measures} at {count} points", "runs",
                  _MAX_RUNS)
    mus = sampled_measures(cfg.measures, cfg.seed)
    axis = _axis(Fraction(0), Fraction(1), cfg.grid)
    points = [(p, q) for p in axis for q in axis if 0 < p + q <= 1]
    # the least overall slack so far, as its numerator over its positive denominator
    min_num, min_den = None, 1
    # points outside measures, so each point and all it keeps is freed when done
    failures = [[] for _ in mus]
    for p, q in points:
        params = Params(p, q)
        for mu, found in zip(mus, failures):
            rep = verify_master_inequality(mu, params)
            if min_num is None or rep.nums[-1] * min_den < min_num * rep.den:
                min_num, min_den = rep.nums[-1], rep.den
            if not rep.passed:
                found.append(rep.to_json_dict())
    failures = [f for found in failures for f in found]
    return {"check": "weights", "measures": len(mus), "points": len(points),
            "runs": runs, "min_overall_slack": frac_str(Fraction(min_num, min_den)),
            "failures": failures, "pass": not failures}


def _verify_stationary(cfg: RunConfig) -> dict:
    from .measures import empirical_measure, stationary_conclusion_check
    from .pca import ModelSpec, SeededStream, last_row

    params = Params(cfg.p, cfg.q)
    model = ModelSpec(cfg.offset, params)
    if cfg.steps < 1:
        raise ValueError("steps must be >= 1")
    _check_rows(cfg, "verify stationary")
    # only the last row is read, so no per-row counts, and ``last_row`` gets it
    # exactly from a short window of the last steps when that window settles
    row = last_row(model, cfg.width, cfg.steps, SeededStream(cfg.seed))
    rep = stationary_conclusion_check(params, empirical_measure(row))
    report = rep.to_json_dict()
    report.update({"check": "stationary", "width": cfg.width, "steps": cfg.steps,
                   "seed": cfg.seed, "pass": True})  # informational: no threshold
    return report


_VERIFY_DISPATCH = {
    "lemmas": _verify_lemmas,
    "kernel": _verify_kernel,
    "formulas": _verify_formulas,
    "tables": _verify_tables,
    "weights": _verify_weights,
    "stationary": _verify_stationary,
}


def cmd_verify(cfg: RunConfig) -> int:
    report = _VERIFY_DISPATCH[cfg.check](cfg)
    report.setdefault("seed", getattr(cfg, "seed", None))
    report["artifact_version"] = _artifact_version()
    _emit(_json_text(report), cfg.out)
    return 0 if report["pass"] else 1


# ------------------------------------------------------------------ parser

def _add_output_flags(sp: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """--out and --format; the first of ``formats`` is the default."""
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--format", choices=formats, default=formats[0])


def _add_game_flags(sp: argparse.ArgumentParser, grids_required: bool) -> None:
    sp.add_argument("--version", choices=("v1", "v2", "v3", "v4"), default="v1")
    sp.add_argument("--p", type=_rational, default=None)
    sp.add_argument("--q", type=_rational, default=None)
    sp.add_argument("--p-grid", type=_grid_spec, default=None,
                    required=grids_required, metavar="START:STOP:STEP")
    sp.add_argument("--q-grid", type=_grid_spec, default=None,
                    metavar="START:STOP:STEP")
    sp.add_argument("--horizons", type=_int_list, default=(10, 50, 100))
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_flags(sp, ("csv", "json"))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``ValueError``, which ``main``
    prints as one ``error:`` line, instead of printing a usage block."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="percolab",
        description="Percolation-game lattice dynamics: simulate, solve, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory, emit per-step densities")
    sim.add_argument("--model", choices=("envelope", "binary"), default="envelope",
                     help="binary only rejects --init qmarks: a row without ? steps "
                          "as the binary automaton under either")
    sim.add_argument("--p", type=_rational, required=True)
    sim.add_argument("--q", type=_rational, required=True)
    sim.add_argument("--init", choices=sorted(_INIT_SYMBOL), default="qmarks")
    sim.add_argument("--width", type=_count, default=1000)
    sim.add_argument("--steps", type=_count, default=100)
    sim.add_argument("--offset", type=int, default=0,
                     help="neighbourhood offset i, window {i, i+1, i+2}")
    sim.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_flags(sim, ("csv", "json"))
    sim.set_defaults(func=cmd_simulate)

    game = sub.add_parser("game", help="draw-fraction estimates over horizons")
    _add_game_flags(game, grids_required=False)
    game.set_defaults(func=cmd_game)

    sweep = sub.add_parser("sweep", help="game over a (p, q) parameter grid")
    _add_game_flags(sweep, grids_required=True)
    sweep.set_defaults(func=cmd_game)

    verify = sub.add_parser("verify", help="exact verification suites (JSON reports)")
    checks = verify.add_subparsers(dest="check", required=True)

    lem = checks.add_parser("lemmas", help="kernel monotonicity, all 729 pairs per point")
    lem.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    _add_output_flags(lem, ("json",))

    ker = checks.add_parser("kernel", help="game classification law vs local rule")
    ker.add_argument("--version", choices=("v1", "v2", "v3", "v4", "all"), default="all")
    ker.add_argument("--p", type=_rational, required=True)
    ker.add_argument("--q", type=_rational, required=True)
    _add_output_flags(ker, ("json",))

    form = checks.add_parser("formulas", help="closed forms vs brute-force pushforward")
    form.add_argument("--measures", type=_count, default=5,
                      help="random measures per family (plus 3 point masses)")
    form.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_flags(form, ("json",))

    tab = checks.add_parser("tables", help="window-table structure and inequalities")
    tab.add_argument("--measures", type=_count, default=5)
    tab.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_flags(tab, ("json",))

    wts = checks.add_parser("weights", help="master inequality across measures x (p,q)")
    wts.add_argument("--measures", type=_count, default=3)
    wts.add_argument("--grid", type=_grid_step, default=Fraction(1, 4),
                     help="(p, q) grid step, exact rational in (0, 1]")
    wts.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_flags(wts, ("json",))

    sta = checks.add_parser("stationary", help="long-run empirical stationarity gauge")
    sta.add_argument("--p", type=_rational, required=True)
    sta.add_argument("--q", type=_rational, required=True)
    sta.add_argument("--width", type=_count, default=10_000)
    sta.add_argument("--steps", type=_count, default=1000)
    sta.add_argument("--offset", type=int, default=0)
    sta.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_flags(sta, ("json",))

    verify.set_defaults(func=cmd_verify)
    return parser


# The layers each command reads besides core, by its command words: ``game``
# (which imports pca and numpy) for the commands that step rows, ``measures``
# and ``orders`` for the checks that read them.  ``verify kernel`` reads only
# core.  ``simulate`` and ``verify stationary`` read pca alone, but importing
# game for them too measured faster: their row loops ran about 5% slower
# without it (mc_fast_decay, 2-CPU Xeon VM), more than the 1.3 ms of set-up
# it costs.
_COMMAND_LAYERS = {
    ("simulate",): (".game",), ("game",): (".game",), ("sweep",): (".game",),
    ("verify", "stationary"): (".game", ".measures"),
    ("verify", "lemmas"): (".orders",), ("verify", "formulas"): (".measures",),
    ("verify", "tables"): (".measures",), ("verify", "weights"): (".measures",),
}


def _layers(argv: Sequence[str]) -> tuple[str, ...]:
    """The ``_COMMAND_LAYERS`` of the command ``argv`` names, if any.  Neither
    ``percolab`` nor ``verify`` takes an option before its command word, so
    the command words are the first words that are not options."""
    words = tuple(arg for arg in argv if not arg.startswith("-"))
    return _COMMAND_LAYERS.get(words[:1]) or _COMMAND_LAYERS.get(words[:2], ())


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # imported before the parser is built, so that the import counts as
    # start-up and not as the command's run; the commands' own imports from
    # these layers then cost a dictionary lookup
    for layer in _layers(argv):
        importlib.import_module(layer, __package__)
    try:
        cfg = build_parser().parse_args(argv)
        return cfg.func(cfg)
    except (ValueError, OSError, MemoryError) as exc:  # numpy's MemoryError names the size
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
