"""Command-line front end: reproducible simulations, game sweeps, verification reports.

Parameters are parsed as exact rationals ("1/5" or "0.2"), the seed defaults to a
fixed constant, and outputs are assembled in deterministic order, so identical
command lines produce byte-identical CSV/JSON.  ``verify`` subcommands exit 0 iff
every check they ran passed.

numpy and the layers built on it (``pca``, ``game``) are imported only for the
commands that step rows: ``simulate``, ``game``, ``sweep``, ``verify kernel``
and ``verify stationary``.  The other ``verify`` checks are exact arithmetic
and run without numpy.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import sys
from fractions import Fraction
from importlib import metadata
from typing import Optional, Sequence

from .core import EnvSymbol, Params, as_fraction
from .measures import (
    CLOSED_FORM_IDS,
    FORMULA_GRID,
    closed_form,
    empirical_measure,
    frac_str,
    pushforward_cylinder,
    sampled_measures,
    stationary_conclusion_check,
    verify_master_inequality,
    verify_table_inequality,
)
from .orders import verify_lemma

DEFAULT_SEED = 1729

# RunConfig is the parsed argparse namespace: one flat bag of flags per invocation.
RunConfig = argparse.Namespace

_INIT_SYMBOL = {"qmarks": EnvSymbol.QMARK, "zeros": EnvSymbol.ZERO, "ones": EnvSymbol.ONE}

_COARSE_GRID = ((Fraction(1, 5), Fraction(3, 10)), (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                (Fraction(1, 100), Fraction(1, 100)))


def _rational(text: str) -> Fraction:
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
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {text!r}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty horizon list")
    return values


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
    return _axis(first, min(stop, Fraction(1)), step)


def _artifact_version() -> str:
    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:
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
    from .pca import Alphabet, Boundary, Configuration, ModelSpec, SeededStream, trajectory

    alphabet = Alphabet.ENVELOPE if cfg.model == "envelope" else Alphabet.BINARY
    init_symbol = _INIT_SYMBOL[cfg.init]
    if alphabet is Alphabet.BINARY and init_symbol is EnvSymbol.QMARK:
        raise ValueError("simulate: --init qmarks needs --model envelope")
    params = Params(cfg.p, cfg.q)
    model = ModelSpec(alphabet, cfg.offset, params)
    init = Configuration.constant(cfg.width, init_symbol, Boundary.CYCLIC)
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
    from .game import GameVersion, draw_fraction
    from .pca import SeededStream

    version = GameVersion[cfg.version.upper()]
    ps = _param_axis(cfg.p, cfg.p_grid, "p")
    qs = _param_axis(cfg.q, cfg.q_grid, "q")
    # grid corners outside the simplex are just skipped
    points = [Params(p, q) for p in ps for q in qs if 0 <= p and 0 <= q and p + q <= 1]
    if not points:
        if len(ps) == 1 and len(qs) == 1:
            raise ValueError(f"game: (p={ps[0]}, q={qs[0]}) is outside the region")
        raise ValueError("game: no requested (p, q) point lies in the region")
    rows = [est.to_json_dict() for params in points
            for est in draw_fraction(version, params, cfg.horizons, cfg.samples,
                                     SeededStream(cfg.seed))]
    if cfg.format == "json":
        _emit(_json_text(rows), cfg.out)
    else:
        _emit(_csv_text(("version", "p", "q", "horizon", "samples", "draw_fraction",
                         "ci_low", "ci_high", "seed"), rows), cfg.out)
    return 0


# ------------------------------------------------------------------ verify

def _verify_lemmas(cfg: RunConfig) -> tuple[dict, bool]:
    if cfg.grid == "coarse":
        points = [Params(p, q) for p, q in _COARSE_GRID]
    else:
        axis = _axis(Fraction(0), Fraction(1), Fraction(1, 6))
        points = [Params(p, q) for p in axis for q in axis if p + q <= 1]
    reports = [verify_lemma(which, params).to_json_dict()
               for params in points for which in (1, 2)]
    passed = all(r["violation_count"] == 0 for r in reports)
    return {"check": "lemmas", "grid": cfg.grid, "points": len(points),
            "reports": reports, "pass": passed}, passed


def _verify_kernel(cfg: RunConfig) -> tuple[dict, bool]:
    from .game import GameVersion, kernel_correspondence

    versions = list(GameVersion) if cfg.version == "all" else [GameVersion[cfg.version.upper()]]
    params = Params(cfg.p, cfg.q)
    reports = [kernel_correspondence(v, params).to_json_dict() for v in versions]
    passed = all(r["passed"] for r in reports)
    return {"check": "kernel", "reports": reports, "pass": passed}, passed


def _verify_formulas(cfg: RunConfig) -> tuple[dict, bool]:
    mus = sampled_measures(cfg.measures, cfg.seed)
    failures = []
    comparisons = 0
    for mu in mus:
        for params in FORMULA_GRID:
            for fid in CLOSED_FORM_IDS:
                res = closed_form(fid, mu, params)
                # a partially specified entry's value is the pushforward itself
                push = (pushforward_cylinder(mu, fid, params) if res.fully_specified
                        else res.value)
                comparisons += 1
                if res.value != push or not res.remainders_nonnegative:
                    failures.append({"formula": fid, "measure": mu.name,
                                     "p": frac_str(params.p), "q": frac_str(params.q),
                                     "value": frac_str(res.value),
                                     "pushforward": frac_str(push)})
    passed = not failures
    return {"check": "formulas", "measures": len(mus), "points": len(FORMULA_GRID),
            "formulas": list(CLOSED_FORM_IDS), "comparisons": comparisons,
            "failures": failures, "pass": passed}, passed


def _verify_tables(cfg: RunConfig) -> tuple[dict, bool]:
    mus = sampled_measures(cfg.measures, cfg.seed)
    reports = [verify_table_inequality(which, mu).to_json_dict()
               for mu in mus for which in ("ineq_1", "ineq_2")]
    passed = all(r["pass"] for r in reports)
    return {"check": "tables", "measures": len(mus), "reports": reports,
            "pass": passed}, passed


def _verify_weights(cfg: RunConfig) -> tuple[dict, bool]:
    mus = sampled_measures(cfg.measures, cfg.seed)
    axis = _axis(Fraction(0), Fraction(1), cfg.grid)
    points = [Params(p, q) for p in axis for q in axis if 0 < p + q <= 1]
    runs = 0
    min_slack = None
    failures = []
    for mu in mus:
        for params in points:
            rep = verify_master_inequality(mu, params)
            runs += 1
            if min_slack is None or rep.overall_slack < min_slack:
                min_slack = rep.overall_slack
            if not rep.passed:
                failures.append(rep.to_json_dict())
    passed = not failures
    return {"check": "weights", "measures": len(mus), "points": len(points),
            "runs": runs, "min_overall_slack": frac_str(min_slack),
            "failures": failures, "pass": passed}, passed


def _verify_stationary(cfg: RunConfig) -> tuple[dict, bool]:
    from .pca import Alphabet, Boundary, Configuration, ModelSpec, SeededStream, step

    params = Params(cfg.p, cfg.q)
    model = ModelSpec(Alphabet.ENVELOPE, cfg.offset, params)
    if cfg.steps < 1:
        raise ValueError("steps must be >= 1")
    row = Configuration.constant(cfg.width, EnvSymbol.QMARK, Boundary.CYCLIC)
    stream = SeededStream(cfg.seed)
    for t in range(cfg.steps):  # only the last row is read, so no per-row counts
        row = step(row, model, stream, t)
    rep = stationary_conclusion_check(params, empirical_measure(row, cfg.order))
    report = rep.to_json_dict()
    report.update({"check": "stationary", "width": cfg.width, "steps": cfg.steps,
                   "seed": cfg.seed, "pass": True})  # informational: no threshold
    return report, True


_VERIFY_DISPATCH = {
    "lemmas": _verify_lemmas,
    "kernel": _verify_kernel,
    "formulas": _verify_formulas,
    "tables": _verify_tables,
    "weights": _verify_weights,
    "stationary": _verify_stationary,
}


def cmd_verify(cfg: RunConfig) -> int:
    report, passed = _VERIFY_DISPATCH[cfg.check](cfg)
    report.setdefault("seed", getattr(cfg, "seed", None))
    report["artifact_version"] = _artifact_version()
    _emit(_json_text(report), cfg.out)
    return 0 if passed else 1


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
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(sp, ("csv", "json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percolab",
        description="Percolation-game lattice dynamics: simulate, solve, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory, emit per-step densities")
    sim.add_argument("--model", choices=("envelope", "binary"), default="envelope")
    sim.add_argument("--p", type=_rational, required=True)
    sim.add_argument("--q", type=_rational, required=True)
    sim.add_argument("--init", choices=sorted(_INIT_SYMBOL), default="qmarks")
    sim.add_argument("--width", type=int, default=1000)
    sim.add_argument("--steps", type=int, default=100)
    sim.add_argument("--offset", type=int, default=0,
                     help="neighbourhood offset i, window {i, i+1, i+2}")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    form.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(form, ("json",))

    tab = checks.add_parser("tables", help="window-table structure and inequalities")
    tab.add_argument("--measures", type=_count, default=5)
    tab.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(tab, ("json",))

    wts = checks.add_parser("weights", help="master inequality across measures x (p,q)")
    wts.add_argument("--measures", type=_count, default=3)
    wts.add_argument("--grid", type=_grid_step, default=Fraction(1, 4),
                     help="(p, q) grid step, exact rational in (0, 1]")
    wts.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(wts, ("json",))

    sta = checks.add_parser("stationary", help="long-run empirical stationarity gauge")
    sta.add_argument("--p", type=_rational, required=True)
    sta.add_argument("--q", type=_rational, required=True)
    sta.add_argument("--width", type=int, default=10_000)
    sta.add_argument("--steps", type=int, default=1000)
    sta.add_argument("--offset", type=int, default=0)
    sta.add_argument("--order", type=int, default=6)
    sta.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(sta, ("json",))

    verify.set_defaults(func=cmd_verify)
    return parser


# The commands that step rows, by their command words.
_ROW_COMMANDS = {("simulate",), ("game",), ("sweep",), ("verify", "kernel"),
                 ("verify", "stationary")}


def _steps_rows(argv: Sequence[str]) -> bool:
    """Whether ``argv`` names one of ``_ROW_COMMANDS``.  Neither ``percolab``
    nor ``verify`` takes an option before its command word, so the command
    words are the first words that are not options."""
    words = tuple(arg for arg in argv if not arg.startswith("-"))
    return words[:1] in _ROW_COMMANDS or words[:2] in _ROW_COMMANDS


def _settle_heap() -> None:
    """Allocate and free one untouched 8 MB block before any work.

    The row loops allocate and free numpy temporaries of about 80 KB per row.
    glibc's malloc hands the top of its heap back to the OS once 128 KB of it
    is free, and faults it in again for the next row, unless freeing a larger
    mmap'd block has already raised those thresholds; whether one has depends
    on what importing happened to allocate.  Freeing one 8 MB block raises them
    to 8 and 16 MB, so ``simulate --width 10000 --steps 1000`` takes about
    5 200 minor page faults instead of 47 700, whatever the import history.
    """
    import numpy as np

    np.empty(1 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if _steps_rows(argv):
        # imported before the parser is built, so that the import counts as
        # start-up and not as the command's run; the commands' own imports
        # from these layers then cost a dictionary lookup
        importlib.import_module(".game", __package__)  # imports pca and numpy too
        _settle_heap()
    cfg = build_parser().parse_args(argv)
    try:
        return cfg.func(cfg)
    except (ValueError, OSError, MemoryError) as exc:  # numpy's MemoryError names the size
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
