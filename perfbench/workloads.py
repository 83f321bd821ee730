"""The benchmark's workloads: percolab command lines made from a seed, the
nominal work each command requests, and the checks on each command's output.

Seed 0 gives the README's own seeds (``simulate --seed 1``, ``game --seed 7``,
the CLI default 1729 for ``verify``); seed n shifts each of them by n.
"""

from __future__ import annotations

import csv
import io
import json
import random

# Why each workload exists; BENCHMARK.json repeats these one-liners.
WHY = {
    "mc_fast_decay": "p=q=1/4: ? and D die near the frontier, so skipping resolved work shows",
    "mc_slow_decay": "p=q=1/100: samples stay live to the base, so pruning has nothing to skip",
    "exact_grid": "many (p,q) points, few measures: bound by per-point pushforward kernel builds",
    "exact_measures": "few (p,q) points, many measures: measure build, warm dot products, parsing",
}

# Work counted by ``work``: nominal site updates on mc_*, exact checks on exact_*.
UNIT = {"mc_fast_decay": "site_updates", "mc_slow_decay": "site_updates",
        "exact_grid": "exact_checks", "exact_measures": "exact_checks"}

HORIZONS = "50,100,200"
SAMPLES = "1000"


def _kernel_point(seed: int) -> tuple[str, str]:
    """The README's (1/3, 1/5) at seed 0, else a seeded rational point with p+q <= 1."""
    if seed == 0:
        return "1/3", "1/5"
    rng = random.Random(seed)
    den = rng.randint(2, 12)
    p = rng.randint(0, den)
    q = rng.randint(0, den - p)
    return f"{p}/{den}", f"{q}/{den}"


def commands(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's percolab argv lists, in the order they run."""
    sim, game, ver = str(1 + seed), str(7 + seed), str(1729 + seed)
    if workload == "mc_fast_decay":
        pq = ("--p", "1/4", "--q", "1/4")
        return [
            ("simulate", "--model", "envelope", *pq, "--init", "qmarks",
             "--width", "10000", "--steps", "1000", "--seed", sim),
            ("game", "--version", "v1", *pq, "--horizons", HORIZONS,
             "--samples", SAMPLES, "--seed", game),
            ("verify", "stationary", *pq, "--width", "10000", "--steps", "1000",
             "--seed", ver),
        ]
    if workload == "mc_slow_decay":
        pq = ("--p", "1/100", "--q", "1/100")
        return [
            ("simulate", "--model", "envelope", *pq, "--init", "qmarks", "--offset", "-1",
             "--width", "10000", "--steps", "1000", "--seed", sim),
            ("game", "--version", "v3", *pq, "--horizons", HORIZONS,
             "--samples", SAMPLES, "--seed", game),
        ]
    if workload == "exact_grid":
        p, q = _kernel_point(seed)
        return [
            ("verify", "kernel", "--version", "all", "--p", p, "--q", q),
            ("verify", "lemmas", "--grid", "fine"),
            ("verify", "formulas", "--measures", "1", "--seed", ver),
            ("verify", "weights", "--measures", "1", "--grid", "1/3", "--seed", ver),
        ]
    if workload == "exact_measures":
        return [
            ("verify", "weights", "--measures", "20", "--grid", "1/2", "--seed", ver),
            ("verify", "tables", "--measures", "20", "--seed", ver),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def work(argv, stdout: str) -> int:
    """Nominal work of one command: width*steps for a trajectory, samples*h^2
    per game horizon, or the exact checks its JSON report says it ran."""
    if argv[0] == "simulate" or argv[:2] == ("verify", "stationary"):
        return int(_flag(argv, "--width")) * int(_flag(argv, "--steps"))
    if argv[0] == "game":
        return int(_flag(argv, "--samples")) * sum(
            int(h) ** 2 for h in _flag(argv, "--horizons").split(","))
    report = json.loads(stdout)
    check = report["check"]
    if check == "formulas":
        return report["comparisons"]
    if check == "weights":
        return report["runs"]
    if check == "lemmas":
        return sum(r["total_pairs"] for r in report["reports"])
    if check == "kernel":
        return sum(r["comparisons"] for r in report["reports"])
    if check == "tables":
        return len(report["reports"])
    raise ValueError(f"no work count for verify {check}")


def check_output(argv, stdout: str) -> list[str]:
    """Problems with one command's output; empty when it is correct."""
    problems = []
    try:
        if argv[0] == "simulate":
            rows = _csv_rows(stdout)
            if len(rows) != int(_flag(argv, "--steps")) + 1:
                problems.append(f"simulate printed {len(rows)} rows")
            for row in rows:
                if int(row["count0"]) + int(row["countQ"]) + int(row["count1"]) != int(row["width"]):
                    problems.append(f"simulate row t={row['t']}: counts do not sum to width")
                    break
        elif argv[0] == "game":
            rows = _csv_rows(stdout)
            horizons = [int(h) for h in _flag(argv, "--horizons").split(",")]
            if [int(r["horizon"]) for r in rows] != horizons:
                problems.append("game rows do not follow the requested horizons")
            draws = [float(r["draw_fraction"]) for r in rows]
            if any(later > earlier for earlier, later in zip(draws, draws[1:])):
                problems.append(f"game draw fractions increase with horizon: {draws}")
        else:
            report = json.loads(stdout)
            if report.get("pass") is not True:
                problems.append(f"verify {argv[1]} reports pass={report.get('pass')!r}")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
