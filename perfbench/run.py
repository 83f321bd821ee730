"""percolab benchmark: run one workload's CLI commands as a user does, check
every output, and print the end-to-end or (with --trace 1) per-layer metrics.

Usage, from the root of a percolab checkout:

    python3 perfbench/run.py --workload mc_fast_decay --seed 0 --seconds 25 --trace 0

Each command runs in a fresh interpreter (cold ``lru_cache``s, the way the
``percolab`` console script runs), one child at a time, with BLAS/OpenMP
pinned to one thread, right after a fixed reference child (calibrate.py)
whose time gives the round's speed factor.  Times are reported in seconds at
reference speed.  Rounds over the workload's commands repeat until the next
would end after --seconds.  With --trace 0 the children run untraced and the
end-to-end metrics are reported; with --trace 1 untraced and traced rounds
alternate (at least two traced), and the per-layer metrics come from the
traced ones.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metric names and units
are the ones BENCHMARK.json lists.  A full record with provenance goes to
``perfbench/results/``.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from child import REPORT_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

DEFAULT_SEED = 0          # the seed whose outputs are pinned in reference.json
REF_NOMINAL_S = 0.23      # calibrate.py's time at reference speed (2-CPU Xeon VM)
COMMAND_TIMEOUT_S = 60    # a hang becomes a counted failure, not a stuck run
RUN_DEADLINE_S = 150      # no new command starts after this; runs must end < 180 s
MIN_TRACED_ROUNDS = 2     # the traced counts must repeat exactly across two rounds

CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


@dataclass
class Outcome:
    """One command run in one child process."""

    argv: tuple[str, ...]
    traced: bool
    wall_s: float
    stdout: bytes = b""
    setup_s: float | None = None
    maxrss_kb: int | None = None
    trace: dict | None = None
    ref_s: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def _run_child(cmd: list[str], deadline: float):
    """Run one child to completion: (process or None if it ran out of time,
    spawn time, wall seconds)."""
    timeout = min(COMMAND_TIMEOUT_S, deadline - time.monotonic())
    spawned = time.monotonic()
    if timeout <= 0:
        return None, spawned, 0.0
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=timeout, env=CHILD_ENV, cwd=ROOT)
    except subprocess.TimeoutExpired:
        proc = None
    return proc, spawned, time.monotonic() - spawned


def run_command(argv: tuple[str, ...], traced: bool, deadline: float) -> Outcome:
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
           "trace" if traced else "plain", "--", *argv]
    proc, spawned, wall = _run_child(cmd, deadline)
    if proc is None:
        return Outcome(argv, traced, wall, problems=[
            f"no exit within the time left ({COMMAND_TIMEOUT_S} s per command, "
            f"{RUN_DEADLINE_S} s per run)"])
    out = Outcome(argv, traced, wall, proc.stdout)
    report = None
    stderr = proc.stderr.decode(errors="replace").splitlines()
    for line in reversed(stderr):
        if line.startswith(REPORT_PREFIX):
            report = json.loads(line[len(REPORT_PREFIX):])
            break
    if proc.returncode != 0:
        tail = [t for t in stderr if t.strip() and not t.startswith(REPORT_PREFIX)]
        out.problems.append(f"exit code {proc.returncode}: {tail[-1] if tail else ''}")
    if report is None:
        out.problems.append("child wrote no report")
        return out
    if report["setup_end"] is not None:
        out.setup_s = report["setup_end"] - spawned
    out.maxrss_kb = report["maxrss_kb"]
    if traced:
        out.trace = {"spans": report["spans"], "counters": report["counters"]}
    if proc.returncode == 0:
        out.problems += workloads.check_output(argv, proc.stdout.decode(errors="replace"))
    return out


def time_reference(deadline: float) -> float | None:
    """Wall time of one calibrate.py child, or None if it failed."""
    proc, _, wall = _run_child([sys.executable, str(HERE / "calibrate.py")], deadline)
    return wall if proc is not None and proc.returncode == 0 else None


def run_round(cmds, traced: bool, deadline: float) -> list[Outcome]:
    """Each command, each right after a reference child."""
    outcomes = []
    for argv in cmds:
        ref_s = time_reference(deadline)
        out = run_command(argv, traced, deadline)
        out.ref_s = ref_s
        if ref_s is None:
            out.problems.append("reference child calibrate.py failed")
        outcomes.append(out)
    return outcomes


def speed_factor(outcomes: list[Outcome]) -> float:
    """How much slower than reference speed the machine ran during a round."""
    refs = [o.ref_s for o in outcomes if o.ref_s is not None]
    return sum(refs) / (len(refs) * REF_NOMINAL_S) if refs else 1.0


# ------------------------------------------------------------------ metrics

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return (100 * k) // n, sorted(samples)[k - 1]


def round_work(workload: str, outcomes: list[Outcome]) -> int:
    total = 0
    for o in outcomes:
        try:
            total += workloads.work(o.argv, o.stdout.decode(errors="replace"))
        except (ValueError, KeyError, TypeError):
            pass  # the failed output check already counts this command
    return total


def end_to_end(workload: str, rounds: list[list[Outcome]]) -> tuple[dict, dict]:
    """(metric values, extra figures for the record) over untraced rounds.

    Times are divided by their round's speed factor, i.e. given in seconds
    at reference speed; the raw figures go to the record.
    """
    factors = [speed_factor(r) for r in rounds]
    walls = [sum(o.wall_s for o in r) for r in rounds]
    setups = [[o.setup_s for o in r if o.setup_s is not None] for r in rounds]
    works = [round_work(workload, r) for r in rounds]
    rates = [work / max((wall - sum(setup)) / f, 1e-9)
             for wall, setup, work, f in zip(walls, setups, works, factors)]
    rss = [o.maxrss_kb for r in rounds for o in r if o.maxrss_kb is not None]
    corrected = [w / f for w, f in zip(walls, factors)]
    values = {
        "wall_s": _median(corrected),
        "setup_s": _median([t / f for setup, f in zip(setups, factors) for t in setup]),
        "work_per_s": _median(rates),
        "peak_rss_mb": max(rss, default=0) / 1024.0,
    }
    extra = {"speed_factor_rounds": factors, "raw_wall_s_rounds": walls,
             "raw_wall_s": _median(walls),
             "raw_setup_s": _median([t for setup in setups for t in setup]),
             "work_unit": workloads.UNIT[workload], "work_per_round": works,
             "wall_s_tail": tail_percentile(corrected)}
    return values, extra


def _layers_of_round(outcomes: list[Outcome]) -> dict:
    """Per-layer values of one traced round, summed over its commands."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for o in outcomes:
        if o.trace is None:
            continue
        for name, s in o.trace["spans"].items():
            acc = spans.setdefault(name, {"count": 0, "self_s": 0.0})
            acc["count"] += s["count"]
            acc["self_s"] += s["self_s"]
        for name, v in o.trace["counters"].items():
            counters[name] = counters.get(name, 0) + v

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("count", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    pushforwards = calls("measures.kernel_build") + calls("measures.pushforward_warm")
    return {
        "pca.hash_s": self_s("pca.hash"),
        "pca.hash_variates": counters.get("pca.hash_variates", 0),
        "pca.step_s": self_s("pca.step"),
        "pca.step_calls": calls("pca.step"),
        "pca.trajectory_s": self_s("pca.trajectory"),
        "game.classify_s": self_s("game.classify"),
        "game.classify_sites": counters.get("game.classify_sites", 0),
        "game.induction_s": self_s("game.induction"),
        "game.live_line_ratio": ratio(counters.get("game.live_lines", 0),
                                      counters.get("game.lines", 0)),
        "game.kernel_check_s": self_s("game.kernel_check"),
        "measures.kernel_builds": calls("measures.kernel_build"),
        "measures.kernel_build_s": self_s("measures.kernel_build"),
        "measures.pushforward_calls": pushforwards,
        "measures.pushforward_warm_s": self_s("measures.pushforward_warm"),
        "measures.kernel_hit_ratio": ratio(calls("measures.pushforward_warm"), pushforwards),
        "measures.construct_s": self_s("measures.construct"),
        "measures.constructed": calls("measures.construct"),
        "measures.cylinder_s": self_s("measures.cylinder"),
        "measures.cylinder_calls": calls("measures.cylinder"),
        "measures.closed_form_s": self_s("measures.closed_form"),
        "measures.closed_form_calls": calls("measures.closed_form"),
        "measures.master_s": self_s("measures.master"),
        "measures.master_runs": calls("measures.master"),
        "measures.tables_s": self_s("measures.tables"),
        "measures.empirical_s": self_s("measures.empirical"),
        "core.parse_s": self_s("core.parse"),
        "core.parse_calls": calls("core.parse"),
        "orders.lemma_s": self_s("orders.lemma"),
        "orders.lemma_pairs": counters.get("orders.lemma_pairs", 0),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": sum(len(o.stdout) for o in outcomes),
    }


def per_layer(plain: list[list[Outcome]], traced: list[list[Outcome]],
              units: dict[str, str]) -> tuple[dict, list[str]]:
    """(metric values, self-check problems) over the traced rounds.

    Times are medians over the traced rounds, each divided by its round's
    speed factor.  Counts and ratios must repeat exactly from round to
    round; they are taken from the first.
    """
    per_round = [_layers_of_round(r) for r in traced]
    factors = [speed_factor(r) for r in traced]
    values = dict(per_round[0])
    problems = []
    for name in values:
        if units.get(name) == "s":
            values[name] = _median([r[name] / f for r, f in zip(per_round, factors)])
        elif any(r[name] != values[name] for r in per_round[1:]):
            problems.append(f"{name} differs between traced rounds: "
                            f"{[r[name] for r in per_round]}")
    traced_wall = _median([sum(o.wall_s for o in r) / speed_factor(r) for r in traced])
    plain_wall = _median([sum(o.wall_s for o in r) / speed_factor(r) for r in plain])
    values["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0
    return values, problems


# ------------------------------------------------------------------ checks

def check_digests(cmds, rounds: list[list[Outcome]], expected: list[str] | None) -> None:
    """Every run of a command must print the same bytes: the pinned reference
    at the default seed, else whatever the first untraced round printed."""
    if expected is None:
        expected = [o.digest for o in rounds[0]]
    for r in rounds:
        for i, o in enumerate(r):
            if not o.problems and o.digest != expected[i]:
                what = "traced " if o.traced else ""
                o.problems.append(f"{what}stdout sha256 {o.digest[:12]} != expected "
                                  f"{expected[i][:12]}")


def reference_digests(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    ref = json.loads((HERE / "reference.json").read_text())
    return ref["sha256"][workload]


# ------------------------------------------------------------------ provenance

def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, cmds) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "percolab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "benchmark_command": shlex.join([Path(sys.executable).name, *sys.argv]),
        "command_lines": [shlex.join(["percolab", *argv]) for argv in cmds],
    }


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "percolab" / "cli.py").is_file():
        print(f"run.py: no percolab sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    # The build: byte-compile once, so no timed child pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    cmds = workloads.commands(args.workload, args.seed)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    while True:  # stop before a round that would end after --seconds
        round_start = time.monotonic()
        plain.append(run_round(cmds, False, deadline))
        if args.trace:
            traced.append(run_round(cmds, True, deadline))
        now = time.monotonic()
        took = now - round_start
        if now + took > deadline:
            break
        if now + took - start > args.seconds and len(traced) >= MIN_TRACED_ROUNDS * args.trace:
            break

    check_digests(cmds, plain + traced, reference_digests(args.workload, args.seed))
    outcomes = [o for r in plain + traced for o in r]
    failed = [o for o in outcomes if o.problems]
    e2e, extra = end_to_end(args.workload, plain)
    e2e["success_ratio"] = 1.0 - len(failed) / len(outcomes)
    self_check = []
    if args.trace:
        if len(traced) < MIN_TRACED_ROUNDS:
            self_check.append(f"only {len(traced)} traced rounds before the deadline")
            values = {}
        else:
            values, self_check = per_layer(plain, traced, units)
    else:
        values = e2e
    missing = sorted(set(units) - set(values))
    if missing:
        self_check.append(f"metrics not measured: {missing}")
    correct = not failed and not self_check

    for o in failed:
        print(f"FAILED percolab {shlex.join(o.argv)}"
              f"{' (traced)' if o.traced else ''}: {'; '.join(o.problems)}")
    for problem in self_check:
        print(f"SELF-CHECK FAILED: {problem}")
    tail = extra["wall_s_tail"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced rounds, "
          f"{len(outcomes)} commands, {len(failed)} failed")
    print("wall_s tail: " + (f"p{tail[0]} = {tail[1]:.4f} s" if tail else
                              f"n/a (needs > 10 rounds, have {len(plain)})"))
    print(f"{'fail_ratio':<28} {len(failed) / len(outcomes):.4f} ratio")
    print(f"{'speed_factor':<28} {_median(extra['speed_factor_rounds']):.4f} "
          f"(raw wall_s {extra['raw_wall_s']:.4f} s, raw setup_s {extra['raw_setup_s']:.4f} s)")
    print(f"{workloads.UNIT[args.workload] + '_per_s':<28} {e2e['work_per_s']:.6g} 1/s")
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<28} {values[name]:.6g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "provenance": provenance(args, cmds),
        "correct": correct,
        "metrics": metrics,
        "end_to_end": e2e,
        "extra": extra,
        "self_check_problems": self_check,
        "commands": [{"argv": list(o.argv), "traced": o.traced, "wall_s": o.wall_s,
                      "setup_s": o.setup_s, "maxrss_kb": o.maxrss_kb,
                      "stdout_sha256": o.digest, "problems": o.problems,
                      "ref_s": o.ref_s, "trace": o.trace} for o in outcomes],
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
