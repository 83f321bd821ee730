"""CLI behaviour: parsing, schemas, determinism, exit codes."""

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from percolab.cli import DEFAULT_SEED, _grid_spec, _int_list, _rational, main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def exit_status(capsys, *argv):
    """(exit status, stderr) of main, whether it returns the status or argparse raises it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


# ------------------------------------------------------------------ parsing

def test_rational_accepts_fractions_and_decimals():
    assert _rational("1/5") == Fraction(1, 5)
    assert _rational("0.2") == Fraction(1, 5)
    assert _rational("1") == Fraction(1)
    with pytest.raises(argparse.ArgumentTypeError):
        _rational("one third")


def test_int_list():
    assert _int_list("10,50,100") == (10, 50, 100)
    with pytest.raises(argparse.ArgumentTypeError):
        _int_list("10,fifty")
    with pytest.raises(argparse.ArgumentTypeError):
        _int_list(",")


def test_grid_spec_exact_inclusive():
    assert _grid_spec("0.1:0.9:0.2") == (
        Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10))
    assert _grid_spec("0:1:1/2") == (Fraction(0), Fraction(1, 2), Fraction(1))
    with pytest.raises(argparse.ArgumentTypeError):
        _grid_spec("0:1")
    with pytest.raises(argparse.ArgumentTypeError):
        _grid_spec("1:0:1/2")
    with pytest.raises(argparse.ArgumentTypeError):
        _grid_spec("0:1:0")
    # the lattice is start + k*step; values outside [0, 1] are never in the region
    assert _grid_spec("-1/3:2/3:1/4") == (Fraction(1, 6), Fraction(5, 12), Fraction(2, 3))
    assert _grid_spec("1/2:7:1/2") == (Fraction(1, 2), Fraction(1))
    assert _grid_spec("2:5:1") == ()
    assert _grid_spec("-3:-1:1") == ()
    # only the values in [0, 1] are listed, however wide the grid
    assert _grid_spec("0:1000000000:1") == (Fraction(0), Fraction(1))
    assert _grid_spec("-1000000000:1:1") == (Fraction(0), Fraction(1))


# ------------------------------------------------------------------ simulate

def test_simulate_binary_absorbing_zero(capsys):
    code, out = run_cli(capsys, "simulate", "--model", "binary", "--p", "1", "--q", "0",
                        "--init", "zeros", "--width", "12", "--steps", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "t,width,count0,countQ,count1"
    assert lines[1:] == [f"{t},12,12,0,0" for t in range(5)]


def test_simulate_envelope_qmarks_decay(capsys):
    code, out = run_cli(capsys, "simulate", "--p", "1/4", "--q", "1/4",
                        "--width", "400", "--steps", "40", "--seed", "1")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert code == 0
    assert int(rows[0][3]) == 400          # starts all ?
    assert int(rows[-1][3]) < 40           # ?-density collapses
    for t, width, c0, cq, c1 in rows:
        assert int(c0) + int(cq) + int(c1) == int(width) == 400


def test_simulate_binary_rejects_qmark_init(capsys):
    code, err = exit_status(capsys, "simulate", "--model", "binary", "--p", "1/4",
                            "--q", "1/4", "--steps", "2")
    assert code == 2
    assert err == "error: simulate: --init qmarks needs --model envelope\n"


def test_unwritable_out_is_a_clean_error(tmp_path):
    path = tmp_path / "missing" / "x.csv"
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", "simulate", "--p", "1/4",
                           "--q", "1/4", "--width", "10", "--steps", "2", "--out", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(path) in proc.stderr


def test_simulate_offset_changes_trajectory(capsys):
    args = ["simulate", "--p", "1/4", "--q", "1/4", "--width", "100",
            "--steps", "10", "--seed", "5"]
    _, base = run_cli(capsys, *args)
    _, shifted = run_cli(capsys, *args, "--offset", "-1")
    assert base != shifted


@pytest.mark.parametrize("command", [
    ("simulate", "--width", "3", "--steps", "1"),
    ("verify", "stationary", "--width", "5", "--steps", "1"),
], ids=["simulate", "stationary"])
@pytest.mark.parametrize("offset", ["100000000000000000000", "9223372036854775806",
                                    "-4611686018427387905"])
def test_offset_beyond_2_62_is_a_clean_error(capsys, command, offset):
    # neighbour and key indices are int64, so an offset past 2**62 could not be held
    code, err = exit_status(capsys, *command, "--p", "1/4", "--q", "1/4", "--offset", offset)
    assert code == 2
    assert err == f"error: offset must satisfy |offset| <= 2**62, got {offset}\n"


def test_cyclic_offset_is_read_modulo_the_width(capsys):
    # offsets 2**62 and 1 (= 2**62 mod 3) give the same run on a width-3 cycle;
    # a subprocess with a timeout, so wrapping the far offset one width at a
    # time would fail rather than hang
    args = ["simulate", "--p", "1/4", "--q", "1/4", "--width", "3", "--steps", "50"]
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", *args, "--offset", str(2**62)],
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == run_cli(capsys, *args, "--offset", "1")


def test_simulate_width_beyond_memory_is_a_clean_error(capsys):
    # 10**16 cells is more than any address space holds, so allocating the row
    # fails at once without touching memory
    code, err = exit_status(capsys, "simulate", "--p", "1/4", "--q", "1/4",
                            "--width", "10000000000000000", "--steps", "1")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_json_format(capsys):
    code, out = run_cli(capsys, "simulate", "--p", "0", "--q", "1", "--init", "ones",
                        "--width", "6", "--steps", "2", "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert rows[0] == {"t": 0, "width": 6, "count0": 0, "countQ": 0, "count1": 6}
    assert rows[-1]["count1"] == 6         # q=1 keeps 1s alive


# ------------------------------------------------------------------ game/sweep

def test_game_repeat_runs_byte_identical(capsys):
    args = ("game", "--version", "v1", "--p", "1/4", "--q", "1/4",
            "--horizons", "5,10", "--samples", "300", "--seed", "7")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    assert first.splitlines()[0] == \
        "version,p,q,horizon,samples,draw_fraction,ci_low,ci_high,seed"


def test_game_v4_deterministic_no_draws(capsys):
    code, out = run_cli(capsys, "game", "--version", "v4", "--p", "1", "--q", "0",
                        "--horizons", "5", "--samples", "100")
    row = out.strip().splitlines()[1].split(",")
    assert code == 0
    assert row[:6] == ["V4", "1", "0", "5", "100", "0.0"]


def test_game_requires_params(capsys):
    for argv in (("game", "--version", "v1", "--horizons", "5"),
                 ("game", "--p", "1/4", "--p-grid", "0:1:1/2", "--q", "1/4"),
                 ("game", "--p", "3/4", "--q", "1/2", "--horizons", "5", "--samples", "10"),
                 # grids with no point in the region
                 ("game", "--p-grid", "2:5:1", "--q", "0", "--horizons", "0"),
                 ("game", "--p-grid=-3:-1:1", "--q-grid", "0:1:1", "--horizons", "0"),
                 ("sweep", "--p-grid", "0:1:1/2", "--q-grid", "3/2:2:1/2", "--horizons", "0")):
        code, err = exit_status(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: game: ") and err.count("\n") == 1, argv


def test_sweep_skips_outside_region(capsys):
    code, out = run_cli(capsys, "sweep", "--p-grid", "0:1:1/2", "--q-grid", "0:1:1/2",
                        "--horizons", "3", "--samples", "20", "--seed", "2")
    rows = out.strip().splitlines()[1:]
    assert code == 0
    assert len(rows) == 6                  # 9 grid cells minus 3 with p+q>1
    pairs = {tuple(r.split(",")[1:3]) for r in rows}
    assert ("1", "1") not in pairs and ("1", "1/2") not in pairs


def test_game_out_file_matches_stdout(tmp_path, capsys):
    args = ("game", "--version", "v2", "--p", "1/3", "--q", "1/5",
            "--horizons", "4", "--samples", "50")
    _, stdout_text = run_cli(capsys, *args)
    path = tmp_path / "game.csv"
    code = main([*args, "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_text() == stdout_text


# ------------------------------------------------------------------ verify

def test_verify_kernel_all_versions(capsys):
    code, out = run_cli(capsys, "verify", "kernel", "--p", "1/3", "--q", "1/5")
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert len(report["reports"]) == 4
    for sub in report["reports"]:
        assert sub["comparisons"] == 27 and sub["mismatches"] == []
    assert report["artifact_version"]


def test_verify_lemmas_coarse(capsys):
    code, out = run_cli(capsys, "verify", "lemmas", "--grid", "coarse")
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert len(report["reports"]) == 10    # 5 points x 2 lemmas
    assert all(r["violation_count"] == 0 for r in report["reports"])


def test_verify_formulas_computes_each_pushforward_once(capsys, monkeypatch):
    # a partially specified entry's value is its pushforward already, so only
    # the fully specified entries call pushforward_cylinder for the comparison
    from percolab import cli

    called = []
    pushforward = cli.pushforward_cylinder
    monkeypatch.setattr(cli, "pushforward_cylinder",
                        lambda mu, fid, params: called.append(fid) or pushforward(mu, fid, params))
    code, out = run_cli(capsys, "verify", "formulas", "--measures", "0")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["comparisons"] == 3 * 20 * 13  # 3 point masses x 20 points x 13 entries
    assert sorted(set(called)) == sorted(("?", "0?", "?0?", "1?", "100?", "000?"))
    assert len(called) == 3 * 20 * 6


def test_verify_tables_sampled(capsys):
    code, out = run_cli(capsys, "verify", "tables", "--measures", "1")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert len(report["reports"]) == 10    # (3 point masses + 2 random) x 2


def test_verify_weights_small_grid(capsys):
    code, out = run_cli(capsys, "verify", "weights", "--measures", "1", "--grid", "1/2")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["runs"] == report["measures"] * report["points"]
    assert Fraction(report["min_overall_slack"]) >= 0


def test_verify_stationary_informational(capsys):
    code, out = run_cli(capsys, "verify", "stationary", "--p", "1/4", "--q", "1/4",
                        "--width", "500", "--steps", "60")
    report = json.loads(out)
    assert code == 0
    assert report["branch"] == "q>0"
    assert Fraction(report["qmark"]) < Fraction(1, 10)


def test_verify_stationary_rejects_zero_steps(capsys):
    code, err = exit_status(capsys, "verify", "stationary", "--p", "1/4", "--q", "1/4",
                            "--steps", "0")
    assert code == 2
    assert "error: steps must be >= 1" in err


def test_verify_rejects_csv_format(capsys):
    code, err = exit_status(capsys, "verify", "lemmas", "--format", "csv")
    assert code == 2
    assert "argument --format: invalid choice: 'csv'" in err


def test_verify_invalid_params_clean_error(capsys):
    code = main(["verify", "kernel", "--p", "2", "--q", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ("weights", "--grid", "0"),
    ("weights", "--grid", "2"),
    ("weights", "--grid=-1/4"),
    ("formulas", "--measures", "-1"),
    ("tables", "--measures", "-1"),
    ("weights", "--measures", "-1"),
], ids=lambda argv: " ".join(argv))
def test_verify_rejects_bad_grid_and_measures(argv):
    # a subprocess with a timeout, so a grid step that never advances fails fast
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", "verify", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: argument" in proc.stderr


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["exact_grid", "exact_measures", "mc_fast_decay",
                                      "mc_slow_decay"])
def test_exact_workloads_print_the_reference_bytes(capsys, workload):
    # the benchmark rejects any byte of change in these seed-0 outputs, so check
    # them against its recorded digests here rather than only when it runs
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert reference["seed"] == 0
    digests = []
    for argv in _perfbench_workloads().commands(workload, 0):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == reference["sha256"][workload]


# The stdout sha256 of the README's exact verify commands, recorded before the
# checks were compiled to integer functionals: they must keep printing the same
# bytes, not just the benchmark's seed-0 command lines.
README_VERIFY_DIGESTS = {
    ("verify", "formulas", "--measures", "10"):
        "426bd04443c5053d6421ee0077ed305df4d931ec08f2ddfd9cc7d31e271b310e",
    ("verify", "weights", "--measures", "5", "--grid", "1/8"):
        "9e8857529f04f9512056231e05b325e1c04804a2bdf0e1ad6b9455290eb78eaf",
    ("verify", "tables"):
        "bdb046a8f898d9fee2d2e6775d2d20435e9512e1c52b321fa22973ca07e3fcdf",
}


@pytest.mark.parametrize("argv", list(README_VERIFY_DIGESTS), ids=" ".join)
def test_readme_verify_commands_print_the_recorded_bytes(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_VERIFY_DIGESTS[argv]


# The stdout sha256 of the README's Monte Carlo commands, recorded before one
# induction pass served every horizon and before variates became integers.
README_MONTE_CARLO_DIGESTS = {
    ("game", "--version", "v1", "--p", "1/4", "--q", "1/4", "--horizons", "10,50,100",
     "--samples", "10000", "--seed", "7"):
        "d529148bd06a13061baa0f117d729d0281b787841fe6cf61172c7736e243c065",
    ("sweep", "--version", "v1", "--p-grid", "0:1:1/5", "--q-grid", "0:1:1/5",
     "--horizons", "10,50,100", "--samples", "2000", "--seed", "7"):
        "eb27f793c60d686140497700e4cb1fad9541b4ee134b1fe3c559f21279021022",
}


@pytest.mark.parametrize("argv", list(README_MONTE_CARLO_DIGESTS), ids=lambda a: a[0])
def test_readme_monte_carlo_commands_print_the_recorded_bytes(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_MONTE_CARLO_DIGESTS[argv]


def test_game_rejects_a_negative_horizon_before_hashing(capsys, monkeypatch):
    from percolab import game

    hashed = []
    monkeypatch.setattr(game, "u01_block", lambda *args: hashed.append(args))
    monkeypatch.setattr(game.SeededStream, "child_seeds_u64", lambda *args: hashed.append(args))
    code = main(["game", "--p", "1/4", "--q", "1/4", "--horizons", "5,-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert hashed == []


def test_game_keeps_repeated_horizons_in_the_requested_order(capsys):
    # four rows, in the order asked for, with the bytes recorded before one
    # pass served every horizon
    code, out = run_cli(capsys, "game", "--version", "v2", "--p", "1/20", "--q", "1/20",
                        "--horizons", "5,5,0,2", "--samples", "500", "--seed", "3")
    assert code == 0
    assert [row.split(",")[3] for row in out.splitlines()[1:]] == ["5", "5", "0", "2"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0f6a2e610393cf861564f1dc7530da5c89b02bfcbb7d32ca6b2442be0c30a71d"


def test_default_seed_is_stable():
    assert DEFAULT_SEED == 1729


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", "verify", "kernel",
                           "--version", "v1", "--p", "1/2", "--q", "1/4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def _traced_run(*argv):
    """Stdout and span and counter summary of one command run under perfbench's tracer."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           str(ROOT / "src"), "trace", "--", *argv],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    reports = [line for line in proc.stderr.splitlines() if line.startswith("PERFBENCH ")]
    assert len(reports) == 1
    return proc.stdout, json.loads(reports[0].removeprefix("PERFBENCH "))


def _traced_summary(*argv):
    """Span and counter summary of one verify command run under perfbench's tracer."""
    stdout, summary = _traced_run(*argv)
    assert json.loads(stdout)["pass"] is True
    return summary


def _traced_spans(*argv):
    """Per-name span summary of one command run under perfbench's tracer."""
    return _traced_summary(*argv)["spans"]


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/spans.py rebinds the layer functions by name when a traced run
    # starts, so a rename or move in src/ breaks it; this catches that in tests
    spans = _traced_spans("verify", "kernel", "--version", "v1", "--p", "1/2", "--q", "1/4")
    assert "game.kernel_check" in spans
    # verify kernel checks the classify_line that the game loop runs: once
    # per label for each of the 27 successor triples
    assert spans["game.classify"]["count"] == 3 * 27
    _, game_run = _traced_run("game", "--p", "0", "--q", "0", "--horizons", "2,4",
                              "--samples", "10")
    _, simulate_run = _traced_run("simulate", "--p", "1/4", "--q", "1/4", "--width", "20",
                                  "--steps", "3")
    assert {"pca.hash", "game.classify", "game.induction"} <= set(game_run["spans"])
    assert {"pca.hash", "pca.step"} <= set(simulate_run["spans"])
    # one pass hashes each (sample, line) once: 10 samples x 4^2 sites, plus
    # the 10 child seeds
    assert game_run["counters"]["pca.hash_variates"] == 10 * 4**2 + 10


def test_benchmark_tracer_times_the_exact_layers():
    # a measure built without going through TIMeasure.from_table, or a cylinder
    # or table check reached other than through the module globals, would read
    # as zero time in the benchmark
    spans = _traced_spans("verify", "tables", "--measures", "1")
    assert {"measures.construct", "measures.cylinder", "measures.tables"} <= set(spans)
    assert spans["measures.construct"]["count"] == 5  # 3 point masses + 1 per family


def test_benchmark_tracer_counts_lemma_pairs():
    # the orders.lemma_pairs counter reads LemmaReport.total_pairs
    summary = _traced_summary("verify", "lemmas", "--grid", "coarse")
    assert summary["spans"]["orders.lemma"]["count"] == 10  # 5 points x 2 lemmas
    assert summary["counters"]["orders.lemma_pairs"] == 10 * 729


def _fresh_run(report: str, *argv):
    """One CLI run in a fresh interpreter, then ``report``, code that prints
    one integer to stderr; returns that integer."""
    code = ("import re, resource, sys\n"
            "from percolab.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            f"{report}\n"
            "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1])


def _peak_rss_kb(*argv):
    """Peak resident set size, in KiB, of one CLI run in a fresh interpreter.

    Read from the child's VmHWM: its ru_maxrss would also count the RSS this
    test process had when it spawned the child, which a long test session grows.
    """
    return _fresh_run("with open('/proc/self/status') as fh:\n"
                      "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1),"
                      " file=sys.stderr)", *argv)


def test_game_memory_is_bounded_in_samples():
    # 300k samples x 61 frontier cells: an unchunked solver peaks near 0.7 GB
    peak_kb = _peak_rss_kb("game", "--version", "v1", "--p", "9/20", "--q", "9/20",
                           "--horizons", "30", "--samples", "300000", "--seed", "7")
    assert peak_kb < 150 * 1024


def test_game_seeds_are_made_per_chunk():
    # four chunks of 2^20 samples: seeds made up front for all of them would
    # hold 32 MB at once, and peak near 125 MB
    peak_kb = _peak_rss_kb("game", "--version", "v1", "--p", "1/4", "--q", "1/4",
                           "--horizons", "0", "--samples", "4000000", "--seed", "7")
    assert peak_kb < 80 * 1024


def test_simulate_runs_on_a_settled_heap():
    # each row allocates and frees numpy temporaries of about 80 KB; unless
    # main settles glibc's heap before the first row, every row faults the
    # heap top back in: about 29 000 to 48 000 minor faults instead of 5 200
    faults = _fresh_run("print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt,"
                        " file=sys.stderr)",
                        "simulate", "--p", "1/4", "--q", "1/4", "--width", "10000",
                        "--steps", "1000")
    assert faults < 15_000


# ------------------------------------------------------------------ imports

# Runs each JSON-given argv through cli.main in one fresh interpreter and prints
# which numeric modules were loaded whenever build_parser was called and at
# the end, with main's exit codes.
_MODULE_PROBE = """
import contextlib, io, json, sys
import percolab.cli as cli

def loaded():
    return [name for name in ("numpy", "percolab.pca", "percolab.game") if name in sys.modules]

report = {"codes": [], "at_build_parser": []}
build_parser = cli.build_parser

def probed_build_parser():
    report["at_build_parser"].append(loaded())
    return build_parser()

cli.build_parser = probed_build_parser
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(cli.main(argv))
report["at_exit"] = loaded()
print(json.dumps(report))
"""


def _probe_modules(*commands):
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_verify_commands_never_import_numpy():
    report = _probe_modules(["verify", "lemmas"], ["verify", "formulas", "--measures", "1"],
                            ["verify", "tables", "--measures", "1"],
                            ["verify", "weights", "--measures", "1", "--grid", "1/2"])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["at_exit"] == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "1/4", "--q", "1/4", "--width", "20", "--steps", "3"],
    ["game", "--p", "1/4", "--q", "1/4", "--horizons", "3", "--samples", "10"],
    ["sweep", "--p-grid", "0:1/2:1/2", "--q-grid", "1/4:1/4:1", "--horizons", "3",
     "--samples", "10"],
    ["verify", "kernel", "--version", "v1", "--p", "1/2", "--q", "1/4"],
    ["verify", "stationary", "--p", "1/4", "--q", "1/4", "--width", "50", "--steps", "3"],
], ids=lambda argv: " ".join(argv[:2]) if argv[0] == "verify" else argv[0])
def test_row_commands_import_numpy_before_the_parser_is_built(argv):
    # the benchmark counts everything up to build_parser's return as set-up and
    # the rest as the command's work, so an import inside the command would
    # slow its work rate by the whole import
    report = _probe_modules(argv)
    assert report["codes"] == [0]
    assert report["at_build_parser"] == [["numpy", "percolab.pca", "percolab.game"]]
