"""CLI behaviour: parsing, schemas, determinism, exit codes."""

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from percolab.cli import (
    DEFAULT_SEED,
    _artifact_version,
    _csv_text,
    _grid_spec,
    _int_list,
    _rational,
    main,
)
from percolab.core import Params

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


def test_rational_refuses_a_huge_token_before_reading_it():
    # Fraction("1e10000000") alone took 8 s and a value past 4300 digits
    # fails when printed, so a token's digits and exponent are bounded first
    assert _rational("1e-1000") == Fraction(1, 10**1000)
    assert _rational("1/" + "7" * 999) == Fraction(1, int("7" * 999))
    for text in ("1e-1001", "2E+1001", "1/" + "7" * 1000, "0." + "0" * 1000 + "1", "1e-100000"):
        with pytest.raises(argparse.ArgumentTypeError, match="at most 1000 digits"):
            _rational(text)
    with pytest.raises(argparse.ArgumentTypeError, match="not a rational"):
        _rational("1e1/2")


@pytest.mark.parametrize("argv, flag", [
    (("verify", "kernel", "--p", "1e-9999999", "--q", "1/4"), "--p"),
    (("verify", "kernel", "--p", "1e-100000", "--q", "1/4"), "--p"),
    (("verify", "weights", "--grid", "1e-9999999"), "--grid"),
    (("sweep", "--p-grid", "0:1:1e-9999999", "--q", "0"), "--p-grid"),
], ids=["kernel --p hang", "kernel --p digit limit", "weights --grid", "sweep --p-grid"])
def test_a_huge_rational_exits_2_at_once_naming_its_flag(argv, flag):
    # a subprocess with a timeout: before the bound, the first case ran past
    # 10 s and the second exited 2 naming an interpreter setting, not the flag
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: argument {flag}: ") and proc.stderr.count("\n") == 1
    assert "set_int_max_str_digits" not in proc.stderr


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



def test_grid_spec_counts_its_values_before_building_them():
    # 1/99999 gives exactly the most values a run may visit; one more is refused
    assert len(_grid_spec("0:1:1/99999")) == 100_000
    assert len(_grid_spec("-1:1:1/99999")) == 100_000  # only the values in [0, 1]
    with pytest.raises(argparse.ArgumentTypeError, match=r"has 100001 values in \[0, 1\]"):
        _grid_spec("0:1:1/100000")
    with pytest.raises(argparse.ArgumentTypeError, match=" 1000000000001 values"):
        _grid_spec("0:5:1/1000000000000")


@pytest.mark.parametrize("argv, count", [
    (("verify", "weights", "--measures", "0", "--grid", "1/100000"), "5000150000 points"),
    (("verify", "weights", "--measures", "0", "--grid", "1/446"), "100127 points"),
    (("game", "--p-grid", "0:1:1/1000000000000", "--q", "0", "--horizons", "1",
      "--samples", "1"), "1000000000001 values"),
    (("game", "--p", "0", "--q-grid=-5:1/2:1/100000000", "--horizons", "1"), "50000001 values"),
    (("sweep", "--p-grid", "0:1:1/99", "--q-grid", "0:1:1/1000", "--horizons", "1"),
     "100100 points"),
], ids=["weights --grid", "weights --grid near the bound", "game --p-grid", "game --q-grid",
        "sweep --p-grid --q-grid"])
def test_grids_over_the_point_bound_fail_before_they_are_built(argv, count):
    # a subprocess with a timeout, so a grid that is built value by value fails fast
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f" has {count}" in proc.stderr and ", more than the 100000 " in proc.stderr


@pytest.mark.parametrize("argv, points", [
    (("verify", "weights", "--measures", "0", "--grid", "1/4"), 14),
    (("verify", "weights", "--measures", "0", "--grid", "2/3"), 2),
    (("sweep", "--p-grid", "0:1:1/2", "--q-grid", "0:1:1/2", "--horizons", "0",
      "--samples", "1"), 9),  # counted before the 3 points with p + q > 1 are skipped
    (("game", "--p-grid", "0:1:1/3", "--q", "0", "--horizons", "0", "--samples", "1"), 4),
], ids=["weights 1/4", "weights 2/3", "sweep", "game"])
def test_a_grid_of_exactly_the_bound_runs(capsys, monkeypatch, argv, points):
    from percolab import cli

    monkeypatch.setattr(cli, "_MAX_POINTS", points)
    assert exit_status(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "_MAX_POINTS", points - 1)
    code, err = exit_status(capsys, *argv)
    assert code == 2 and f" has {points} " in err and err.count("\n") == 1


@pytest.mark.parametrize("check", ["weights", "tables", "formulas"])
def test_too_many_measures_fail_before_any_is_built(check):
    # a subprocess with a timeout: 200 000 003 measures would run for days
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", "verify", check,
                           "--measures", "100000000"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert " has 200000003 measures, more than the 1000 " in proc.stderr


class _Admitted(Exception):
    """Raised in place of sampling measures: every count was admitted."""


@pytest.mark.parametrize("argv", [
    # the README's commands
    ("formulas", "--measures", "10"), ("weights", "--measures", "5", "--grid", "1/8"),
    ("tables",),
    # the benchmark's commands
    ("formulas", "--measures", "1"), ("weights", "--measures", "1", "--grid", "1/3"),
    ("weights", "--measures", "20", "--grid", "1/2"), ("tables", "--measures", "20"),
    # 100 per family
    ("formulas", "--measures", "100"), ("weights", "--measures", "100", "--grid", "1/8"),
    ("tables", "--measures", "100"),
    # three measures at every point of the finest grid
    ("weights", "--measures", "0", "--grid", "1/445"),
], ids=" ".join)
def test_documented_measure_counts_are_admitted(monkeypatch, argv):
    from percolab import measures

    def admitted(per_family, seed):
        raise _Admitted

    monkeypatch.setattr(measures, "sampled_measures", admitted)
    with pytest.raises(_Admitted):
        main(["verify", *argv])


@pytest.mark.parametrize("argv, cap, count", [
    (("verify", "tables", "--measures", "1"), "_MAX_MEASURES", "5 measures"),
    (("verify", "formulas", "--measures", "0"), "_MAX_MEASURES", "3 measures"),
    (("verify", "weights", "--measures", "1", "--grid", "1"), "_MAX_MEASURES", "5 measures"),
    (("verify", "weights", "--measures", "0", "--grid", "1/2"), "_MAX_RUNS", "15 runs"),
], ids=["tables", "formulas", "weights measures", "weights runs"])
def test_exactly_the_measure_and_run_bounds_run(capsys, monkeypatch, argv, cap, count):
    from percolab import cli

    bound = int(count.split()[0])
    monkeypatch.setattr(cli, cap, bound)
    assert exit_status(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, cap, bound - 1)
    code, err = exit_status(capsys, *argv)
    assert code == 2 and f" has {count}, more than the {bound - 1} " in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("offset", ["0", "-1"])
@pytest.mark.parametrize("init", ["zeros", "ones"])
def test_simulate_binary_and_envelope_print_the_same_bytes(capsys, init, offset):
    # a row without ? steps as the binary automaton whichever --model is named
    args = ["--p", "1/4", "--q", "1/4", "--init", init, "--offset", offset,
            "--width", "300", "--steps", "30", "--seed", "3"]
    code_b, binary = run_cli(capsys, "simulate", "--model", "binary", *args)
    code_e, envelope = run_cli(capsys, "simulate", "--model", "envelope", *args)
    assert code_b == code_e == 0
    assert binary == envelope
    assert len(set(binary.splitlines()[1:])) > 1  # the row changed along the way


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


README_ROW_COMMANDS = [
    ("simulate", "--model", "envelope", "--p", "1/4", "--q", "1/4", "--init", "qmarks",
     "--width", "10000", "--steps", "1000", "--seed", "1"),
    ("simulate", "--p", "1/10", "--q", "1/10", "--width", "5000", "--steps", "400",
     "--seed", "3"),
    ("verify", "stationary", "--p", "1/4", "--q", "1/4", "--width", "20000", "--steps", "1000"),
]


def _rows_built(monkeypatch):
    """A list that gets an entry whenever a row is made from a constant."""
    from percolab.pca import Configuration

    built = []
    monkeypatch.setattr(Configuration, "constant",
                        classmethod(lambda cls, *args: built.append(args)))
    return built


@pytest.mark.parametrize("command", [("simulate",), ("verify", "stationary")], ids=" ".join)
@pytest.mark.parametrize("width, steps, message", [
    (10**5, 10**6, " x --steps 1000000 has 100000000000 site updates, more than the "
                   "10000000000 "),
    (10**8, 1, " bytes of rows, more than the 1000000000 "),
    (10**16, 1, " has 10000000000000000 site updates, more than the 10000000000 "),
], ids=["sites", "bytes", "beyond-memory"])
def test_row_commands_refuse_more_than_their_budgets_before_building_a_row(
        capsys, monkeypatch, command, width, steps, message):
    # --width x --steps and the row bytes are counted before any row is built
    built = _rows_built(monkeypatch)
    code = main([*command, "--p", "1/4", "--q", "1/4", "--width", str(width),
                 "--steps", str(steps)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {' '.join(command)}: --width {width}")
    assert captured.err.count("\n") == 1 and message in captured.err
    assert built == []


def test_simulate_counts_the_bytes_of_its_per_step_records(capsys, monkeypatch):
    # a one-site row of 10**6 steps keeps 10**6 records: 1.4e9 bytes
    built = _rows_built(monkeypatch)
    code, err = exit_status(capsys, "simulate", "--p", "1/4", "--q", "1/4", "--width", "1",
                            "--steps", "1000000")
    assert code == 2 and built == []
    assert err == ("error: simulate: --width 1 and --steps 1000000 has 1400000050 bytes of "
                   "rows, more than the 1000000000 that one run may visit\n")


@pytest.mark.parametrize("command", [("simulate",), ("verify", "stationary")], ids=" ".join)
def test_a_narrow_row_counts_each_step_as_a_floor_of_sites(capsys, monkeypatch, command):
    # a step costs about as much at width 1 as at width 5 000, so 10**10
    # one-site steps (at p = q = 0 no window settles) are refused at once
    built = _rows_built(monkeypatch)
    code, err = exit_status(capsys, *command, "--p", "0", "--q", "0", "--width", "1",
                            "--steps", "10000000000")
    assert code == 2 and built == []
    assert err == (f"error: {' '.join(command)}: --width 1 x --steps 10000000000 (at least "
                   "5000 sites a step) has 50000000000000 site updates, more than the "
                   "10000000000 that one run may visit\n")


def test_a_row_command_of_exactly_its_budgets_runs(capsys, monkeypatch):
    from percolab import cli

    argv = ("verify", "stationary", "--p", "1/4", "--q", "1/4", "--width", "20", "--steps", "3")
    monkeypatch.setattr(cli, "_MAX_SITES", 60)
    monkeypatch.setattr(cli, "_STEP_SITES", 20)
    monkeypatch.setattr(cli, "_MAX_ROW_BYTES", 20 * cli._SITE_BYTES)
    assert exit_status(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "_MAX_SITES", 59)
    code, err = exit_status(capsys, *argv)
    assert code == 2 and " --steps 3 has 60 site updates, more than the 59 " in err
    monkeypatch.setattr(cli, "_STEP_SITES", 21)
    code, err = exit_status(capsys, *argv)
    assert code == 2 and " (at least 21 sites a step) has 63 site updates, " in err
    monkeypatch.setattr(cli, "_STEP_SITES", 20)
    monkeypatch.setattr(cli, "_MAX_SITES", 60)
    monkeypatch.setattr(cli, "_MAX_ROW_BYTES", 20 * cli._SITE_BYTES - 1)
    code, err = exit_status(capsys, *argv)
    assert code == 2 and f" has {20 * cli._SITE_BYTES} bytes of rows, more than " in err


@pytest.mark.parametrize("flag", ["--width", "--steps"])
@pytest.mark.parametrize("command", [("simulate",), ("verify", "stationary")], ids=" ".join)
def test_row_commands_read_width_and_steps_as_counts(capsys, monkeypatch, command, flag):
    built = _rows_built(monkeypatch)
    code, err = exit_status(capsys, *command, "--p", "1/4", "--q", "1/4", flag, "-1")
    assert code == 2 and built == []
    assert err == f"error: argument {flag}: count must be >= 0, got '-1'\n"


def test_readme_and_benchmark_rows_fit_ten_times_inside_the_budgets(capsys, monkeypatch):
    from percolab import cli, pca

    monkeypatch.setattr(cli, "_MAX_SITES", cli._MAX_SITES // 10)
    monkeypatch.setattr(cli, "_MAX_ROW_BYTES", cli._MAX_ROW_BYTES // 10)
    # counted, not run
    monkeypatch.setattr(pca, "trajectory", lambda *args: pca.TrajectoryResult((), None))
    monkeypatch.setattr(pca, "last_row", lambda *args: pca.Configuration([0] * 6))
    workloads = _perfbench_workloads()
    commands = [*README_ROW_COMMANDS,
                *(argv for name in ("mc_fast_decay", "mc_slow_decay")
                  for argv in workloads.commands(name, 0) if argv[0] != "game")]
    assert len(commands) == 6
    for argv in commands:
        assert exit_status(capsys, *argv)[0] == 0, argv


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


def _dict_writer_text(fieldnames, rows):
    """``rows`` as the standard library's csv.DictWriter writes them."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    ("simulate", "--p", "1/4", "--q", "1/4", "--init", "qmarks", "--width", "30", "--steps", "5"),
    ("game", "--version", "v3", "--p", "1/10", "--q", "1/10", "--horizons", "2,5",
     "--samples", "40"),
    ("sweep", "--version", "v1", "--p-grid", "0:1/3:1/3", "--q-grid", "1/5:0.25:0.05",
     "--horizons", "3", "--samples", "30"),
], ids=lambda argv: argv[0])
def test_csv_output_is_what_csv_dictwriter_writes(capsys, argv):
    # the CSV is joined by hand; its JSON rows, written by csv.DictWriter,
    # must give the same text byte for byte
    code, text = run_cli(capsys, *argv)
    _, as_json = run_cli(capsys, *argv, "--format", "json")
    rows = json.loads(as_json)
    assert code == 0 and len(rows) >= 2
    assert text == _dict_writer_text(list(rows[0]), rows)


def test_csv_fields_are_written_as_csv_dictwriter_writes_them():
    # a sweep row's p as a Fraction and its interval as floats, next to ints
    # and strings
    fields = ("version", "p", "q", "horizon", "draw_fraction", "ci_low", "ci_high", "seed")
    rows = [{"version": "V1", "p": Fraction(1, 3), "q": "1/5", "horizon": 3,
             "draw_fraction": 0.1, "ci_low": 1.7728955736826037e-05, "ci_high": 0.3333333333333333,
             "seed": 2**64 - 1},
            {"version": "V4", "p": Fraction(0), "q": "0", "horizon": 0, "draw_fraction": 1.0,
             "ci_low": 0.0, "ci_high": 1.0, "seed": 0}]
    assert _csv_text(fields, rows) == _dict_writer_text(fields, rows)


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
    # the pushforward is one row of each entry's plan, which a partially
    # specified entry's value shares, so every comparison reads it once
    from percolab import measures

    called = []
    pushforward = measures.pushforward_cylinder
    monkeypatch.setattr(measures, "pushforward_cylinder",
                        lambda mu, fid, params, **kw: called.append(fid) or
                        pushforward(mu, fid, params, **kw))
    code, out = run_cli(capsys, "verify", "formulas", "--measures", "0")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["comparisons"] == 3 * 20 * 13  # 3 point masses x 20 points x 13 entries
    assert sorted(set(called)) == sorted(measures.CLOSED_FORM_IDS)
    assert len(called) == 3 * 20 * 13


def test_verify_lemmas_builds_each_law_and_verdict_once_per_point(capsys, monkeypatch):
    # the class law masses are evaluated once per lemma and point, not once per
    # class pair, and each class pair's integer verdict is made once, not once
    # per triple pair
    from percolab import orders
    from percolab.core import Params

    builds = []
    law_masses = Params.law_masses
    monkeypatch.setattr(Params, "law_masses",
                        property(lambda self: builds.append(self) or law_masses.fget(self)))
    verdicts = []
    margins = orders._class_pair_margins
    monkeypatch.setattr(orders, "_class_pair_margins",
                        lambda *args: verdicts.append(args) or margins(*args))
    per_call = []
    verify_lemma = orders.verify_lemma

    def counting(which, params):
        before = len(verdicts)
        report = verify_lemma(which, params)
        per_call.append(len(verdicts) - before)
        return report

    monkeypatch.setattr(orders, "verify_lemma", counting)
    code, out = run_cli(capsys, "verify", "lemmas", "--grid", "fine")
    report = json.loads(out)
    assert code == 0 and report["points"] == 28
    assert len(builds) == 2 * 28
    assert len(per_call) == 2 * 28 and 0 < min(per_call) and max(per_call) <= 9


def test_verify_failures_are_listed_measure_by_measure(capsys, monkeypatch):
    # verify weights loops over points outside measures and verify formulas
    # over measures outside points; both list failures measure by measure
    from percolab import measures

    master = measures.verify_master_inequality
    closed = measures.closed_form

    def negative_slack(mu, params):
        rep = master(mu, params)
        return rep._replace(nums=(*rep.nums[:-1], -1))  # overall slack -1/den

    def negative_remainder(fid, mu, params):
        res = closed(fid, mu, params)
        # C = -1/den, between the value and the pushforward
        return res._replace(names=("C",), nums=(res.nums[0], -1, res.nums[-1]))

    monkeypatch.setattr(measures, "verify_master_inequality", negative_slack)
    monkeypatch.setattr(measures, "closed_form", negative_remainder)
    names = [mu.name for mu in measures.sampled_measures(0, DEFAULT_SEED)]

    code, out = run_cli(capsys, "verify", "weights", "--measures", "0", "--grid", "1/2")
    assert code == 1
    halves = ("0/1", "1/2", "1/1")
    points = [(p, q) for p in halves for q in halves if 0 < Fraction(p) + Fraction(q) <= 1]
    assert [(f["measure"], f["p"], f["q"]) for f in json.loads(out)["failures"]] == \
        [(name, p, q) for name in names for p, q in points]

    code, out = run_cli(capsys, "verify", "formulas", "--measures", "0")
    assert code == 1
    assert [(f["measure"], f["p"], f["q"], f["formula"])
            for f in json.loads(out)["failures"]] == \
        [(name, measures.frac_str(p), measures.frac_str(q), fid)
         for name in names for p, q in measures.FORMULA_GRID
         for fid in measures.CLOSED_FORM_IDS]


def _count_compiles(monkeypatch, measures):
    """The (p, q) at which each plan is compiled, in compile order; the points
    themselves are not held."""
    built = []
    real = measures._compile

    def counting(plan, params):
        built.append((params.p, params.q))
        return real(plan, params)

    monkeypatch.setattr(measures, "_compile", counting)
    return built


def _track_points(monkeypatch):
    """The (p, q) of each Params the CLI makes, and how many earlier ones were
    still alive as each was made."""
    from percolab import cli

    made, refs, alive = [], [], []

    def tracked(p, q):
        alive.append(sum(ref() is not None for ref in refs))
        params = Params(p, q)
        made.append((params.p, params.q))
        refs.append(weakref.ref(params))
        return params

    monkeypatch.setattr(cli, "Params", tracked)
    return made, refs, alive


def test_verify_weights_caches_hold_one_point(capsys, monkeypatch):
    # each point keeps its 12 kernels and its master form, built once, and is
    # freed when the next is done: however fine the grid, one point's worth is
    # held besides the point being made
    from percolab import measures

    made, refs, alive = _track_points(monkeypatch)
    built = _count_compiles(monkeypatch, measures)
    for grid in ("1/4", "1/8"):
        for kept in (made, refs, alive, built):
            kept.clear()
        measures._pushforward_kernel.cache_clear()
        code, out = run_cli(capsys, "verify", "weights", "--measures", "0", "--grid", grid)
        assert code == 0
        points = json.loads(out)["points"]
        assert alive == [0] + [1] * (points - 1)
        assert measures._pushforward_kernel.cache_info().misses == 12 * points
        assert built == made


def test_game_sweep_holds_one_point_at_a_time(capsys, monkeypatch):
    # a point, with the variate cuts it keeps, is freed once its rows are made
    made, _, alive = _track_points(monkeypatch)
    code, _ = run_cli(capsys, "game", "--version", "v1", "--p-grid", "0:1:1/4",
                      "--q-grid", "0:1:1/4", "--horizons", "3", "--samples", "20")
    assert code == 0 and len(made) == 15
    assert alive == [0] + [1] * 14


def test_verify_formulas_builds_each_point_once(capsys, monkeypatch):
    # one kernel and one compiled entry per (catalog entry, point), with every
    # measure walked at each point in turn
    from percolab import measures

    measures._pushforward_kernel.cache_clear()
    built = _count_compiles(monkeypatch, measures)
    code, out = run_cli(capsys, "verify", "formulas", "--measures", "1")
    assert code == 0 and json.loads(out)["measures"] > 1
    entries = len(measures.CLOSED_FORM_IDS)
    assert measures._pushforward_kernel.cache_info().misses == entries * len(measures.FORMULA_GRID)
    assert built == [point for point in measures.FORMULA_GRID for _ in range(entries)]


def test_verify_formulas_holds_one_point(capsys, monkeypatch):
    # a point, with the kernels and compiled entries it keeps, is freed once
    # every measure has been read at it
    from percolab import measures

    made, _, alive = _track_points(monkeypatch)
    code, _ = run_cli(capsys, "verify", "formulas", "--measures", "0")
    assert code == 0
    assert made == list(measures.FORMULA_GRID)
    assert alive == [0] + [1] * (len(measures.FORMULA_GRID) - 1)


def test_verify_formulas_reads_the_rule_table_of_each_run(capsys, monkeypatch):
    # each run makes its points afresh, so nothing built under one table is
    # read under the next: a table rotated between two runs in one
    # interpreter fails the second
    from percolab import core

    assert run_cli(capsys, "verify", "formulas", "--measures", "1")[0] == 0
    monkeypatch.setattr(core, "CLASS_LAWS", core.CLASS_LAWS[1:] + core.CLASS_LAWS[:1])
    assert run_cli(capsys, "verify", "formulas", "--measures", "1")[0] == 1


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


def test_min_overall_slack_compares_across_denominators(capsys, monkeypatch):
    # run i reports its overall slack as (i + 1) / (i + 1)^2 = 1/(i + 1): the
    # last run has the largest numerator and the least slack, so comparing
    # numerators without cross-multiplying would pick the first run's 1/1
    from percolab import measures

    master = measures.verify_master_inequality
    runs = []

    def rescaled(mu, params):
        rep = master(mu, params)
        runs.append(len(runs) + 1)
        return rep._replace(nums=(*rep.nums[:-1], runs[-1]), den=runs[-1] ** 2)

    monkeypatch.setattr(measures, "verify_master_inequality", rescaled)
    code, out = run_cli(capsys, "verify", "weights", "--measures", "0", "--grid", "1/2")
    report = json.loads(out)
    assert code == 0 and report["runs"] == len(runs) == 15
    assert report["min_overall_slack"] == "1/15" == str(min(Fraction(n, n * n) for n in runs))


# (count, sha256 prefix of their JSON list) of the failures that the default
# verify weights prints with the coefficient of "(p(1-r)+q) mu(10?)" lowered
# by r, pinned so that the bytes of a failure report cannot drift.
_LOWERED_FAILURES = (20, "5cfffc8b32e5df42")


def test_a_lowered_master_coefficient_fails_verify_weights(capsys, monkeypatch):
    import oracles
    from percolab import measures

    lowered = tuple((name, (lambda p, q, r: p * (1 - r) + q - r) if "mu(10?)" in name else coef,
                     pats) for name, coef, pats in measures._MASTER_TERMS)
    monkeypatch.setattr(measures, "_MASTER_TERMS", lowered)
    monkeypatch.setattr(oracles, "_MASTER_TERMS", lowered)
    measures._master_plan.cache_clear()
    try:
        code, out = run_cli(capsys, "verify", "weights")
    finally:
        measures._master_plan.cache_clear()
    failures = json.loads(out)["failures"]
    assert code == 1 and all("(p(1-r)+q) mu(10?)" in
                             [t["name"] for t in f["terms"] if t["value"].startswith("-")]
                             for f in failures)
    quarters = [Fraction(i, 4) for i in range(5)]
    want = [rep.to_json_dict() for mu in measures.sampled_measures(3, DEFAULT_SEED)
            for p in quarters for q in quarters if 0 < p + q <= 1
            for rep in [oracles.master_report(mu, Params(p, q))] if not rep.passed]
    assert failures == want
    digest = hashlib.sha256(json.dumps(failures).encode()).hexdigest()[:16]
    assert (len(failures), digest) == _LOWERED_FAILURES


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
    (),
], ids=lambda argv: " ".join(argv) or "no check")
def test_verify_rejects_bad_grid_and_measures(argv):
    # a subprocess with a timeout, so a grid step that never advances fails fast
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", "verify", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    want = "error: argument " if argv else "error: the following arguments are required: check"
    assert proc.stderr.startswith(want) and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [(), ("simulate", "--p", "1/4", "--q", "1/4", "--bogus")],
                         ids=["no command", "unknown flag"])
def test_top_level_parse_errors_are_one_line(capsys, argv):
    code, err = exit_status(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "stationary", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: percolab verify stationary") and "--order" not in out


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


def test_readme_and_benchmark_games_fit_ten_times_inside_the_site_budget(capsys, monkeypatch):
    from percolab import cli, game

    monkeypatch.setattr(cli, "_MAX_SITES", cli._MAX_SITES // 10)
    monkeypatch.setattr(game, "draw_fraction", lambda *args: ())  # counted, not run
    workloads = _perfbench_workloads()
    commands = [*README_MONTE_CARLO_DIGESTS,
                ("game", "--p", "1/4", "--q", "1/4", "--samples", "3000", "--horizons", "4,9"),
                *(argv for name in ("mc_fast_decay", "mc_slow_decay")
                  for argv in workloads.commands(name, 0) if argv[0] == "game")]
    assert len(commands) == 5
    for argv in commands:
        assert exit_status(capsys, *argv)[0] == 0, argv


def _seed_flags(parser, words=()):
    """(command words, action) of every --seed flag of the parser's commands."""
    for action in parser._actions:
        if "--seed" in action.option_strings:
            yield words, action
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _seed_flags(sub, (*words, name))


def test_every_seed_flag_reads_one_seed_type():
    from percolab.cli import _seed, build_parser

    flags = dict(_seed_flags(build_parser()))
    assert sorted(map(" ".join, flags)) == [
        "game", "simulate", "sweep", "verify formulas", "verify stationary", "verify tables",
        "verify weights"]
    assert all(action.type is _seed for action in flags.values())


@pytest.mark.parametrize("seed", [str(2**64), "-1", "2**64", "7.0"])
@pytest.mark.parametrize("argv", [
    ("game", "--p", "1/4", "--q", "1/4", "--samples", "10", "--horizons", "3"),
    ("simulate", "--p", "1/4", "--q", "1/4", "--width", "20", "--steps", "3"),
    ("verify", "formulas", "--measures", "0"),
], ids=lambda argv: argv[0])
def test_a_seed_outside_0_to_2_64_exits_2(capsys, argv, seed):
    # the hash reads a seed mod 2**64: --seed 2**64 drew the draws of --seed 0
    # while each echoed its own seed
    code, err = exit_status(capsys, *argv, "--seed", seed)
    assert code == 2
    assert err == f"error: argument --seed: a seed is an integer in [0, 2**64), got {seed!r}\n"


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_seeds_at_the_ends_of_the_range_run_and_are_echoed(capsys, seed):
    code, out = run_cli(capsys, "game", "--p", "1/4", "--q", "1/4", "--samples", "10",
                        "--horizons", "3", "--seed", seed, "--format", "json")
    assert code == 0 and [row["seed"] for row in json.loads(out)] == [int(seed)]


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


@pytest.mark.parametrize("argv, sites", [
    (("game", "--p", "1/4", "--q", "1/4", "--samples", "100000000000000000000", "--horizons",
      "1"), "100000000000000000000"),
    # the README sweep's 21 points in the region, to horizon 1000
    (("sweep", "--p-grid", "0:1:1/5", "--q-grid", "0:1:1/5", "--horizons", "10,1000",
      "--samples", "2000"), "42000000000"),
], ids=["game", "sweep"])
def test_game_refuses_more_label_sites_than_its_budget_before_hashing(capsys, monkeypatch, argv,
                                                                      sites):
    # points x samples x (largest horizon)^2 is counted before any seed is
    # made: 10^20 samples at horizon 1 hashed chunk after chunk for minutes
    from percolab import game

    hashed = []
    monkeypatch.setattr(game, "u01_block", lambda *args: hashed.append(args))
    monkeypatch.setattr(game.SeededStream, "child_seeds_u64", lambda *args: hashed.append(args))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f" has {sites} label sites, more than the 10000000000 " in captured.err
    assert hashed == []


def test_a_game_of_exactly_the_site_budget_runs(capsys, monkeypatch):
    from percolab import cli

    # 6 points of the grid lie in the region: 6 x 5 samples x 3^2 sites
    argv = ("sweep", "--p-grid", "0:1:1/2", "--q-grid", "0:1:1/2", "--horizons", "2,3",
            "--samples", "5")
    monkeypatch.setattr(cli, "_MAX_SITES", 270)
    assert exit_status(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "_MAX_SITES", 269)
    code, err = exit_status(capsys, *argv)
    assert code == 2 and " has 270 label sites, more than the 269 " in err
    assert err.count("\n") == 1


def test_game_rejects_a_horizon_wider_than_the_cell_budget():
    # a subprocess with a timeout: the first line of one sample at this horizon
    # alone would ask for two 2*10^8-entry uint64 arrays
    proc = subprocess.run([sys.executable, "-m", "percolab.cli", "game", "--p", "1/4", "--q",
                           "1/4", "--horizons", "100000000", "--samples", "1"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: horizon must be <= 524287, got 100000000\n"


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
    kernel_run = _traced_summary("verify", "kernel", "--version", "v1", "--p", "1/2",
                                 "--q", "1/4")
    spans = kernel_run["spans"]
    # the tracer rebinds game's name for core's check, which reads core's
    # one-site rule: it classifies no line and hashes nothing
    assert spans["game.kernel_check"]["count"] == 1
    assert {"game.classify", "pca.hash"}.isdisjoint(spans)
    assert "game.classify_sites" not in kernel_run["counters"]
    _, game_run = _traced_run("game", "--p", "0", "--q", "0", "--horizons", "2,4",
                              "--samples", "10")
    _, simulate_run = _traced_run("simulate", "--p", "1/4", "--q", "1/4", "--width", "20",
                                  "--steps", "3")
    assert {"pca.hash", "game.classify", "game.induction"} <= set(game_run["spans"])
    assert {"pca.hash", "pca.step"} <= set(simulate_run["spans"])
    # simulate hashes each of its 3 x 20 output sites once, through u01_block,
    # and steps only through step: work done elsewhere would read as no time
    assert simulate_run["counters"]["pca.hash_variates"] == 3 * 20
    assert simulate_run["spans"]["pca.step"]["count"] == 3
    # 2 and 4 are one batch, which hashes each (sample, line) below 4 once:
    # 10 samples x 4^2 sites, plus the 10 child seeds
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


def _counting_everywhere(monkeypatch, module, attr):
    """The texts module.attr is called with, counted by a wrapper rebound in
    every percolab namespace that holds the function, as the benchmark's
    tracer (perfbench/spans.py) rebinds it, keywords passed through."""
    original, calls = getattr(module, attr), []

    def counting(mu, text, *args, **kwargs):
        calls.append(text)
        return original(mu, text, *args, **kwargs)

    for name, namespace in list(sys.modules.items()):
        if name == "percolab" or name.startswith("percolab."):
            for key, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, key, counting)
    return calls


def test_benchmark_tracer_counts_every_basis_value_read(capsys, monkeypatch):
    # exact_measures' commands read every pushforward and cylinder value through
    # the two module-level functions the tracer wraps: its recorded
    # measures.pushforward_calls and measures.cylinder_calls, 2 580 and 3 655
    from percolab import measures

    pushforwards = _counting_everywhere(monkeypatch, measures, "pushforward_cylinder")
    cylinders = _counting_everywhere(monkeypatch, measures, "cylinder_prob")
    assert run_cli(capsys, "verify", "weights", "--measures", "20", "--grid", "1/2",
                   "--seed", "1729")[0] == 0
    assert run_cli(capsys, "verify", "tables", "--measures", "20", "--seed", "1729")[0] == 0
    assert (len(pushforwards), len(cylinders)) == (2580, 3655)


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
    # twelve chunks of 2^20 // 3 samples at horizon 1: seeds made up front for
    # all 4 000 000 samples would hold 32 MB at once, and peak near 125 MB
    peak_kb = _peak_rss_kb("game", "--version", "v1", "--p", "1/4", "--q", "1/4",
                           "--horizons", "1", "--samples", "4000000", "--seed", "7")
    assert peak_kb < 80 * 1024


def test_simulate_runs_on_a_settled_heap():
    # each row allocates and frees numpy temporaries of about 80 KB; were
    # glibc's heap top handed back and faulted in again at every row, this
    # would take about 29 000 to 48 000 minor faults instead of about 6 100
    faults = _fresh_run("print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt,"
                        " file=sys.stderr)",
                        "simulate", "--p", "1/4", "--q", "1/4", "--width", "10000",
                        "--steps", "1000")
    assert faults < 15_000


# ------------------------------------------------------------------ imports

# Runs each JSON-given argv through cli.main in one fresh interpreter and prints
# which numeric modules were loaded whenever build_parser was called and at
# the end, with main's exit codes and the modules that importing cli added.
_MODULE_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import percolab.cli as cli
imported = sorted(set(sys.modules) - before)

def loaded():
    return [name for name in ("numpy", "percolab.pca", "percolab.game", "percolab.measures",
                              "percolab.orders") if name in sys.modules]

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
report["stdlib_at_exit"] = [name for name in ("dataclasses", "inspect", "ast")
                            if name in sys.modules]
report["imported"] = imported
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
                            ["verify", "weights", "--measures", "1", "--grid", "1/2"],
                            ["verify", "kernel", "--p", "1/3", "--q", "1/5"])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["at_exit"] == ["percolab.measures", "percolab.orders"]
    # no record is a dataclass, so no exact command pays for dataclasses and
    # the inspect and ast modules it loads: about 7 ms of start-up
    assert report["stdlib_at_exit"] == []


def test_importing_the_cli_skips_the_metadata_machinery():
    # importlib.metadata and the email parser it loads cost every command
    # about 20 ms of start-up; the version is read from the dist-info directly
    report = _probe_modules()
    assert {"importlib.metadata", "email"}.isdisjoint(report["imported"])
    assert "percolab.cli" in report["imported"]


_PLAN_PROBE = """
import contextlib, io, json, sys
import percolab.cli as cli
from percolab import measures

def built():
    return sorted(name for name, fn in vars(measures).items()
                  if hasattr(fn, "cache_info") and fn.cache_info().currsize)

report = [built()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        cli.main(argv)
    report.append(built())
print(json.dumps(report))
"""


def test_start_up_builds_no_plan():
    # the exact forms are transcribed on first use: importing the cli and
    # printing its help, the benchmark's set-up, fill no cache in measures
    commands = [["--help"], ["verify", "--help"],
                ["verify", "weights", "--measures", "0", "--grid", "1"]]
    proc = subprocess.run([sys.executable, "-c", _PLAN_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_help, after_verify_help, after_weights = json.loads(proc.stdout)
    assert after_import == after_help == after_verify_help == []
    assert {"_master_plan", "_weights"} <= set(after_weights)


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "1/4", "--q", "1/4", "--width", "20", "--steps", "3"],
    ["game", "--p", "1/4", "--q", "1/4", "--horizons", "3", "--samples", "10"],
    ["sweep", "--p-grid", "0:1/2:1/2", "--q-grid", "1/4:1/4:1", "--horizons", "3",
     "--samples", "10"],
    ["verify", "stationary", "--p", "1/4", "--q", "1/4", "--width", "50", "--steps", "3"],
], ids=lambda argv: " ".join(argv[:2]) if argv[0] == "verify" else argv[0])
def test_row_commands_import_numpy_before_the_parser_is_built(argv):
    # the benchmark counts everything up to build_parser's return as set-up and
    # the rest as the command's work, so an import inside the command would
    # slow its work rate by the whole import
    report = _probe_modules(argv)
    assert report["codes"] == [0]
    measures = ["percolab.measures"] if argv[:2] == ["verify", "stationary"] else []
    assert report["at_build_parser"] == [["numpy", "percolab.pca", "percolab.game", *measures]]
    assert "dataclasses" not in report["stdlib_at_exit"]  # numpy itself loads inspect


@pytest.mark.parametrize("argv, layers", [
    (["simulate", "--p", "1/4", "--q", "1/4", "--width", "20", "--steps", "3"],
     ["numpy", "percolab.pca", "percolab.game"]),
    (["verify", "kernel", "--version", "v1", "--p", "1/2", "--q", "1/4"], []),
    (["verify", "lemmas"], ["percolab.orders"]),
    (["verify", "formulas", "--measures", "1"], ["percolab.measures"]),
    (["verify", "tables", "--measures", "1"], ["percolab.measures"]),
    (["verify", "weights", "--measures", "1", "--grid", "1/2"], ["percolab.measures"]),
], ids=lambda argv: "core only" if not argv else " ".join(argv[:2]) if argv[0] == "verify"
    else argv[0])
def test_each_command_imports_only_the_layers_it_reads(argv, layers):
    # measures and orders are imported for the checks that read them, and
    # before the parser is built, so their import is set-up for those checks
    # and costs the other commands nothing
    report = _probe_modules(argv)
    assert report["codes"] == [0]
    assert report["at_build_parser"] == [layers] and report["at_exit"] == layers


# ------------------------------------------------------------------ process ends

_EXIT_PROBE = """
import atexit, gc, json, sys
import percolab.cli as cli

argv, out = json.loads(sys.argv[1]), sys.argv[2]
codes = [cli.main(argv), cli.main([*argv, "--out", out])]
frozen = [gc.get_freeze_count()]
atexit._run_exitfuncs()  # every handler, as shutdown runs them; shutdown then runs none
frozen.append(gc.get_freeze_count())
print(json.dumps({"codes": codes, "frozen": frozen}), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "1/4", "--q", "1/4", "--width", "30", "--steps", "5"],
    ["verify", "lemmas"],
], ids=lambda argv: argv[0])
def test_main_freezes_the_heap_at_exit_after_its_output(tmp_path, capsys, argv):
    # gc.freeze at exit spares the interpreter's final collections the
    # import-time objects; it must run in the exit handlers, not before, and
    # change no output byte
    code, want = run_cli(capsys, *argv)
    assert code == 0
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, json.dumps(argv), str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["frozen"][0] == 0 < report["frozen"][1]
    assert proc.stdout == want
    assert out.read_text() == want


_LAYOUTS = {  # entry, metadata file in it (None: the entry is the file), version
    "dist-info": ("artifact-9.9.dist-info", "METADATA", "9.9"),
    "egg-info": ("artifact.egg-info", "PKG-INFO", "3.1.4"),
    "egg-info-file": ("Artifact.EGG-INFO", None, "2.7"),
    "no-version": ("artifact-1.0.dist-info", "METADATA", None),
    "none": None,
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_artifact_version_agrees_with_importlib_metadata(tmp_path, monkeypatch, layout):
    from importlib import metadata

    if _LAYOUTS[layout]:
        entry, filename, version = _LAYOUTS[layout]
        headers = "Metadata-Version: 2.1\nName: artifact\n"
        if version:
            headers += f"Version: {version}\n"
        path = tmp_path / entry
        if filename:
            path.mkdir()
            path /= filename
        path.write_text(headers + "\nVersion: not-a-header\n")
    (tmp_path / "artifactual-1.0.dist-info").mkdir()  # another distribution's name
    # "none" searches tmp_path alone: an installed artifact further down
    # sys.path would be found
    monkeypatch.setattr(sys, "path", [str(tmp_path)] + ([] if layout == "none" else sys.path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # a missing header's None
        try:
            want = metadata.version("artifact")
        except (metadata.PackageNotFoundError, KeyError):
            want = None
    # no distribution, or one without a Version header, reads "unknown"
    assert _artifact_version() == (want or "unknown")
    assert want == (_LAYOUTS[layout] or (None, None, None))[2]


# ------------------------------------------------------------------ fuzz

# Small values for each flag type of build_parser(), found by the type object
# itself so a new flag of a known type is covered without editing the test,
# and junk tokens that any flag may get.
_SMALL_VALUES = {
    "_rational": ["0", "1", "1/4", "1/3", "0.2", "2/5", "-1/4", "5/4", "1e-3"],
    "_grid_spec": ["0:1:1/2", "0:1/2:1/4", "1/4:1/4:1", "-1:1:1", "1:0:1/2", "0:1:0"],
    "_grid_step": ["1", "1/2", "1/3", "1/4", "0", "2", "-1/2"],
    "_count": ["0", "1", "2", "3", "-1"],
    "_seed": ["0", "7", "1729", "-1", str(2**64)],
    "_int_list": ["0", "3", "1,4", "4,1,4", "-1", ",", "2,"],
    "int": ["-2", "-1", "0", "1", "3"],
}
_JUNK = ["", "x", "-", "--", "nan", "inf", "1/0", "1e1001", "0x10", "1_0", " 2 ", "٣",
         "--bogus", "-x", "é"]


def _commands(parser, words=()):
    """(command words, parser) of every command of ``parser``, leaves only."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, (*words, name))


def _flag_values(action, tmp_path):
    """A strategy for the token that follows one optional flag: a small value
    four times in five, else junk; for --out a path in ``tmp_path`` (the
    directory itself among them) or "", which writes to stdout."""
    from hypothesis import strategies as st

    if "--out" in action.option_strings:  # every path it names lies in tmp_path
        return st.sampled_from([*(str(tmp_path / name) for name in ("out.txt", "", *_JUNK)),
                                str(tmp_path / "no" / "out.txt"), ""])
    if action.choices is not None:
        small = list(action.choices)
    else:
        small = _SMALL_VALUES[getattr(action.type, "__name__", None)]
    return st.one_of(st.sampled_from(small), st.sampled_from(small), st.sampled_from(small),
                     st.sampled_from(small), st.sampled_from(_JUNK))


def _argv(tmp_path):
    """A strategy for argv lines: a command of build_parser() with its
    required flags and some others in any order (help aside), each with a
    small or junk value; one time in ten each, the command words are
    dropped, the first flag is left out or a junk token is added."""
    from hypothesis import strategies as st

    from percolab.cli import build_parser

    commands = list(_commands(build_parser()))

    @st.composite
    def argv(draw):
        words, parser = draw(st.sampled_from(commands))
        flags = [a for a in parser._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        chosen = [a for a in flags if a.required] + draw(st.lists(st.sampled_from(flags),
                                                                  max_size=4))

        def rarely():
            return draw(st.sampled_from([False] * 9 + [True]))

        tokens = [] if rarely() else list(words)
        for i, action in enumerate(draw(st.permutations(chosen))):
            if i == 0 and rarely():
                continue
            tokens += [draw(st.sampled_from(action.option_strings)),
                       draw(_flag_values(action, tmp_path))]
        if rarely():
            tokens.append(draw(st.sampled_from(_JUNK)))
        return tokens

    return argv()


def test_the_parser_ends_every_small_argv_in_exit_0_1_or_2(tmp_path, capsys):
    # every command line built from the parser's own commands, flags and
    # choices, at small magnitudes and with junk tokens, ends in exit 0, 1 or
    # 2, and an exit 2 prints exactly one line, an error: line
    from hypothesis import HealthCheck, given, settings

    @settings(max_examples=50, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(_argv(tmp_path))
    def check(argv):
        code, err = exit_status(capsys, *argv)
        assert code in (0, 1, 2), (argv, code)
        lines = err.splitlines()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        else:
            assert "error:" not in err, (argv, err)

    check()
