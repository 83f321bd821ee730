import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from percolab import game
from percolab.core import (
    EnvSymbol,
    GameClass,
    GameVersion,
    Params,
    SiteLabel,
    StochOrder,
    site_class,
    symbol_leq,
)
from percolab.game import classify_line, draw_fraction, kernel_correspondence, wilson_interval
from percolab.pca import SeededStream

from oracles import (
    CLASS_TABLE,
    LocalDistribution,
    as_dict,
    child_stream,
    classify_by_table,
    line_of,
    line_step,
    out_set,
    rule_law,
    sample_labels,
    solve_sample,
)

W, D, L = GameClass.W, GameClass.D, GameClass.L
TRAP, OPEN, TARGET = SiteLabel.TRAP, SiteLabel.OPEN, SiteLabel.TARGET

PARAM_GRID = [
    Params(Fraction(1, 3), Fraction(1, 5)),
    Params(0, 1),
    Params(1, 0),
    Params(Fraction(1, 2), Fraction(1, 2)),
    Params(Fraction(1, 100), Fraction(1, 100)),
]


# ------------------------------------------------------------------ out sets

def test_out_set_examples():
    assert out_set(GameVersion.V1, 0, 0) == ((0, 2), (1, 1), (2, 0))
    assert out_set(GameVersion.V4, 5, -2) == ((4, -1), (5, -1), (6, -1))
    assert out_set(GameVersion.V3, 0, 0) == ((1, 0), (0, 1), (-1, 2))
    assert out_set(GameVersion.V2, 1, 1) == ((1, 2), (2, 2), (3, 2))


@given(st.integers(-50, 50), st.integers(-50, 50), st.sampled_from(list(GameVersion)))
def test_out_set_respects_line_structure(x, y, v):
    k = line_of(v, x, y)
    outs = out_set(v, x, y)
    # successors all on the next line, and their x-indices form the window x+i..x+i+2
    assert all(line_of(v, *s) == k + line_step(v) for s in outs)
    assert sorted(s[0] for s in outs) == [x + v.offset + j for j in range(3)]


def test_v1_parity():
    for x, y in [(0, 0), (3, -1), (-2, 5)]:
        for s in out_set(GameVersion.V1, x, y):
            assert (s[0] + s[1]) % 2 == (x + y) % 2


# ------------------------------------------------------------- classification

def test_classify_line_spec_cases():
    v = GameVersion.V1
    assert classify_line([TRAP], [L, L, L], v)[0] == W
    assert classify_line([OPEN], [W, D, W], v)[0] == D
    assert classify_line([TARGET], [W, W, W], v)[0] == L
    assert classify_line([OPEN], [W, W, W], v)[0] == L
    assert classify_line([OPEN], [D, L, D], v)[0] == W


def test_classify_line_exhaustive_single_site():
    # all 81 (label, out-neighbour classes) entries of the game's rule table
    for v in GameVersion:
        for label in SiteLabel:
            for nxt in itertools.product((W, D, L), repeat=3):
                got = classify_line([label], list(nxt), v)[0]
                assert got == CLASS_TABLE[27 * label + 9 * nxt[0] + 3 * nxt[1] + nxt[2]], \
                    (label, nxt)


def test_classify_line_runs_cores_site_class():
    # verify kernel checks core.site_class, so the game loop's classify_line
    # must be that rule: on all 81 (label, triple) cases in one stacked call,
    # and on packed codes of m nested horizons, layer by layer, in int8 and
    # int16 (1 - m and 1 + m are a trap's and a target's label codes)
    cases = list(itertools.product(SiteLabel, itertools.product(GameClass, repeat=3)))
    want = [site_class(label, triple) for label, triple in cases]
    for dtype in (np.int8, np.int16):
        labels = np.array([[label] for label, _ in cases], dtype=dtype)
        nxt = np.array([triple for _, triple in cases], dtype=dtype)
        got = classify_line(labels, nxt, GameVersion.V1)
        assert got.dtype == dtype and got[:, 0].tolist() == want
    for m, dtype in ((5, np.int8), (126, np.int8), (140, np.int16)):
        codes = sorted({1 - m, 2 - m, 0, 1, 2, m, 1 + m})
        packed = list(itertools.product((1 - m, 1, 1 + m), itertools.product(codes, repeat=3)))
        labels = np.array([[label] for label, _ in packed], dtype=dtype)
        nxt = np.array([triple for _, triple in packed], dtype=dtype)
        got = classify_line(labels, nxt, GameVersion.V3)
        assert got.dtype == dtype
        # a label code decodes to its SiteLabel code at every layer
        layers = zip(_decode(labels, m)[..., 0].tolist(), _decode(nxt, m).tolist(),
                     _decode(got, m)[..., 0].tolist())
        for i, (label_layer, nxt_layer, got_layer) in enumerate(layers):
            assert got_layer == list(map(site_class, label_layer, nxt_layer)), (m, i)


@pytest.mark.parametrize("layers", [None, 1, 3])
def test_classify_line_matches_the_class_table_on_stacks(layers):
    # a (rows, width) label line against a (rows, width + 2) successor, the
    # shape the induction pass uses, or against a stack of layers of it
    rng = np.random.RandomState(2)
    for rows, width in ((1, 1), (7, 5), (200, 41)):
        labels = rng.randint(0, 3, size=(rows, width)).astype(np.int8)
        shape = (rows, width + 2) if layers is None else (layers, rows, width + 2)
        nxt = rng.randint(0, 3, size=shape).astype(np.int8)
        got = classify_line(labels, nxt, GameVersion.V1)
        assert got.dtype == np.int8
        assert np.array_equal(got, classify_by_table(labels, nxt))


def test_classify_line_width_checks():
    with pytest.raises(ValueError):
        classify_line([OPEN, OPEN], [W, W, W], GameVersion.V2)
    with pytest.raises(ValueError):
        classify_line([OPEN], [W, W, W, W, W], GameVersion.V2)


def test_classify_line_locality():
    rng = np.random.RandomState(0)
    v = GameVersion.V3
    for _ in range(60):
        labels = rng.randint(0, 3, size=8).astype(np.int8)
        nxt = rng.randint(0, 3, size=10).astype(np.int8)
        base = classify_line(labels, nxt, v)
        for j in range(10):
            for new in range(3):
                if new == nxt[j]:
                    continue
                bumped = nxt.copy()
                bumped[j] = new
                diff = np.nonzero(classify_line(labels, bumped, v) != base)[0]
                assert set(diff) <= {j - 2, j - 1, j}


def test_classify_line_stacked_rows_match_loop():
    rng = np.random.RandomState(1)
    labels = rng.randint(0, 3, size=(5, 7)).astype(np.int8)
    nxt = rng.randint(0, 3, size=(5, 9)).astype(np.int8)
    stacked = classify_line(labels, nxt, GameVersion.V2)
    for i in range(5):
        assert np.array_equal(stacked[i], classify_line(labels[i], nxt[i], GameVersion.V2))


# ------------------------------------------------------------- correspondence

@pytest.mark.parametrize("params", PARAM_GRID, ids=str)
@pytest.mark.parametrize("version", list(GameVersion), ids=lambda v: v.value)
def test_kernel_correspondence_exact(version, params):
    report = kernel_correspondence(version, params)
    assert len(report.comparisons) == 27
    assert report.passed and report.mismatch_count == 0
    assert report.to_json_dict()["mismatches"] == []


def test_kernel_correspondence_spot_values():
    p, q = Fraction(1, 3), Fraction(1, 5)
    params = Params(p, q)
    report = kernel_correspondence(GameVersion.V1, params)
    # the induced masses are integers over the scale 15, where p = 5/15 and q = 3/15
    by_triple = {c.triple: LocalDistribution(*(Fraction(m, 15) for m in c.induced))
                 for c in report.comparisons}
    for triple, induced in by_triple.items():
        assert induced == rule_law(triple, params), triple
    Z, Q, O = EnvSymbol.ZERO, EnvSymbol.QMARK, EnvSymbol.ONE
    assert as_dict(by_triple[(Z, Z, Z)]) == {"0": p, "?": Fraction(0), "1": 1 - p}
    assert as_dict(by_triple[(Z, Q, Z)]) == {"0": p, "?": 1 - p - q, "1": q}
    assert as_dict(by_triple[(O, Z, Z)]) == {"0": 1 - q, "?": Fraction(0), "1": q}


# ------------------------------------------------------------- label sampling

def test_sample_labels_keying_and_degenerate_params():
    stream = SeededStream(10)
    a = sample_labels(Params(Fraction(1, 4), Fraction(1, 4)), stream, 3, -2, 7)
    b = sample_labels(Params(Fraction(1, 4), Fraction(1, 4)), stream, 3, -2, 7)
    assert np.array_equal(a, b)
    # same sites, different line index -> fresh field
    c = sample_labels(Params(Fraction(1, 4), Fraction(1, 4)), stream, 4, -2, 7)
    assert not np.array_equal(a, c)
    assert (sample_labels(Params(1, 0), stream, 0, 0, 50) == TRAP).all()
    assert (sample_labels(Params(0, 1), stream, 0, 0, 50) == TARGET).all()
    assert (sample_labels(Params(0, 0), stream, 0, 0, 50) == OPEN).all()


def test_sample_labels_frequencies():
    params = Params(Fraction(1, 5), Fraction(3, 10))
    labels = sample_labels(params, SeededStream(77), 0, 0, 100_000)
    freqs = [(labels == s).mean() for s in SiteLabel]
    for freq, prob in zip(freqs, (0.2, 0.5, 0.3)):
        assert abs(freq - prob) < 3 * np.sqrt(prob * (1 - prob) / 100_000)


# ------------------------------------------------------------- grid solving

def test_solve_sample_geometry():
    for version in GameVersion:
        grid = solve_sample(version, Params(Fraction(1, 4), Fraction(1, 4)), 5, SeededStream(3))
        step_k = line_step(version)
        assert sorted(grid.lines) == [s * step_k for s in range(6)]
        for s in range(6):
            k = s * step_k
            assert grid.lines[k].size == 1 + 2 * s
            assert grid.origins[k] == s * version.offset
        assert (grid.lines[5 * step_k] == D).all()
        assert grid.origin_class() in (W, D, L)


def test_solve_sample_matches_batch():
    params = Params(Fraction(1, 4), Fraction(1, 4))
    stream = SeededStream(2024)
    for version in GameVersion:
        est, = draw_fraction(version, params, horizons=(8,), samples=30, stream=stream)
        single = [
            solve_sample(version, params, 8, child_stream(stream, i)).origin_class()
            for i in range(30)
        ]
        assert est.draws == sum(1 for c in single if c == D)


@pytest.mark.parametrize("horizon", [0, 1, 8])
@pytest.mark.parametrize("params", [
    Params(Fraction(1, 4), Fraction(1, 4)),
    Params(Fraction(1, 20), Fraction(1, 20)),  # D's live long, some reach the base
    Params(0, 0),  # nothing ever resolves, so nothing is dropped
    Params(1, 0),  # every site is a trap: all samples drop after one line
    Params(0, 1),  # every site is a target: likewise
], ids=str)
@pytest.mark.parametrize("version", list(GameVersion), ids=lambda v: v.value)
def test_pruned_chunked_draws_match_oracle(version, params, horizon, monkeypatch):
    # seven samples per chunk, and 100 samples, so the last chunk is short
    monkeypatch.setattr(game, "_CELL_BUDGET", 7 * (1 + 2 * horizon))
    hashed_rows = []
    real_u01_block = game.u01_block

    def spy(seeds, t, n0, count, *args):
        hashed_rows.append(seeds.size)
        return real_u01_block(seeds, t, n0, count, *args)

    monkeypatch.setattr(game, "u01_block", spy)
    stream = SeededStream(61)
    est, = draw_fraction(version, params, (horizon,), 100, stream)
    single = [
        solve_sample(version, params, horizon, child_stream(stream, i)).origin_class()
        for i in range(100)
    ]
    assert est.draws == sum(1 for c in single if c == D)
    assert max(hashed_rows, default=0) <= 7
    if params.r == 1:
        assert sum(hashed_rows) == 100 * horizon
    elif params.r == 0:
        assert sum(hashed_rows) == 100 * min(horizon, 1)


def test_slow_decay_partial_deaths_match_oracle(monkeypatch):
    # p=q=1/100: samples lose their last D one at a time over the whole height,
    # so the live set shrinks by a few rows at many lines instead of all at once
    params = Params(Fraction(1, 100), Fraction(1, 100))
    hashed_rows = []
    real_u01_block = game.u01_block

    def spy(seeds, t, n0, count, *args):
        hashed_rows.append(seeds.size)
        return real_u01_block(seeds, t, n0, count, *args)

    monkeypatch.setattr(game, "u01_block", spy)
    stream = SeededStream(61)
    est, = draw_fraction(GameVersion.V3, params, (80,), 120, stream)
    single = [
        solve_sample(GameVersion.V3, params, 80, child_stream(stream, i)).origin_class()
        for i in range(120)
    ]
    assert est.draws == sum(1 for c in single if c == D)
    assert 0 < est.draws < 120
    assert hashed_rows == sorted(hashed_rows, reverse=True)
    assert len(set(hashed_rows)) > 10


def test_horizon_refinement_is_pathwise():
    # same label field: a longer horizon may only resolve D's, never flip W/L
    params = Params(Fraction(1, 5), Fraction(3, 10))
    stream = SeededStream(99)
    for version in (GameVersion.V1, GameVersion.V3):
        for i in range(25):
            child = child_stream(stream, i)
            prev = None
            for horizon in range(7):
                cls = solve_sample(version, params, horizon, child).origin_class()
                if prev is not None:
                    assert symbol_leq(StochOrder.PARTIAL, EnvSymbol(int(cls)), EnvSymbol(int(prev)))
                prev = cls


# ------------------------------------------------------------- draw estimates

def test_draw_fraction_degenerate():
    stream = SeededStream(5)
    for version in GameVersion:
        assert draw_fraction(version, Params(1, 0), (5,), 200, stream)[0].fraction == 0.0
        assert draw_fraction(version, Params(0, 1), (5,), 200, stream)[0].fraction == 0.0
        # no traps or targets: nothing ever resolves
        assert draw_fraction(version, Params(0, 0), (5,), 200, stream)[0].fraction == 1.0
    assert draw_fraction(GameVersion.V2, Params(Fraction(1, 4), Fraction(1, 4)), (0,), 50, stream)[0].fraction == 1.0


def test_draw_fraction_deterministic_and_monotone():
    params = Params(Fraction(1, 4), Fraction(1, 4))
    stream = SeededStream(314)
    fractions = []
    for horizon in (2, 5, 10, 20):
        est, = draw_fraction(GameVersion.V1, params, (horizon,), 400, stream)
        again, = draw_fraction(GameVersion.V1, params, (horizon,), 400, stream)
        assert est.draws == again.draws
        fractions.append(est.fraction)
    assert fractions == sorted(fractions, reverse=True)
    est, = draw_fraction(GameVersion.V1, params, (20,), 400, stream)
    lo, hi = est.ci
    assert 0.0 <= lo <= est.fraction <= hi <= 1.0
    d = est.to_json_dict()
    assert d["horizon"] == 20 and d["samples"] == 400 and d["seed"] == 314


def test_draw_fraction_input_checks():
    stream = SeededStream(1)
    with pytest.raises(ValueError):
        draw_fraction(GameVersion.V1, Params(0, 0), (-1,), 10, stream)
    with pytest.raises(ValueError):
        draw_fraction(GameVersion.V1, Params(0, 0), (5,), 0, stream)


def test_wilson_interval_values():
    lo, hi = wilson_interval(50, 100)
    assert round(lo, 3) == 0.404 and round(hi, 3) == 0.596
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# ------------------------------------------------------------- one pass, many horizons

ORACLE_POINTS = [
    Params(Fraction(1, 4), Fraction(1, 4)),
    Params(Fraction(1, 20), Fraction(1, 20)),
    Params(0, 0),
    Params(1, 0),
    Params(0, 1),
]


@pytest.mark.parametrize("params", ORACLE_POINTS, ids=str)
@pytest.mark.parametrize("version", list(GameVersion), ids=lambda v: v.value)
def test_one_pass_matches_oracle_at_every_horizon(version, params, monkeypatch):
    # a tiny cell budget makes chunks of one to three samples, so horizons
    # enter and rows drop across many chunks, and the last chunk is short
    monkeypatch.setattr(game, "_CELL_BUDGET", 60)
    hashed = []
    real_u01_block = game.u01_block

    def spy(seeds, t, n0, count, *args):
        hashed.extend((int(seed), t) for seed in seeds)
        return real_u01_block(seeds, t, n0, count, *args)

    monkeypatch.setattr(game, "u01_block", spy)
    stream = SeededStream(61)
    samples = 40
    children = [child_stream(stream, i) for i in range(samples)]
    for horizons in ((6, 2, 9), (4, 4, 0, 7, 4), (0,), (5,), (1, 0, 3)):
        hashed.clear()
        ests = draw_fraction(version, params, horizons, samples, stream)
        assert [e.horizon for e in ests] == list(horizons)
        for est in ests:
            single = [solve_sample(version, params, est.horizon, child).origin_class()
                      for child in children]
            assert est.draws == sum(1 for c in single if c == D), horizons
            assert (est.samples, est.seed) == (samples, 61)
        # each (sample, line) is hashed at most once, whatever the horizons
        assert len(hashed) == len(set(hashed)), horizons


def test_one_pass_hashes_each_line_once_per_sample(monkeypatch):
    # p = q = 0: no site ever resolves, so every sample stays live at every
    # horizon and the pass hashes each line below the largest horizon once
    hashed = []
    real_u01_block = game.u01_block

    def spy(seeds, t, n0, count, *args):
        hashed.append(seeds.size * count)
        return real_u01_block(seeds, t, n0, count, *args)

    monkeypatch.setattr(game, "u01_block", spy)
    ests = draw_fraction(GameVersion.V2, Params(0, 0), (3, 7, 5), 30, SeededStream(4))
    assert sum(hashed) == 30 * 7**2
    assert [e.draws for e in ests] == [30, 30, 30]


def test_draw_fraction_checks_every_horizon_before_hashing(monkeypatch):
    def no_hashing(*args):
        raise AssertionError("hashed before every horizon was checked")

    monkeypatch.setattr(game, "u01_block", no_hashing)
    monkeypatch.setattr(SeededStream, "child_seeds_u64", no_hashing)
    for horizons in ((5, -1), (-2,), (), (5, 524288)):
        with pytest.raises(ValueError):
            draw_fraction(GameVersion.V1, Params(Fraction(1, 4), Fraction(1, 4)), horizons, 10,
                          SeededStream(1))


def test_one_sample_at_the_largest_horizon_fits_the_cell_budget():
    # the widest line of horizon H holds 1 + 2H cells, so 524287 is the largest
    # horizon whose line of one sample fits _CELL_BUDGET
    assert 1 + 2 * 524287 <= game._CELL_BUDGET < 1 + 2 * 524288
    params = Params(Fraction(1, 4), Fraction(1, 4))
    (est,) = draw_fraction(GameVersion.V1, params, (524287,), 1, SeededStream(7))
    assert (est.horizon, est.samples) == (524287, 1)
    with pytest.raises(ValueError, match="horizon must be <= 524287, got 524288"):
        draw_fraction(GameVersion.V1, params, (524288,), 1, SeededStream(7))


def test_horizon_zero_alone_makes_no_seeds(monkeypatch):
    # the base site is the frontier at horizon 0, always D: nothing to hash
    def no_hashing(*args):
        raise AssertionError("hashed for horizon 0")

    monkeypatch.setattr(game, "u01_block", no_hashing)
    monkeypatch.setattr(SeededStream, "child_seeds_u64", no_hashing)
    ests = draw_fraction(GameVersion.V1, Params(Fraction(1, 4), Fraction(1, 4)), (0, 0),
                         4_000_000, SeededStream(1))
    assert [(e.horizon, e.draws) for e in ests] == [(0, 4_000_000), (0, 4_000_000)]


def test_stacked_classes_stay_within_the_cell_budget(monkeypatch):
    # one code line per chunk for every horizon, widest on the largest
    # horizon's frontier line: 200 // 21 = 9 samples of 21 cells at line 9
    monkeypatch.setattr(game, "_CELL_BUDGET", 200)
    stack_cells = []
    real_classify_line = game.classify_line

    def spy(labels, next_classes, version):
        stack_cells.append(next_classes.size)
        return real_classify_line(labels, next_classes, version)

    monkeypatch.setattr(game, "classify_line", spy)
    draw_fraction(GameVersion.V1, Params(0, 0), (10, 9, 3, 0), 50, SeededStream(2))
    assert max(stack_cells) == 9 * 21 <= game._CELL_BUDGET


# ------------------------------------------------------------- packed horizon codes

def _nested_layers(rng, m, shape):
    """Random classes of m nested horizons (layer 0 the shortest): each site is
    D at its d smallest horizons and one value, W or L, at the other m - d."""
    d = rng.randint(0, m + 1, size=shape)
    value = np.where(rng.randint(0, 2, size=shape) == 1, L, W)
    return np.stack([np.where(i < d, D, value) for i in range(m)]).astype(np.int8)


def _encode(layers, dtype):
    """The packed code 1 -+ (number of resolved horizons) of a nested stack."""
    resolved = np.count_nonzero(layers != D, axis=0)
    sign = np.where(layers[-1] == L, 1, -1)
    return (1 + sign * resolved).astype(dtype)


def _decode(codes, m):
    """The m layers a packed code line stands for."""
    codes = codes.astype(np.intp)
    d = m - np.abs(codes - 1)
    value = np.where(codes > 1, L, W)
    return np.stack([np.where(i < d, D, value) for i in range(m)]).astype(np.int8)


@pytest.mark.parametrize("m, dtype", [(1, np.int8), (2, np.int8), (5, np.int8),
                                      (126, np.int8), (127, np.int16), (300, np.int16)])
def test_one_classify_line_call_inducts_every_nested_horizon(m, dtype):
    rng = np.random.RandomState(m)
    for rows, width in ((1, 1), (9, 6), (40, 23)):
        labels = rng.randint(0, 3, size=(rows, width)).astype(np.int8)
        layers = _nested_layers(rng, m, (rows, width + 2))
        codes = _encode(layers, dtype)
        assert np.array_equal(_decode(codes, m), layers)
        packed = classify_line((1 + (labels.astype(dtype) - 1) * m).astype(dtype), codes,
                               GameVersion.V3)
        assert packed.dtype == dtype
        want = np.stack([classify_by_table(labels, layer) for layer in layers])
        assert np.array_equal(_decode(packed, m), want)


def _packed_lines(horizons, monkeypatch):
    """Each hash's (seeds, line, first site, width) and each line's labels as
    classify_line got them, in order, in a V3 pass at p = q = 1/100 over 6
    samples."""
    hashed, packed = [], []
    real_u01_block, real_classify_line = game.u01_block, game.classify_line

    def hash_spy(seeds, t, n0, count, *args):
        hashed.append((seeds.copy(), t, n0, count))
        return real_u01_block(seeds, t, n0, count, *args)

    def classify_spy(labels, next_classes, version):
        packed.append(labels.copy())
        return real_classify_line(labels, next_classes, version)

    with monkeypatch.context() as patch:
        patch.setattr(game, "u01_block", hash_spy)
        patch.setattr(game, "classify_line", classify_spy)
        draw_fraction(GameVersion.V3, Params(Fraction(1, 100), Fraction(1, 100)), horizons, 6,
                      SeededStream(3))
    return hashed, packed


def test_packed_labels_are_the_site_labels_spread_by_m(monkeypatch):
    # each line's labels reach classify_line in the codes' dtype (int8, or
    # int16 past 126 horizons) as the oracle's SiteLabel codes spread to
    # 1 - m, 1 and 1 + m, where m counts the horizons entered by then
    params = Params(Fraction(1, 100), Fraction(1, 100))
    for horizons, dtype in (((9, 3, 6), np.int8), (tuple(range(1, 141)), np.int16)):
        hashed, packed = _packed_lines(horizons, monkeypatch)
        assert len(hashed) == len(packed) == max(horizons)
        for (seeds, t, n0, count), labels in zip(hashed, packed):
            m = sum(1 for h in horizons if h > t)
            want = np.stack([sample_labels(params, SeededStream(int(seed)), t, n0, count)
                             for seed in seeds])
            assert labels.dtype == (dtype if m > 1 else np.int8)  # m = 1: the codes themselves
            assert np.array_equal(labels, 1 + (want.astype(np.intp) - 1) * m), (horizons, t)
    assert max(int(labels.max()) for labels in packed) > 127


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_the_unsigned_d_scan_is_the_abs_form(dtype):
    # a packed code c of m horizons holds a D at one of them iff |c - 1| < m;
    # _holds_d decides it with one unsigned compare, for every code 1 - m..1 + m
    for m in range(1, 141 if dtype == np.int16 else 127):
        codes = np.arange(1 - m, 2 + m).astype(dtype).reshape(-1, 1)
        want = np.abs(codes.astype(np.intp) - 1) < m
        got = game._holds_d(codes, m)
        assert got.dtype == np.bool_ and np.array_equal(got, want), m


def test_more_horizons_than_int8_codes_hold_match_single_runs():
    # 140 distinct horizons need codes 1 +- 140, past int8
    params = Params(Fraction(1, 100), Fraction(1, 100))
    stream = SeededStream(8)
    horizons = tuple(range(1, 141))
    ests = draw_fraction(GameVersion.V3, params, horizons, 20, stream)
    singles = [draw_fraction(GameVersion.V3, params, (h,), 20, stream)[0].draws
               for h in horizons]
    assert [e.draws for e in ests] == singles
    assert singles[-1] < singles[0]


def test_no_line_outlives_its_classification():
    # the hash reads each tile's labels in cache, so no line's uint64 variate
    # block, 1000 x 399 x 8 B, is ever made: the whole pass, its int8 lines and
    # the hash's reused tile included, peaks below that one block (holding a
    # block of the previous line while the next one was hashed took the peak
    # to about 2.5 of it)
    block = 1000 * 399 * 8
    params = Params(Fraction(1, 100), Fraction(1, 100))
    tracemalloc.start()
    try:
        draw_fraction(GameVersion.V3, params, (50, 100, 200), 1000, SeededStream(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block
