import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from percolab import pca
from percolab.core import TRIPLE_CLASSES, EnvSymbol, Params, TripleClass
from percolab.measures import FORMULA_GRID
from percolab.pca import (
    Configuration,
    ModelSpec,
    SeededStream,
    _TILE,
    _WINDOW,
    _apply_rule,
    _neighbour_views,
    last_row,
    step,
    trajectory,
    u01_block,
    variate_cuts,
)

import oracles
from oracles import child_stream, config_from_symbols, envelope_of_pair, symbols, u01

Z, Q, O = EnvSymbol.ZERO, EnvSymbol.QMARK, EnvSymbol.ONE

PARAMS = Params(Fraction(1, 5), Fraction(3, 10))


def spec(offset=0, params=PARAMS):
    return ModelSpec(offset, params)


# The codes of a binary row, which holds no ?, and of a three-symbol row.
ROW_CODES = [pytest.param([0, 2], id="binary"), pytest.param([0, 1, 2], id="envelope")]


# ---------------------------------------------------------------- randomness

def test_stream_determinism_and_keying():
    s = SeededStream(1729)
    assert u01(s, 3, 5) == u01(SeededStream(1729), 3, 5)
    assert u01(s, 3, 5) != u01(s, 4, 5)
    assert u01(s, 3, 5) != u01(s, 3, 6)
    # block form agrees with pointwise form, including negative sites
    block = s.u01_range(7, -4, 9) * 2.0**-53
    assert block.shape == (9,)
    for j in range(9):
        assert block[j] == u01(s, 7, -4 + j)
    assert all(0.0 <= u < 1.0 for u in block)


def test_child_streams_are_distinct_and_match_block_path():
    s = SeededStream(99)
    kids = [child_stream(s, k) for k in range(6)]
    seeds = {kid.seed for kid in kids}
    assert len(seeds) == 6 and s.seed not in seeds
    arr = s.child_seeds_u64(6)
    assert [int(x) for x in arr] == [kid.seed for kid in kids]
    _assert_block_holds(arr, 2, -3, np.array([kid.u01_range(2, -3, 5) for kid in kids]))


def test_child_seeds_of_a_chunk_match_the_full_array():
    # the game solver makes each chunk's seeds when the chunk starts
    s = SeededStream(99)
    full = s.child_seeds_u64(50)
    for start, count in ((0, 50), (0, 7), (7, 7), (45, 5), (20, 0)):
        assert np.array_equal(s.child_seeds_u64(count, start), full[start:start + count])


def test_stream_uniformity():
    u = SeededStream(5).u01_range(0, 0, 100_000) * 2.0**-53
    assert abs(u.mean() - 0.5) < 0.004
    assert abs((u < 0.25).mean() - 0.25) < 0.01


def _oracle_variates(seed, t, sites):
    """The 53-bit variates of ``sites``, hashed by the all-numpy oracle."""
    return oracles.key_u64(np.uint64(seed % 2**64), t, sites) >> np.uint64(11)


def _assert_block_holds(seeds, t, n0, want):
    """u01_block over ``seeds`` hashes the variates ``want`` (a row per seed)
    bit for bit: the block is read against a cut at each wanted variate and
    one above it, 63 variates a call, and each label code must count the cuts
    that its wanted variate reaches."""
    values = np.unique(want)
    for i in range(0, values.size, 63):
        cuts = np.sort(np.concatenate([values[i:i + 63], values[i:i + 63] + np.uint64(1)]))
        got = u01_block(seeds, t, n0, want.shape[-1], tuple(cuts))
        assert got.dtype == np.int8 and got.shape == want.shape
        assert np.array_equal(got, np.searchsorted(cuts, want, side="right")), i


def test_key_prefix_in_python_ints_matches_numpy_bit_for_bit():
    # u01_range hashes the (seed, t) prefix in Python ints, u01_block one prefix
    # per seed in numpy: both must give the oracle's bits
    rng = np.random.default_rng(5)
    seeds = [0, 1, 2**63 - 1, 2**63, 2**64 - 1,
             *(int(x) for x in rng.integers(0, 2**64, size=12, dtype=np.uint64))]
    assert any(seed >= 2**63 for seed in seeds[5:])
    ts = [0, 1, -1, -7, 2**31, -(2**40), 2**62]
    starts = [-(2**62), -5, -3, -1, 0, 1, 3, 2**40]
    for seed in seeds:
        stream = SeededStream(seed - 2**64 if seed >= 2**63 else seed)  # negative seeds too
        for t in ts:
            for n0 in starts:
                sites = n0 + np.arange(4, dtype=np.int64)
                want = _oracle_variates(seed, t, sites)
                assert stream.u01_range(t, n0, 4).tobytes() == want.tobytes()
            assert int(stream.u01_range(t, -3, 1)[0]) == int(_oracle_variates(seed, t, -3))
    sites = -2 + np.arange(5, dtype=np.int64)
    for t in ts:
        want = np.array([_oracle_variates(seed, t, sites) for seed in seeds])
        _assert_block_holds(np.array(seeds, dtype=np.uint64), t, -2, want)


@pytest.mark.parametrize("n0", [0, -7])
@pytest.mark.parametrize("count", [21, 259], ids=["line", "line-wider-than-a-tile"])
def test_u01_block_tiles_match_the_oracle(monkeypatch, count, n0):
    # u01_block hashes whole rows in tiles of at most _TILE variates; every
    # tile boundary must leave the one-shot oracle hash, bit for bit.  Tiles
    # of 256 variates keep the blocks small enough to read every variate at
    # its own cuts
    monkeypatch.setattr(pca, "_TILE", 256)
    rows_per_tile = max(1, 256 // count)
    seeds = SeededStream(41).child_seeds_u64(rows_per_tile + 1)
    sites = (n0 + np.arange(count, dtype=np.int64)).reshape(1, -1)
    for rows in {max(1, rows_per_tile - 1), rows_per_tile, rows_per_tile + 1}:
        want = oracles.key_u64(seeds[:rows].reshape(-1, 1), 9, sites) >> np.uint64(11)
        _assert_block_holds(seeds[:rows], 9, n0, want)


@pytest.mark.parametrize("count", [401, _TILE + 3], ids=["line", "line-wider-than-a-tile"])
@pytest.mark.parametrize("params", [
    Params(0, 0), Params(0, 1), Params(1, 0), Params(0, Fraction(1, 3)), Params(Fraction(2, 5), 0),
    Params(Fraction(1, 4), Fraction(1, 4)), Params(Fraction(1, 3), Fraction(2, 3)),
    Params(Fraction(1, 100), Fraction(1, 100)),
], ids=str)
def test_u01_block_label_codes_match_the_oracle_labels(params, count):
    # with the game's cuts p and 1 - q, each tile is read as the number of cuts
    # each variate reaches: the exact oracle's SiteLabel codes, site by site,
    # across every tile boundary
    stream = SeededStream(41)
    rows = max(1, _TILE // count) + 1
    got = u01_block(stream.child_seeds_u64(rows), 9, -7, count, variate_cuts(params))
    assert got.dtype == np.int8 and got.shape == (rows, count)
    for i, row in enumerate(got):
        assert np.array_equal(row, oracles.sample_labels(params, child_stream(stream, i), 9, -7,
                                                         count)), i


def test_u01_block_label_codes_at_the_edge_cuts_and_beside_a_variate():
    # the label path compares raw hashes with each cut shifted left by 11: a
    # cut of 2**53 (p = 1 or q = 0) is skipped, as no variate reaches it, a
    # cut of 0 (p = 0 or q = 1) is reached by every one, and cuts one below,
    # at and one above a hashed variate k read as the no-cuts variates do
    seeds = SeededStream(5).child_seeds_u64(3)
    variates = np.array([oracles.variates(SeededStream(int(seed)), 4, -3, 200) for seed in seeds])
    k = int(np.sort(variates, axis=None)[300])
    edges = [variate_cuts(Params(p, q)) for p, q in
             ((0, Fraction(1, 2)), (1, 0), (Fraction(1, 2), 0), (0, 1))]
    for cuts in [*edges, (k - 1, k), (k, k + 1), (k - 1, k + 1), (k + 1, 2**53),
                 (2**53 - 1, 2**53), (k,), (2**53,)]:
        cuts = tuple(np.uint64(c) for c in cuts)
        want = sum((variates >= c).astype(np.int8) for c in cuts)
        got = u01_block(seeds, 4, -3, 200, cuts)
        assert got.dtype == np.int8 and np.array_equal(got, want), cuts


def test_variates_are_53_bit_integers():
    k = SeededStream(3).u01_range(0, 0, 1000)
    assert k.dtype == np.uint64 and int(k.max()) < 2**53


def test_variate_cuts_edges():
    # (cut_p, cut_1q): the cuts of p and 1 - q
    assert variate_cuts(Params(0, 0)) == (0, 2**53)
    assert variate_cuts(Params(1, 0)) == (2**53, 2**53)
    assert variate_cuts(Params(0, 1)) == (0, 0)
    assert all(type(cut) is np.uint64 for cut in variate_cuts(PARAMS))
    assert variate_cuts(Params(Fraction(1, 2**54), 0))[0] == 1
    assert variate_cuts(Params(Fraction(1, 2), 0))[0] == 2**52
    assert variate_cuts(Params(Fraction(1, 10), 0))[0] == 2**53 // 10 + 1


# ---------------------------------------------------------------- cut laws

# The points of the exact checks and the triangle's three vertices.
CUT_LAW_POINTS = [*FORMULA_GRID, (Fraction(0), Fraction(0))]
_ONE53 = 2**53  # no variate reaches it
_M64 = 2**64 - 1


def _interval_law(read, cuts):
    """The law that ``read`` induces on the variates 0..2**53-1, as integer
    counts per output code, one row per output row.

    ``read`` maps an array of variates to an array of codes of shape (rows,
    variates).  The variates split into intervals at the cuts; ``read`` is
    asked at both ends and the midpoint of each, and must be constant there.
    """
    bounds = sorted({0, _ONE53, *(min(int(c), _ONE53) for c in cuts)})
    spans = list(zip(bounds, bounds[1:]))
    ks = np.array([k for lo, hi in spans for k in (lo, (lo + hi - 1) // 2, hi - 1)],
                  dtype=np.uint64)
    out = np.asarray(read(ks)).reshape(-1, len(spans), 3)
    assert (out == out[..., :1]).all(), "the output changes inside an interval"
    laws = np.zeros((out.shape[0], 3), dtype=object)
    for row, codes in enumerate(out[..., 0]):
        for code, (lo, hi) in zip(codes, spans):
            laws[row, code] += hi - lo
    return laws


def _assert_ceiling_law(induced, masses, scale):
    """``induced`` is the law masses / scale inverted exactly on the variates:
    each code holds the variates from ceil(F * 2**53) of the cumulative mass F
    before it up to that of the cumulative mass through it."""
    bounds = [0, *(math.ceil(Fraction(f, scale) * _ONE53)
                   for f in itertools.accumulate(masses))]
    assert list(induced) == [hi - lo for lo, hi in zip(bounds, bounds[1:])], (masses, scale)


@pytest.mark.parametrize("pq", CUT_LAW_POINTS, ids=lambda pq: f"{pq[0]},{pq[1]}")
def test_the_rule_draws_each_class_law_at_its_cuts(pq):
    # the law the Monte Carlo rule draws, from the lengths of the intervals
    # between its cuts, is core's CLASS_LAWS inverted exactly; without a MIXED
    # triple the rule skips that select
    params = Params(*pq)

    def read(ks):
        classes = np.repeat(np.arange(3, dtype=np.int8)[:, None], ks.size, axis=1)
        out = _apply_rule(classes, params, ks)
        no_mixed = _apply_rule(classes[::2], params, ks)
        assert np.array_equal(no_mixed, out[::2])
        return out

    scale, masses = params.law_masses
    for cls, induced in zip(TripleClass, _interval_law(read, variate_cuts(params))):
        _assert_ceiling_law(induced, masses[cls], scale)


def _unfinalize_tail(h: int) -> int:
    """The inverse of ``pca._finalize_tail`` on a Python int."""
    h ^= h >> 31 ^ h >> 62
    h = h * pow(pca._MUL2_INT, -1, 2**64) & _M64
    h ^= h >> 27 ^ h >> 54
    return h * pow(pca._MUL1_INT, -1, 2**64) & _M64


def _labels_at(monkeypatch, ks, cuts):
    """u01_block's label codes under ``cuts`` at the variates ``ks``, read from
    hashes k << 11 and again from hashes with all 11 low bits set: the site
    keys are replaced by ones that hash to exactly those values."""
    seed, t = 5, 3
    prefix = pca._finalize_int((seed + pca._GOLD_INT) & _M64)
    prefix = pca._finalize_int(prefix ^ pca._step_key(t))
    prefix ^= prefix >> 30
    hashes = [int(k) << 11 | low for low in (0, 0x7FF) for k in ks]
    keys = np.array([_unfinalize_tail(h) ^ prefix for h in hashes], dtype=np.uint64)
    monkeypatch.setattr(pca, "_site_keys", lambda n0, count: keys)
    assert np.array_equal(SeededStream(seed).u01_range(t, 0, keys.size), np.tile(ks, 2))
    seeds = np.array([seed], dtype=np.uint64)
    return u01_block(seeds, t, 0, keys.size, cuts).reshape(2, -1)


@pytest.mark.parametrize("pq", CUT_LAW_POINTS, ids=lambda pq: f"{pq[0]},{pq[1]}")
def test_the_game_labels_sites_by_p_r_q_at_its_cuts(monkeypatch, pq):
    # u01_block reads a label as the number of the game's cuts p and 1 - q
    # that its variate reaches, from the raw hash; the interval law is
    # (trap, open, target) ~ (p, r, q) inverted exactly
    params = Params(*pq)
    cuts = variate_cuts(params)
    scale, a, b = params.scaled
    for induced in _interval_law(lambda ks: _labels_at(monkeypatch, ks, cuts), cuts):
        _assert_ceiling_law(induced, (a, scale - a - b, b), scale)


# ---------------------------------------------------------------- configuration

def test_streams_and_models_are_values_and_configurations_are_objects():
    # a stream and a model compare and hash by their fields; a configuration
    # holds an array and is equal only to itself; none can be rebound
    assert SeededStream(7) == SeededStream(7) and hash(SeededStream(7)) == hash(SeededStream(7))
    assert SeededStream(7) != SeededStream(8)
    assert spec(-1) == spec(-1) and hash(spec(-1)) == hash(spec(-1)) and spec(-1) != spec(0)
    row = Configuration([0, 1, 2])
    assert row == row and row != Configuration([0, 1, 2]) and len({row, row}) == 1
    for obj, name in ((SeededStream(7), "seed"), (spec(), "offset"), (spec(), "params"),
                      (row, "cells")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    assert not row.cells.flags.writeable


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(np.array([0, 3], dtype=np.int8))
    # not integer codes: an int8 cast would truncate 1.9 to 1
    for cells in (np.array([1.9, 0.2]), np.array([True, False]), [0, 1.0]):
        with pytest.raises(ValueError):
            Configuration(cells)
    for cells in ([0, 1, 2], np.array([[2, 1, 0]], dtype=np.uint16)):
        assert Configuration(cells).cells.dtype == np.int8
    with pytest.raises(ValueError):
        Configuration(np.array([], dtype=np.int8))
    cfg = Configuration.constant(5, Q)
    assert cfg.counts() == (0, 5, 0)
    assert all(type(n) is int for n in cfg.counts())  # they go into JSON rows
    with pytest.raises(ValueError):
        cfg.cells[0] = 0  # frozen buffer


@pytest.mark.parametrize("code", [-1, 3, 127, 258, -254, 2**40 + 1])
def test_configuration_rejects_codes_outside_the_alphabet(code):
    # the last three are int64 codes that an int8 cast would wrap to 2, 2 and 1
    dtypes = (np.int8, np.int64) if -128 <= code < 128 else (np.int64,)
    for dtype in dtypes:
        with pytest.raises(ValueError):
            Configuration(np.array([0, code, 2], dtype=dtype))


# neighbourhood offsets, some far outside the row; None stands for -(3w + 1),
# w the row's width
OFFSETS = [0, -1, 5, 2**40, pytest.param(None, id="-(3w+1)")]


def _offset(offset, width):
    return -(3 * width + 1) if offset is None else offset


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_cyclic_neighbour_views_wrap(width, offset):
    offset = _offset(offset, width)
    stack = np.array([[0, 2, 1, 1], [1, 1, 2, 0], [2, 0, 0, 1]], dtype=np.int8)[:, :width]
    for cells in (stack[0], stack):
        views = _neighbour_views(Configuration(cells), offset)
        assert len(views) == 3
        for k, view in enumerate(views):
            want = cells[..., [(n + offset + k) % width for n in range(width)]]
            assert view.shape == want.shape and np.array_equal(view, want)


def test_from_symbols_roundtrip():
    cfg = config_from_symbols([Z, Q, O, Z])
    assert symbols(cfg) == (Z, Q, O, Z)
    assert cfg.width == 4


# ---------------------------------------------------------------- cut points

def test_triple_class_table_is_base3_indexed():
    for a in (Z, Q, O):
        for b in (Z, Q, O):
            for c in (Z, Q, O):
                want = oracles.triple_class((a, b, c))
                assert TRIPLE_CLASSES[9 * a.value + 3 * b.value + c.value] is want


CUT_GRID = [*(Params(p, q) for p, q in FORMULA_GRID), Params(0, 0),
            Params(Fraction(2, 5), Fraction(3, 5)), Params(Fraction(1, 3), Fraction(2, 3))]


def test_largest_code_is_the_triple_class():
    # step classes a triple by its largest code: 0 only for 000, 2 for any
    # triple holding a 1, and 1 for the rest, which hold a ? and no 1; the
    # oracle splits the cases by the symbols themselves
    assert (TripleClass.ALL_ZERO, TripleClass.MIXED, TripleClass.HAS_ONE) == (0, 1, 2)
    for triple in itertools.product((Z, Q, O), repeat=3):
        assert oracles.triple_class(triple) == max(s.value for s in triple), triple


def _all_triples():
    """The 27 triples as columns a, b, c, and each one's largest code, its class."""
    idx = np.arange(27)
    a, b, c = (idx // 9).astype(np.int8), (idx // 3 % 3).astype(np.int8), (idx % 3).astype(np.int8)
    return a, b, c, np.maximum(np.maximum(a, b), c)


@pytest.mark.parametrize("params", CUT_GRID, ids=str)
def test_cut_table_matches_sitewise_thresholds_bit_for_bit(params):
    # the cuts decide every Monte Carlo output, so each triple's largest code
    # must select as its cuts the least variates that reach exactly the cut
    # points the sitewise formula gives
    a, b, c, largest = _all_triples()
    cut_p, cut_1q = variate_cuts(params)
    selected = {0: (cut_p, cut_p), 1: (cut_p, cut_1q), 2: (cut_1q, cut_1q)}
    binary = np.array([cls is not TripleClass.MIXED for cls in TRIPLE_CLASSES])
    scale = params.scaled[0]
    for is_binary in (False, True):
        x0, x1 = oracles.thresholds(a, b, c, params, binary=is_binary)
        for triple in range(27):
            if is_binary and not binary[triple]:
                continue  # a binary row holds no ?
            for cut, x in zip(map(int, selected[largest[triple]]), (x0[triple], x1[triple])):
                least = oracles.reaches(cut, x, scale) and not (
                    cut and oracles.reaches(cut - 1, x, scale))
                assert least, (triple, is_binary, cut)


@pytest.mark.parametrize("params", [*CUT_GRID, Params(1, 0), Params(0, 1)], ids=str)
def test_integer_cuts_decide_like_the_float_cuts(params):
    # each comparison k >= cut must agree with the exact k * 2**-53 >= t of
    # the oracle beside every cut point t the game labels and the step rule use
    a, b, c, largest = _all_triples()
    x0, x1 = oracles.thresholds(a, b, c, params, binary=False)
    scale, pa, qb = params.scaled
    cuts = {math.ceil(Fraction(int(x), scale) * _ONE53) for x in (*x0, *x1)}
    ks = np.array(sorted({k for c in cuts for k in (c - 1, c, c + 1) if 0 <= k <= _ONE53}),
                  dtype=np.uint64)
    cut_p, cut_1q = variate_cuts(params)
    assert np.array_equal((ks >= cut_p).astype(np.int8) + (ks >= cut_1q),
                          oracles.draw(ks, pa, scale - qb, scale))
    for triple in range(27):
        got = _apply_rule(np.full(ks.size, largest[triple]), params, ks)
        assert np.array_equal(got, oracles.draw(ks, x0[triple], x1[triple], scale)), triple
    if params == Params(0, 0):
        assert {0, 2**53} <= cuts


# The two references a step is checked against: the site-by-site oracle on the
# cyclic row itself, and the light-cone oracle on a window of the periodic line
# that the row is one period of.
VIEWS = ["cyclic", "lightcone"]


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("codes", ROW_CODES)
@pytest.mark.parametrize("params", [PARAMS, Params(0, 1), Params(Fraction(1, 3), Fraction(2, 3)),
                                    Params(Fraction(1, 100), Fraction(1, 100)), Params(0, 0)],
                         ids=str)
def test_step_matches_sitewise_oracle(params, codes, offset, view):
    # the oracle wraps a row by modular indexing, where step copies slices,
    # and steps a row without ? by the binary automaton's own cut points; its
    # light cone steps a window of the periodic line by slicing, never wrapping
    rng = np.random.RandomState(17)
    stream = SeededStream(2024)
    for width, shape in itertools.product((1, 2, 3, 4, 57), [(), (3,)]):
        model = ModelSpec(_offset(offset, width), params)
        cfg = Configuration(rng.choice(codes, size=(*shape, width)).astype(np.int8))
        window, origin = oracles.light_cone(cfg, model.offset, steps=3)
        for t in range(3):
            got = step(cfg, model, stream, t)
            if view == "cyclic":
                want = oracles.step(cfg, model, stream, t).cells
                assert got.cells.shape == want.shape
                assert np.array_equal(got.cells, want)
            else:
                # after the last step the window is the row itself, at site 0
                window, origin = oracles.window_step(window, origin, width, model, stream, t)
                assert np.array_equal(oracles.read_window(got.cells, origin, window.shape[-1]),
                                      window)
            # the rule's output is taken over without a copy: an int8 row that
            # no one can write and that shares no memory with its input
            assert got.cells.dtype == np.int8 and not got.cells.flags.writeable
            assert not np.shares_memory(got.cells, cfg.cells)
            cfg = got


@pytest.mark.parametrize("view", VIEWS)
def test_a_row_with_qmarks_but_no_mixed_triple_steps_like_the_oracle(view):
    # every triple of ?1?1... holds a 1, so no site is MIXED although the row
    # holds ?; with one ??? run, one triple is
    stream = SeededStream(99)
    for cells in ([1, 2] * 20, [1, 1, 1] + [2, 1] * 20):
        cfg = Configuration(np.array(cells, dtype=np.int8))
        for params in (PARAMS, Params(Fraction(1, 3), Fraction(1, 3))):
            model = ModelSpec(0, params)
            for t in range(3):
                got = step(cfg, model, stream, t).cells
                if view == "cyclic":
                    want = oracles.step(cfg, model, stream, t).cells
                else:
                    window, origin = oracles.light_cone(cfg, 0, steps=1)
                    want, _ = oracles.window_step(window, origin, cfg.width, model, stream, t)
                assert np.array_equal(got, want)


# ---------------------------------------------------------------- one-step laws

def _one_step_freqs(triple, model, n_samples, seed):
    """Empirical output frequencies at sites whose neighbourhood is ``triple``."""
    tile = np.array([s.value for s in triple], dtype=np.int8)
    cfg = Configuration(np.tile(tile, n_samples))
    out = step(cfg, model, SeededStream(seed), t=0)
    picked = out.cells[0::3]
    return np.array([(picked == c).mean() for c in (0, 1, 2)])


@pytest.mark.parametrize("codes", ROW_CODES)
def test_one_step_frequencies_match_local_rule(codes):
    n = 100_000
    model = spec()
    symbols = [EnvSymbol(c) for c in codes]
    seed = 20260816
    for a in symbols:
        for b in symbols:
            for c in symbols:
                seed += 1
                want = oracles.rule_law((a, b, c), PARAMS)
                got = _one_step_freqs((a, b, c), model, n, seed)
                for idx, sym in enumerate((Z, Q, O)):
                    prob = float(oracles.prob(want, sym))
                    if prob in (0.0, 1.0):
                        assert got[idx] == prob, (a, b, c, sym)
                    else:
                        se = math.sqrt(prob * (1 - prob) / n)
                        assert abs(got[idx] - prob) <= 3 * se, (a, b, c, sym)


def test_degenerate_params_are_exact():
    # p=1, q=0: all-zero row is a fixed point of the binary dynamics
    cfg = Configuration.constant(64, Z)
    out = step(cfg, spec(params=Params(1, 0)), SeededStream(3), t=0)
    assert out.counts() == (64, 0, 0)
    # p=0, q=0 (r=1): all-? row is a fixed point of the three-symbol dynamics
    cfg = Configuration.constant(64, Q)
    out = step(cfg, spec(params=Params(0, 0)), SeededStream(3), t=0)
    assert out.counts() == (0, 64, 0)
    # p+q=1 (r=0): no ? survives one step from anywhere
    cfg = Configuration.constant(64, Q)
    out = step(cfg, spec(params=Params(Fraction(2, 5), Fraction(3, 5))), SeededStream(3), t=0)
    assert out.counts()[1] == 0


# ---------------------------------------------------------------- light cones

@pytest.mark.parametrize("offset", [0, -1])
def test_lightcone_restriction_is_exact(offset):
    # site n of step t reads the variate keyed (t, n) whatever the width, so
    # two rows that agree on sites 0..17 agree after t steps on every site
    # whose light cone, sites n + offset*t .. n + offset*t + 2t, never wrapped
    rng = np.random.RandomState(12)
    narrow_cells = rng.randint(0, 3, size=18).astype(np.int8)
    wide_cells = rng.randint(0, 3, size=26).astype(np.int8)
    wide_cells[:18] = narrow_cells
    narrow, wide = Configuration(narrow_cells), Configuration(wide_cells)
    model = spec(offset, Params(Fraction(1, 4), Fraction(1, 4)))
    stream = SeededStream(777)
    for t in range(1, 6):
        narrow = step(narrow, model, stream, t - 1)
        wide = step(wide, model, stream, t - 1)
        inside = slice(-offset * t, 18 - 2 * t - offset * t)
        assert len(narrow.cells[inside]) == 18 - 2 * t
        assert np.array_equal(wide.cells[inside], narrow.cells[inside])


def test_cyclic_wraps():
    # width-3 cyclic row: every site sees all three cells, order depending on position
    cfg = config_from_symbols([Z, Z, O])
    model = spec(params=Params(1, 0))  # has-one triples go to 0 surely (q=0)
    out = step(cfg, model, SeededStream(2), t=0)
    assert out.counts() == (3, 0, 0) and out.width == 3


# ---------------------------------------------------------------- trajectories

def test_trajectory_shape_and_counts():
    init = Configuration.constant(50, Q)
    res = trajectory(init, spec(), steps=3, stream=SeededStream(11))
    assert len(res.rows) == 4
    assert res.rows[0] == res.rows[0].__class__(0, 50, 0, 50, 0)
    assert all(row.count0 + row.countQ + row.count1 == row.width for row in res.rows)
    assert res.final.width == 50
    with pytest.raises(ValueError):
        trajectory(init, spec(), steps=0, stream=SeededStream(11))


def test_trajectory_deterministic_and_seed_sensitive():
    init = Configuration.constant(40, Q)
    r1 = trajectory(init, spec(), steps=5, stream=SeededStream(8))
    r2 = trajectory(init, spec(), steps=5, stream=SeededStream(8))
    r3 = trajectory(init, spec(), steps=5, stream=SeededStream(9))
    assert np.array_equal(r1.final.cells, r2.final.cells) and r1.rows == r2.rows
    assert not np.array_equal(r1.final.cells, r3.final.cells)



# Steps a 10^4-site envelope row 1000 times in a fresh interpreter, called from
# Python rather than through the CLI, and prints the minor page faults taken
# during the run.
_TRAJECTORY_FAULTS = """
import resource, sys
from fractions import Fraction
from percolab.core import EnvSymbol, Params
from percolab.pca import Configuration, ModelSpec, SeededStream, trajectory
model = ModelSpec(0, Params(Fraction(1, 4), Fraction(1, 4)))
init = Configuration.constant(10_000, EnvSymbol.QMARK)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trajectory(init, model, 1000, SeededStream(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_trajectory_does_not_refault_the_heap_every_row():
    # a row's temporaries are about 80 KB each; were glibc's heap top handed
    # back and faulted in again at every row, the run would take tens of
    # thousands of minor faults instead of about 160
    proc = subprocess.run([sys.executable, "-c", _TRAJECTORY_FAULTS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2_000

# ---------------------------------------------------------------- couplings

def test_envelope_of_pair():
    a = config_from_symbols([Z, O, Z, O])
    b = config_from_symbols([Z, O, O, Z])
    env = envelope_of_pair(a, b)
    assert symbols(env) == (Z, O, Q, Q)
    with pytest.raises(ValueError):
        envelope_of_pair(a, config_from_symbols([Z, O, Z]))
    with pytest.raises(ValueError):
        envelope_of_pair(a, config_from_symbols([Z, Q, Z, O]))


def _stack(*rows):
    """One configuration holding ``rows``, which share one width."""
    return Configuration(np.stack([row.cells for row in rows]))


def _extremes(width):
    """The binary rows all-0 and all-1, stacked."""
    return _stack(Configuration.constant(width, Z),
                  Configuration.constant(width, O))


def test_stack_shape_width_and_counts():
    stack = _extremes(7)
    assert stack.cells.shape == (2, 7) and stack.width == 7
    assert stack.counts() == (7, 0, 7)  # over every row
    res = trajectory(stack, spec(), steps=2, stream=SeededStream(4))
    assert all(row.width == 7 and row.count0 + row.countQ + row.count1 == 14 for row in res.rows)
    with pytest.raises(ValueError):
        Configuration(np.zeros((2, 2, 2), dtype=np.int8))
    with pytest.raises(ValueError):
        Configuration(np.zeros((2, 0), dtype=np.int8))


@pytest.mark.parametrize("params", [PARAMS, Params(Fraction(1, 4), Fraction(1, 4)),
                                    Params(Fraction(1, 100), Fraction(1, 100))], ids=str)
@pytest.mark.parametrize("offset", [0, -1, 5])
@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("codes", ROW_CODES)
def test_stacked_step_equals_per_row_step(monkeypatch, codes, view, offset, params):
    # one variate per (t, n) serves every row, so a stack steps each of its rows
    # exactly as step does alone, and as the light cone of the row's periodic
    # line does, and hashes each output site once
    rng = np.random.RandomState(8)
    model = ModelSpec(offset, params)
    stream = SeededStream(21)
    rows = [Configuration(rng.choice(codes, size=40).astype(np.int8))
            for _ in range(3)]
    stack = _stack(*rows)
    windows = [oracles.light_cone(row, offset, steps=4) for row in rows]
    hashed = []
    real = SeededStream.u01_range

    def counting(self, t, n0, count):
        hashed.append(count)
        return real(self, t, n0, count)

    for t in range(4):
        want = [step(row, model, stream, t) for row in rows]
        monkeypatch.setattr(SeededStream, "u01_range", counting)
        stack = step(stack, model, stream, t)
        monkeypatch.undo()
        assert hashed == [want[0].width]
        hashed.clear()
        assert stack.width == want[0].width
        if view == "cyclic":
            for got, w in zip(stack.cells, want):
                assert np.array_equal(got, w.cells)
        else:
            windows = [oracles.window_step(w, o, 40, model, stream, t) for w, o in windows]
            for got, (w, o) in zip(stack.cells, windows):
                assert np.array_equal(oracles.read_window(got, o, w.shape[-1]), w)
        rows = want


def test_coupled_step_alternating_domination():
    # all-0 vs all-1: common randomness flips the pointwise order each step
    model = spec(params=Params(Fraction(1, 4), Fraction(1, 4)))
    stack = _extremes(500)
    stream = SeededStream(123)
    low_is_a = True
    for t in range(6):
        stack = step(stack, model, stream, t)
        a, b = stack.cells
        if low_is_a:
            assert (a >= b).all()
        else:
            assert (a <= b).all()
        low_is_a = not low_is_a


def test_coupled_step_disagreement_shrinks():
    model = spec(params=Params(Fraction(1, 4), Fraction(1, 4)))
    stack = _extremes(2000)
    stream = SeededStream(7)
    for t in range(200):
        stack = step(stack, model, stream, t)
    a, b = stack.cells
    assert (a != b).mean() < 0.2


@pytest.mark.parametrize("offset", [0, -1])
def test_envelope_step_covers_coupled_pair(offset):
    # under common randomness the three-symbol rule is the envelope of the binary
    # one: wherever the envelope row is decided, both coupled binary rows equal it
    model = spec(offset, Params(Fraction(1, 4), Fraction(1, 4)))
    rng = np.random.RandomState(6)
    a = Configuration((rng.randint(0, 2, size=400) * 2).astype(np.int8))
    b = Configuration((rng.randint(0, 2, size=400) * 2).astype(np.int8))
    env = envelope_of_pair(a, b)
    pair = _stack(a, b)
    stream = SeededStream(31)
    disagreements = 0
    for t in range(20):
        pair = step(pair, model, stream, t)
        env = step(env, model, stream, t)
        decided = env.cells != Q.value
        for row in pair.cells:
            assert np.array_equal(row[decided], env.cells[decided])
        disagreements += int((pair.cells[0] != pair.cells[1]).sum())
    assert disagreements > 0  # the pair did not coalesce at once


# ---------------------------------------------------------------- coupling from the past

QUARTER = (Fraction(1, 4), Fraction(1, 4))
THIRD = (Fraction(1, 3), Fraction(1, 3))  # no cut is a multiple of 2**-53


def _steps_counted(monkeypatch):
    """A list that gets one entry per call of ``pca.step`` from now on."""
    calls = []
    real = pca.step

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(pca, "step", counting)
    return calls


@pytest.mark.parametrize("pq, offset, width, steps, runs", [
    (QUARTER, 0, 400, 300, "window"),
    (QUARTER, -1, 400, 300, "window"),
    ((Fraction(1, 100), Fraction(1, 100)), 0, 400, 300, "both"),  # ? outlives the window
    (THIRD, 0, 400, 300, "window"),
    ((Fraction(0), Fraction(0)), 0, 40, 100, "both"),  # all-? is a fixed point
    ((Fraction(1), Fraction(0)), 0, 40, 100, "window"),
    ((Fraction(0), Fraction(1)), -1, 40, 100, "window"),
    (QUARTER, 0, 400, _WINDOW, "loop"),  # no shorter window to run
    (QUARTER, -1, 400, 1, "loop"),
    (QUARTER, 0, 1, 100, "window"),
    (QUARTER, -1, 2, 100, "window"),
    (QUARTER, 0, 3, 100, "window"),
])
def test_last_row_equals_the_forward_loop(monkeypatch, pq, offset, width, steps, runs):
    # the window's row is the true row when it ends without ?; otherwise
    # every step is run from t = 0
    model = ModelSpec(offset, Params(*pq))
    stream = SeededStream(41)
    want = oracles.last_row(model, width, steps, stream)
    calls = _steps_counted(monkeypatch)
    got = last_row(model, width, steps, stream)
    assert got.cells.dtype == want.cells.dtype
    assert got.cells.tobytes() == want.cells.tobytes()
    window, loop = list(range(steps - _WINDOW, steps)), list(range(steps))
    assert calls == {"window": window, "both": window + loop, "loop": loop}[runs]


def test_last_row_steps_only_its_window_at_a_quarter(monkeypatch):
    # a 10**4-site row at p = q = 1/4 settles well inside the window
    calls = _steps_counted(monkeypatch)
    row = last_row(ModelSpec(0, Params(*QUARTER)), 10_000, 1000, SeededStream(1729))
    assert len(calls) <= _WINDOW and row.counts()[1] == 0


REFINE_POINTS = [*FORMULA_GRID, (Fraction(0), Fraction(0)), THIRD]


@pytest.mark.parametrize("pq", REFINE_POINTS, ids=lambda pq: f"{pq[0]},{pq[1]}")
def test_the_mixed_output_refines_the_others_off_the_coupling_gap(pq):
    # the exact basis of last_row: at each variate beside a cut, a MIXED
    # triple's output is ? or equals both the ALL_ZERO and the HAS_ONE output;
    # no variate lies in a gap where it does not
    params = Params(*pq)
    ks = sorted({k for c in map(int, variate_cuts(params)) for k in (c - 1, c, c + 1)
                 if 0 <= k < _ONE53})
    out = _apply_rule(np.repeat(np.arange(3, dtype=np.int8)[:, None], len(ks), axis=1),
                      params, np.array(ks, dtype=np.uint64))
    for k, (zero, mixed, one) in zip(ks, out.T.tolist()):
        assert mixed == Q.value or zero == mixed == one, k


@pytest.mark.parametrize("pq", [QUARTER, THIRD, (Fraction(1, 5), Fraction(4, 5)),
                                (Fraction(1, 3**40), Fraction(2, 7**25)),
                                (0, 0), (1, 0), (0, 1)], ids=lambda pq: f"{pq[0]},{pq[1]}")
def test_variate_cuts_are_the_ceilings_of_p_and_1_minus_q(pq):
    # ceil(t * 2**53) of t = p and t = 1 - q, taken through Fraction, also
    # where the scale lcm(den p, den q) exceeds 2**53
    p, q = map(Fraction, pq)
    assert variate_cuts(Params(p, q)) == (math.ceil(p * 2**53), math.ceil((1 - q) * 2**53))
