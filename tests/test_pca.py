import math
from fractions import Fraction

import numpy as np
import pytest

from percolab import game
from percolab.core import EnvSymbol, Params
from percolab.measures import FORMULA_GRID
from percolab.pca import (
    TRIPLE_CLASSES,
    Alphabet,
    Boundary,
    Configuration,
    ModelSpec,
    SeededStream,
    TripleClass,
    _apply_rule,
    _cut_points,
    _key_u64,
    _neighbour_views,
    local_rule,
    step,
    trajectory,
    triple_class,
    u01_block,
    variate_cut,
)

import oracles
from oracles import as_dict, child_stream, config_from_symbols, envelope_of_pair, symbols, u01

Z, Q, O = EnvSymbol.ZERO, EnvSymbol.QMARK, EnvSymbol.ONE

PARAMS = Params(Fraction(1, 5), Fraction(3, 10))


def env_model(offset=0, params=PARAMS):
    return ModelSpec(Alphabet.ENVELOPE, offset, params)


def bin_model(offset=0, params=PARAMS):
    return ModelSpec(Alphabet.BINARY, offset, params)


# ---------------------------------------------------------------- local rule

def test_local_rule_binary():
    d = local_rule(bin_model(params=Params(Fraction(3, 10), Fraction(1, 2))), (Z, Z, Z))
    assert as_dict(d) == {"0": Fraction(3, 10), "?": Fraction(0), "1": Fraction(7, 10)}
    d = local_rule(bin_model(params=Params(Fraction(3, 10), Fraction(1, 2))), (Z, O, Z))
    assert as_dict(d) == {"0": Fraction(1, 2), "?": Fraction(0), "1": Fraction(1, 2)}


def test_local_rule_envelope():
    d = local_rule(env_model(), (Q, Z, Z))
    assert as_dict(d) == {"0": Fraction(1, 5), "?": Fraction(1, 2), "1": Fraction(3, 10)}
    d = local_rule(env_model(), (Z, Z, Z))
    assert as_dict(d) == {"0": Fraction(1, 5), "?": Fraction(0), "1": Fraction(4, 5)}
    # any 1 in the window wins over any ?
    d = local_rule(env_model(), (Q, O, Q))
    assert as_dict(d) == {"0": Fraction(7, 10), "?": Fraction(0), "1": Fraction(3, 10)}


def test_local_rule_r_zero_collapses():
    m = env_model(params=Params(Fraction(2, 5), Fraction(3, 5)))
    for triple in [(Q, Q, Q), (Z, Q, Z), (Q, Z, Q)]:
        assert local_rule(m, triple).probQ == 0


def test_local_rule_rejects_qmark_in_binary():
    with pytest.raises(ValueError):
        local_rule(bin_model(), (Z, Q, Z))


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
    grid = u01_block(arr, t=2, n0=-3, count=5)
    assert grid.shape == (6, 5)
    for k in range(6):
        assert np.array_equal(grid[k], kids[k].u01_range(2, -3, 5))


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


def test_key_prefix_in_python_ints_matches_numpy_bit_for_bit():
    # with scalar seed and t the (seed, t) prefix is hashed in Python ints
    rng = np.random.default_rng(5)
    seeds = [0, 1, 2**63 - 1, 2**63, 2**64 - 1,
             *(int(x) for x in rng.integers(0, 2**64, size=12, dtype=np.uint64))]
    assert any(seed >= 2**63 for seed in seeds[5:])
    ts = [0, 1, -1, -7, 2**31, -(2**40), 2**62]
    sites = np.array([-(2**62), -5, -1, 0, 1, 3, 2**40], dtype=np.int64)
    for seed in seeds:
        seed_u64 = np.uint64(seed)
        for t in ts:
            want = oracles.key_u64(seed_u64, t, sites)
            assert _key_u64(seed_u64, t, sites).tobytes() == want.tobytes()
            assert int(_key_u64(seed_u64, t, -3)) == int(oracles.key_u64(seed_u64, t, -3))
        stream = SeededStream(seed - 2**64 if seed >= 2**63 else seed)  # negative seeds too
        assert np.array_equal(stream.u01_range(-2, -4, 7) * 2.0**-53,
                              oracles.u01_range(stream, -2, -4, 7))
    # the array path (one prefix per seed) is the same hash
    block = u01_block(np.array(seeds, dtype=np.uint64), -3, -2, 5)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row * 2.0**-53, oracles.u01_range(SeededStream(seed), -3, -2, 5))


def test_variates_are_53_bit_integers():
    k = SeededStream(3).u01_range(0, 0, 1000)
    assert k.dtype == np.uint64 and int(k.max()) < 2**53
    assert u01_block(SeededStream(3).child_seeds_u64(4), 1, 0, 9).dtype == np.uint64


def test_variate_cut_edges():
    assert int(variate_cut(0.0)) == 0
    assert int(variate_cut(1.0)) == 2**53
    assert int(variate_cut(1.0 + 2.0**-52)) > 2**53  # no variate reaches a cut above 1
    assert int(variate_cut(2.0**-53)) == 1 and int(variate_cut(2.0**-54)) == 1
    assert int(variate_cut(0.5)) == 2**52 and int(variate_cut(0.1)) == math.ceil(0.1 * 2**53)


# ---------------------------------------------------------------- configuration

def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(np.array([0, 3], dtype=np.int8), Boundary.CYCLIC)
    with pytest.raises(ValueError):
        Configuration(np.array([], dtype=np.int8), Boundary.CYCLIC)
    cfg = Configuration.constant(5, Q, Boundary.CYCLIC)
    assert cfg.counts() == (0, 5, 0) and cfg.has_qmark
    with pytest.raises(ValueError):
        cfg.cells[0] = 0  # frozen buffer


@pytest.mark.parametrize("code", [-1, 3, 127])
def test_configuration_rejects_codes_outside_the_alphabet(code):
    with pytest.raises(ValueError):
        Configuration(np.array([0, code, 2], dtype=np.int8), Boundary.CYCLIC)


@pytest.mark.parametrize("offset", [0, -1])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_cyclic_neighbour_views_wrap(width, offset):
    cells = np.array([0, 2, 1, 1][:width], dtype=np.int8)
    cfg = Configuration(cells, Boundary.CYCLIC, origin=5)
    *views, origin, out_width = _neighbour_views(cfg, offset)
    assert (origin, out_width) == (5, width)
    for k, view in enumerate(views):
        assert np.array_equal(view, cells[(np.arange(width) + offset + k) % width])


def test_from_symbols_roundtrip():
    cfg = config_from_symbols([Z, Q, O, Z], Boundary.LIGHTCONE, origin=-2)
    assert symbols(cfg) == (Z, Q, O, Z)
    assert cfg.origin == -2 and cfg.width == 4


# ---------------------------------------------------------------- cut points

def test_triple_class_table_is_base3_indexed():
    for a in (Z, Q, O):
        for b in (Z, Q, O):
            for c in (Z, Q, O):
                assert TRIPLE_CLASSES[9 * a.value + 3 * b.value + c.value] is triple_class((a, b, c))


CUT_GRID = [*FORMULA_GRID, Params(0, 0), Params(Fraction(2, 5), Fraction(3, 5)),
            Params(Fraction(1, 3), Fraction(2, 3))]


@pytest.mark.parametrize("params", CUT_GRID, ids=str)
def test_cut_table_matches_sitewise_thresholds_bit_for_bit(params):
    # float cut points decide every Monte Carlo output, so the table must hold
    # exactly the floats the sitewise formula gives, not merely close ones
    idx = np.arange(27)
    a, b, c = (idx // 9).astype(np.int8), (idx // 3 % 3).astype(np.int8), (idx % 3).astype(np.int8)
    t0, t1 = _cut_points(params)
    want0, want1 = oracles.thresholds(a, b, c, params, binary=False)
    assert t0.tobytes() == want0.tobytes() and t1.tobytes() == want1.tobytes()
    binary = np.array([cls is not TripleClass.MIXED for cls in TRIPLE_CLASSES])
    bin0, bin1 = oracles.thresholds(a, b, c, params, binary=True)
    assert t0[binary].tobytes() == bin0[binary].tobytes()
    assert t1[binary].tobytes() == bin1[binary].tobytes()


@pytest.mark.parametrize("params", [*CUT_GRID, Params(1, 0), Params(0, 1)], ids=str)
def test_integer_cuts_decide_like_the_float_cuts(params):
    # each comparison k >= ceil(t * 2**53) must agree with k * 2**-53 >= t on
    # both sides of every cut the game labels and the step rule use
    t0, t1 = _cut_points(params)
    p, one_minus_q = float(params.p), 1.0 - float(params.q)
    cuts = {int(variate_cut(t)) for t in (*t0, *t1, p, one_minus_q)}
    ks = np.array(sorted({k for c in cuts for k in (c - 1, c) if k >= 0}), dtype=np.uint64)
    u = ks * 2.0**-53
    want = (u >= p).astype(np.int8) + (u >= one_minus_q).astype(np.int8)
    assert np.array_equal(game._labels(ks, game._label_cuts(params)), want)
    for triple in range(27):
        got = _apply_rule(np.full(ks.size, triple), params, ks)
        want = (u >= t0[triple]).astype(np.int8) + (u >= t1[triple]).astype(np.int8)
        assert np.array_equal(got, want), triple
    if params == Params(0, 0):
        assert {0, 2**53} <= cuts


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("offset", [0, -1])
@pytest.mark.parametrize("alphabet", list(Alphabet), ids=lambda a: a.value)
@pytest.mark.parametrize("params", [PARAMS, Params(0, 1), Params(Fraction(1, 3), Fraction(2, 3)),
                                    Params(Fraction(1, 100), Fraction(1, 100)), Params(0, 0)],
                         ids=str)
def test_step_matches_sitewise_oracle(params, alphabet, offset, boundary):
    rng = np.random.RandomState(17)
    codes = [0, 2] if alphabet is Alphabet.BINARY else [0, 1, 2]
    model = ModelSpec(alphabet, offset, params)
    stream = SeededStream(2024)
    for width in (3, 4, 57):
        cfg = Configuration(rng.choice(codes, size=width).astype(np.int8), boundary, origin=-5)
        for t in range(3):
            if cfg.width < 3:
                break
            got = step(cfg, model, stream, t)
            want = oracles.step(cfg, model, stream, t)
            assert np.array_equal(got.cells, want.cells)
            assert (got.origin, got.width, got.boundary) == (want.origin, want.width, want.boundary)
            cfg = got


# ---------------------------------------------------------------- one-step laws

def _one_step_freqs(triple, model, n_samples, seed):
    """Empirical output frequencies at sites whose neighbourhood is ``triple``."""
    tile = np.array([s.value for s in triple], dtype=np.int8)
    cfg = Configuration(np.tile(tile, n_samples), Boundary.CYCLIC)
    out = step(cfg, model, SeededStream(seed), t=0)
    picked = out.cells[0::3]
    return np.array([(picked == c).mean() for c in (0, 1, 2)])


@pytest.mark.parametrize("alphabet", [Alphabet.ENVELOPE, Alphabet.BINARY])
def test_one_step_frequencies_match_local_rule(alphabet):
    n = 100_000
    model = ModelSpec(alphabet, 0, PARAMS)
    symbols = (Z, Q, O) if alphabet is Alphabet.ENVELOPE else (Z, O)
    seed = 20260816
    for a in symbols:
        for b in symbols:
            for c in symbols:
                seed += 1
                want = local_rule(model, (a, b, c))
                got = _one_step_freqs((a, b, c), model, n, seed)
                for idx, sym in enumerate((Z, Q, O)):
                    prob = float(want.prob(sym))
                    if prob in (0.0, 1.0):
                        assert got[idx] == prob, (a, b, c, sym)
                    else:
                        se = math.sqrt(prob * (1 - prob) / n)
                        assert abs(got[idx] - prob) <= 3 * se, (a, b, c, sym)


def test_degenerate_params_are_exact():
    # p=1, q=0: all-zero row is a fixed point of the binary dynamics
    cfg = Configuration.constant(64, Z, Boundary.CYCLIC)
    out = step(cfg, bin_model(params=Params(1, 0)), SeededStream(3), t=0)
    assert out.counts() == (64, 0, 0)
    # p=0, q=0 (r=1): all-? row is a fixed point of the three-symbol dynamics
    cfg = Configuration.constant(64, Q, Boundary.CYCLIC)
    out = step(cfg, env_model(params=Params(0, 0)), SeededStream(3), t=0)
    assert out.counts() == (0, 64, 0)
    # p+q=1 (r=0): no ? survives one step from anywhere
    cfg = Configuration.constant(64, Q, Boundary.CYCLIC)
    out = step(cfg, env_model(params=Params(Fraction(2, 5), Fraction(3, 5))), SeededStream(3), t=0)
    assert out.counts()[1] == 0


# ---------------------------------------------------------------- boundaries

@pytest.mark.parametrize("offset", [0, -1])
def test_lightcone_restriction_is_exact(offset):
    rng = np.random.RandomState(12)
    narrow_cells = rng.randint(0, 3, size=18).astype(np.int8)
    wide_cells = rng.randint(0, 3, size=26).astype(np.int8)
    wide_cells[4:22] = narrow_cells  # wide window [-4, 21] contains narrow [0, 17]
    narrow = Configuration(narrow_cells, Boundary.LIGHTCONE, origin=0)
    wide = Configuration(wide_cells, Boundary.LIGHTCONE, origin=-4)
    model = env_model(offset, Params(Fraction(1, 4), Fraction(1, 4)))
    stream = SeededStream(777)
    for t in range(5):
        narrow = step(narrow, model, stream, t)
        wide = step(wide, model, stream, t)
        shift = narrow.origin - wide.origin
        assert shift >= 0 and shift + narrow.width <= wide.width
        assert np.array_equal(wide.cells[shift : shift + narrow.width], narrow.cells)


def test_lightcone_geometry():
    cfg = Configuration.constant(10, Z, Boundary.LIGHTCONE, origin=3)
    out0 = step(cfg, env_model(offset=0), SeededStream(1), t=0)
    assert (out0.origin, out0.width) == (3, 8)
    out1 = step(cfg, env_model(offset=-1), SeededStream(1), t=0)
    assert (out1.origin, out1.width) == (4, 8)
    tiny = Configuration.constant(2, Z, Boundary.LIGHTCONE)
    with pytest.raises(ValueError):
        step(tiny, env_model(), SeededStream(1), t=0)


def test_cyclic_wraps():
    # width-3 cyclic row: every site sees all three cells, order depending on position
    cfg = config_from_symbols([Z, Z, O], Boundary.CYCLIC)
    model = env_model(params=Params(1, 0))  # has-one triples go to 0 surely (q=0)
    out = step(cfg, model, SeededStream(2), t=0)
    assert out.counts() == (3, 0, 0) and out.width == 3 and out.origin == 0


# ---------------------------------------------------------------- trajectories

def test_trajectory_shape_and_counts():
    init = Configuration.constant(50, Q, Boundary.CYCLIC)
    res = trajectory(init, env_model(), steps=3, stream=SeededStream(11))
    assert len(res.rows) == 4
    assert res.rows[0] == res.rows[0].__class__(0, 50, 0, 50, 0)
    assert all(row.count0 + row.countQ + row.count1 == row.width for row in res.rows)
    assert res.final.width == 50
    with pytest.raises(ValueError):
        trajectory(init, env_model(), steps=0, stream=SeededStream(11))


def test_trajectory_deterministic_and_seed_sensitive():
    init = Configuration.constant(40, Q, Boundary.CYCLIC)
    r1 = trajectory(init, env_model(), steps=5, stream=SeededStream(8))
    r2 = trajectory(init, env_model(), steps=5, stream=SeededStream(8))
    r3 = trajectory(init, env_model(), steps=5, stream=SeededStream(9))
    assert np.array_equal(r1.final.cells, r2.final.cells) and r1.rows == r2.rows
    assert not np.array_equal(r1.final.cells, r3.final.cells)


# ---------------------------------------------------------------- couplings

def test_envelope_of_pair():
    a = config_from_symbols([Z, O, Z, O], Boundary.CYCLIC)
    b = config_from_symbols([Z, O, O, Z], Boundary.CYCLIC)
    env = envelope_of_pair(a, b)
    assert symbols(env) == (Z, O, Q, Q)
    with pytest.raises(ValueError):
        envelope_of_pair(a, config_from_symbols([Z, O, Z], Boundary.CYCLIC))
    with pytest.raises(ValueError):
        envelope_of_pair(a, config_from_symbols([Z, Q, Z, O], Boundary.CYCLIC))


def _stack(*rows):
    """One configuration holding ``rows``, which share one window."""
    return Configuration(np.stack([row.cells for row in rows]), rows[0].boundary, rows[0].origin)


def _extremes(width):
    """The binary rows all-0 and all-1, stacked."""
    return _stack(Configuration.constant(width, Z, Boundary.CYCLIC),
                  Configuration.constant(width, O, Boundary.CYCLIC))


def test_stack_shape_width_and_counts():
    stack = _extremes(7)
    assert stack.cells.shape == (2, 7) and stack.width == 7
    assert stack.counts() == (7, 0, 7)  # over every row
    res = trajectory(stack, bin_model(), steps=2, stream=SeededStream(4))
    assert all(row.width == 7 and row.count0 + row.countQ + row.count1 == 14 for row in res.rows)
    with pytest.raises(ValueError):
        Configuration(np.zeros((2, 2, 2), dtype=np.int8), Boundary.CYCLIC)
    with pytest.raises(ValueError):
        Configuration(np.zeros((2, 0), dtype=np.int8), Boundary.CYCLIC)


@pytest.mark.parametrize("params", [PARAMS, Params(Fraction(1, 4), Fraction(1, 4)),
                                    Params(Fraction(1, 100), Fraction(1, 100))], ids=str)
@pytest.mark.parametrize("offset", [0, -1, 5])
@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("alphabet", list(Alphabet), ids=lambda a: a.value)
def test_stacked_step_equals_per_row_step(monkeypatch, alphabet, boundary, offset, params):
    # one variate per (t, n) serves every row, so a stack steps each of its rows
    # exactly as step does alone, and hashes each output site once
    rng = np.random.RandomState(8)
    codes = [0, 2] if alphabet is Alphabet.BINARY else [0, 1, 2]
    model = ModelSpec(alphabet, offset, params)
    stream = SeededStream(21)
    rows = [Configuration(rng.choice(codes, size=40).astype(np.int8), boundary, origin=3)
            for _ in range(3)]
    stack = _stack(*rows)
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
        assert (stack.origin, stack.width, stack.boundary) == (want[0].origin, want[0].width,
                                                               want[0].boundary)
        for got, w in zip(stack.cells, want):
            assert np.array_equal(got, w.cells)
        rows = want


def test_binary_step_rejects_a_stack_holding_a_qmark():
    stack = _stack(Configuration.constant(10, Z, Boundary.CYCLIC),
                   config_from_symbols([O] * 9 + [Q], Boundary.CYCLIC))
    with pytest.raises(ValueError):
        step(stack, bin_model(), SeededStream(1), t=0)
    step(stack, env_model(), SeededStream(1), t=0)  # the envelope model takes it


def test_coupled_step_alternating_domination():
    # all-0 vs all-1: common randomness flips the pointwise order each step
    model = bin_model(params=Params(Fraction(1, 4), Fraction(1, 4)))
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
    model = bin_model(params=Params(Fraction(1, 4), Fraction(1, 4)))
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
    params = Params(Fraction(1, 4), Fraction(1, 4))  # float cut points are exact
    rng = np.random.RandomState(6)
    a = Configuration((rng.randint(0, 2, size=400) * 2).astype(np.int8), Boundary.CYCLIC)
    b = Configuration((rng.randint(0, 2, size=400) * 2).astype(np.int8), Boundary.CYCLIC)
    env = envelope_of_pair(a, b)
    pair = _stack(a, b)
    stream = SeededStream(31)
    disagreements = 0
    for t in range(20):
        pair = step(pair, bin_model(offset, params), stream, t)
        env = step(env, env_model(offset, params), stream, t)
        decided = env.cells != Q.value
        for row in pair.cells:
            assert np.array_equal(row[decided], env.cells[decided])
        disagreements += int((pair.cells[0] != pair.cells[1]).sum())
    assert disagreements > 0  # the pair did not coalesce at once
