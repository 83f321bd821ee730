"""Span recorder for traced benchmark commands.

``install`` rebinds the public functions of each percolab layer, in every
``percolab.*`` module namespace that imported them, with wrappers that record
one span per call (name, start, end, parent) and a few work counters read
from the call's arguments and result.  Spans live in flat in-memory arrays
until ``Recorder.summary`` folds them into per-name counts, total time and
self time (a span's duration minus the time covered by its child spans).

Nothing under ``src/`` is edited: the wrappers sit around the calls into each
layer, so the program's own output is unchanged (the driver checks that).
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

_GAME_D = 1  # GameClass.D: a successor line still holding a draw is "live"


class Recorder:
    """Spans of one process, in call order, kept in compact arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str, end: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if end is None else end
        self._stack.pop()
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id[idx] = nid

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def summary(self) -> dict:
        """{"spans": {name: {count, total_s, self_s}}, "counters": {...}}."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        nested = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        k = len(self.names)
        counts = np.bincount(names, minlength=k)
        totals = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        spans = {name: {"count": int(counts[i]), "total_s": float(totals[i]),
                        "self_s": float(selfs[i])}
                 for i, name in enumerate(self.names)}
        return {"spans": spans, "counters": dict(self.counters)}


def _span(rec: Recorder, fn, name: str, after=None):
    def wrapper(*args, **kwargs):
        idx = rec.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx, name)
        if after is not None:
            after(rec, result)
        return result
    return wrapper


def _count_variates(rec, result):
    rec.count("pca.hash_variates", np.size(result))


def _count_classified(rec, result):
    rec.count("game.classify_sites", np.size(result))


def _count_lemma_pairs(rec, result):
    rec.count("orders.lemma_pairs", result.total_pairs)


def _classify_with_live_lines(rec: Recorder, fn):
    """classify_line, plus the share of its input lines that still hold a D.

    The count runs in a span of its own ("trace.count") so that its cost is
    charged neither to classify_line nor to the caller's self time.
    """
    timed = _span(rec, fn, "game.classify", _count_classified)

    def wrapper(labels, next_classes, version):
        idx = rec.open()
        nxt = np.asarray(next_classes)
        live = (nxt == _GAME_D).any(axis=-1)
        rec.count("game.lines", live.size)
        rec.count("game.live_lines", np.count_nonzero(live))
        rec.close(idx, "trace.count")
        return timed(labels, next_classes, version)
    return wrapper


def _pushforward_split(rec: Recorder, fn, cache_info):
    """pushforward_cylinder, named by whether its kernel cache missed.

    Only the cache's statistics are read; the private kernel is not rebound.
    """
    def wrapper(*args, **kwargs):
        misses = cache_info().misses
        idx = rec.open()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            built = cache_info().misses > misses
            rec.close(idx, "measures.kernel_build" if built else "measures.pushforward_warm",
                      end)
    return wrapper


def _rebind_function(module_name: str, attr: str, make) -> None:
    """Replace a module-level function in every percolab namespace holding it."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if name != "percolab" and not name.startswith("percolab."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _rebind_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install() -> Recorder:
    """Wrap every traced layer function; call after ``import percolab.cli``."""
    from percolab import cli, core, game, measures, orders, pca  # noqa: F401

    rec = Recorder()

    def span(name, after=None):
        return lambda fn: _span(rec, fn, name, after)

    _rebind_function("percolab.pca", "u01_block", span("pca.hash", _count_variates))
    _rebind_method(pca.SeededStream, "u01_range", span("pca.hash", _count_variates))
    _rebind_method(pca.SeededStream, "child_seeds_u64", span("pca.hash", _count_variates))
    _rebind_function("percolab.pca", "step", span("pca.step"))
    _rebind_function("percolab.pca", "trajectory", span("pca.trajectory"))
    _rebind_function("percolab.game", "classify_line",
                     lambda fn: _classify_with_live_lines(rec, fn))
    _rebind_function("percolab.game", "draw_fraction", span("game.induction"))
    _rebind_function("percolab.game", "kernel_correspondence", span("game.kernel_check"))
    _rebind_function("percolab.measures", "pushforward_cylinder",
                     lambda fn: _pushforward_split(
                         rec, fn, measures._pushforward_kernel.cache_info))
    _rebind_method(measures.TIMeasure, "from_table", span("measures.construct"))
    _rebind_function("percolab.measures", "cylinder_prob", span("measures.cylinder"))
    _rebind_function("percolab.measures", "closed_form", span("measures.closed_form"))
    _rebind_function("percolab.measures", "verify_master_inequality", span("measures.master"))
    _rebind_function("percolab.measures", "verify_table_inequality", span("measures.tables"))
    _rebind_function("percolab.measures", "empirical_measure", span("measures.empirical"))
    _rebind_method(core.CylinderPattern, "parse", span("core.parse"))
    _rebind_function("percolab.orders", "verify_lemma", span("orders.lemma", _count_lemma_pairs))
    _rebind_function("percolab.cli", "main", span("cli.main"))
    return rec
