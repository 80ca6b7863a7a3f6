"""Tests for the benchmark's own arithmetic and wrappers.

Run from the repository root::

    python3 -m pytest wallbench -q
"""

from __future__ import annotations

import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stats import (FAILED, Tally, covered, min_samples, percentile,  # noqa: E402
                   rank, self_times, tail_count)
from tracer import Patcher, Probe, Tracer  # noqa: E402


# -- percentiles and the sample-count rule ---------------------------------

def test_nearest_rank():
    assert rank(0.5, 20) == 10
    assert rank(0.9, 100) == 90
    assert rank(0.9, 101) == 91
    assert rank(1.0, 7) == 7
    assert rank(0.01, 3) == 1


def test_tail_rule_needs_ten_samples_beyond_the_rank():
    assert tail_count(0.9, 100) == 10
    assert tail_count(0.9, 99) == 9
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    values = list(range(1, 100))            # 99 samples: only 9 above p90
    assert percentile(values, 0.9) is None
    values.append(100)
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.5) == 50


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.9) == 5.0


def test_rank_rejects_bad_quantiles():
    with pytest.raises(ValueError):
        rank(0.0, 10)
    with pytest.raises(ValueError):
        rank(0.5, 0)


# -- failure counting ------------------------------------------------------

def test_failed_adaptation_counts_and_misses_both_percentiles():
    tally = Tally()
    for i in range(99):
        tally.ok(1.0 + i / 100)
    tally.fail("forced")
    assert (tally.attempted, tally.failed, tally.completed) == (100, 1, 99)
    assert tally.failed_frac() == pytest.approx(0.01)
    assert max(tally.samples) == FAILED
    # The failure sorts beyond every success: each percentile is at least
    # as high as with the failure left out.
    assert percentile(tally.samples, 0.5) == pytest.approx(1.49)
    assert percentile(tally.samples, 0.9) == pytest.approx(1.89)


def test_percentile_on_a_failure_has_no_value():
    tally = Tally()
    for _ in range(89):
        tally.ok(1.0)
    for _ in range(11):
        tally.fail("forced")
    assert percentile(tally.samples, 0.5) == 1.0
    assert percentile(tally.samples, 0.9) is None


def test_session_workload_counts_a_raising_adaptation_as_failed():
    from workloads import ColdAdapt

    class Engine:
        def image(self, ref):
            return types.SimpleNamespace(layer_key=lambda: (ref,))

    refs = {"layers": {"x86": {"hpccg": ["sha256:a"]}}}
    workload = ColdAdapt(seed=0, refs=refs)
    workload.sessions = {"x86": types.SimpleNamespace(system_engine=Engine())}

    def broken():
        raise RuntimeError("forced failure")

    result = [workload._timed("x86", "hpccg", broken),
              workload._timed("x86", "hpccg", lambda: "sha256:other"),
              workload._timed("x86", "hpccg", lambda: "sha256:a")]
    tally = Tally()
    workload.check(result, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "forced failure" in tally.failures[0]
    assert "differ" in tally.failures[1]
    assert sorted(tally.samples)[-2:] == [FAILED, FAILED]


# -- self time --------------------------------------------------------------

def test_covered_merges_nested_and_overlapping_children():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(1, 3), (5, 6)]) == 3
    assert covered((0, 10), [(1, 4), (2, 3)]) == 3          # nested
    assert covered((0, 10), [(1, 4), (3, 6)]) == 5          # overlapping
    assert covered((0, 10), [(-5, 2), (9, 20)]) == 3        # clipped
    assert covered((0, 10), [(2, 3), (3, 4)]) == 2          # touching
    assert covered((0, 10), [(11, 12)]) == 0


def test_self_times_subtract_only_direct_children():
    #   0: root 0..10
    #   1:   child 1..5      2:   child 4..8  (overlaps 1)
    #   3:     grandchild 2..3 (under 1)
    starts = [0.0, 1.0, 4.0, 2.0]
    ends = [10.0, 5.0, 8.0, 3.0]
    parents = [-1, 0, 0, 1]
    selfs = self_times(starts, ends, parents)
    assert selfs == pytest.approx([10 - 7, 4 - 1, 4, 1])
    # Without overlap the self times partition the root exactly.
    starts, ends, parents = [0.0, 1.0, 5.0, 2.0], [10.0, 4.0, 8.0, 3.0], [-1, 0, 0, 1]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(10.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_busy_counts_nested_same_group_once():
    tracer = Tracer(clock=_Clock())
    g = tracer.group_id("g")
    with tracer.window():
        outer = tracer.open(g)
        inner = tracer.open(g)
        tracer.close(inner)
        tracer.close(outer)
    summary = tracer.summary()
    assert summary["g"]["calls"] == 2
    # outer 2..5 (3 s), inner 3..4 (1 s): busy counts the outer only.
    assert summary["g"]["busy"] == 3.0
    assert summary["g"]["self"] == 3.0
    assert summary["pass"]["busy"] == 5.0
    assert summary["pass"]["self"] + summary["g"]["self"] == 5.0


# -- wrappers --------------------------------------------------------------

def _fake_package():
    pkg = types.ModuleType("fakebench")
    core = types.ModuleType("fakebench.core")
    user = types.ModuleType("fakebench.user")

    def work(x):
        return x + 1

    class Thing:
        @staticmethod
        def make(x):
            return x * 2

        @classmethod
        def build(cls, x):
            return x * 3

        @property
        def value(self):
            return 7

        def method(self):
            return "m"

    core.work, core.Thing = work, Thing
    user.work = work           # imported by name into a second module
    user.alias = work          # ... and under another name
    for module in (pkg, core, user):
        sys.modules[module.__name__] = module
    return core, user


def test_patcher_wraps_every_binding_and_undoes():
    core, user = _fake_package()
    tracer = Tracer()
    patcher = Patcher(tracer, prefix="fakebench")
    try:
        patcher.install([
            Probe("work", ["fakebench.core:work"]),
            Probe("thing", ["fakebench.core:Thing.make", "fakebench.core:Thing.build",
                            "fakebench.core:Thing.value", "fakebench.core:Thing.method"]),
        ])
        assert patcher.bindings["fakebench.core:work"] == 3
        with tracer.window():
            assert core.work(1) == 2 and user.work(1) == 2 and user.alias(1) == 2
            thing = core.Thing()
            assert core.Thing.make(2) == 4 and core.Thing.build(2) == 6
            assert thing.value == 7 and thing.method() == "m"
        assert core.work(1) == 2        # outside a window: untraced
        summary = tracer.summary()
        assert summary["work"]["calls"] == 3
        assert summary["thing"]["calls"] == 4
        patcher.undo()
        assert user.alias is core.work and core.work.__name__ == "work"
        assert not hasattr(core.work, "__wrapped__")
        assert isinstance(vars(core.Thing)["make"], staticmethod)
    finally:
        for name in ("fakebench", "fakebench.core", "fakebench.user"):
            sys.modules.pop(name, None)


def test_patcher_rejects_a_missing_target():
    _fake_package()
    try:
        with pytest.raises(AttributeError):
            Patcher(Tracer(), prefix="fakebench").install(
                [Probe("gone", ["fakebench.core:renamed"])])
    finally:
        for name in ("fakebench", "fakebench.core", "fakebench.user"):
            sys.modules.pop(name, None)


def test_span_exception_still_closes():
    tracer = Tracer()
    core, _ = _fake_package()

    def boom(x):
        raise KeyError(x)

    core.boom = boom
    try:
        Patcher(tracer, prefix="fakebench").install([Probe("boom", ["fakebench.core:boom"])])
        with tracer.window():
            with pytest.raises(KeyError):
                core.boom(1)
        summary = tracer.summary()
        assert summary["boom"]["calls"] == 1
        assert not tracer._stack
        assert math.isfinite(summary["boom"]["busy"])
    finally:
        for name in ("fakebench", "fakebench.core", "fakebench.user"):
            sys.modules.pop(name, None)
