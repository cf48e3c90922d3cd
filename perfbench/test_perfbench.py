"""Tests of the benchmark itself: span self-time arithmetic, patch restore,
the weighing of failed checks in pass_share, the check against caches across
rounds, and a tiny-size smoke run of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402
from tracer import Patches, Span, Tracer, self_times  # noqa: E402

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children():
    spans = [Span("p", 0.0, 10.0, None, 0), Span("a", 1.0, 3.0, 0, 0), Span("b", 4.0, 6.0, 0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None, 0), Span("a", 1.0, 4.0, 0, 0), Span("b", 3.0, 6.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    spans = [Span("p", 0.0, 10.0, None, 0), Span("a", 8.0, 12.0, 0, 0), Span("b", -2.0, 1.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_self_time_leaves_grandchildren_to_their_parent():
    spans = [Span("p", 0.0, 10.0, None, 0), Span("c", 2.0, 8.0, 0, 0), Span("g", 3.0, 5.0, 1, 0)]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_tracer_records_parents_requests_and_totals():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("outside"):  # 0..1, no request
        pass
    tr.begin("step")
    with tr.span("outer"):  # 2..7
        with tr.span("inner"):  # 3..4
            tr.count("things", 3)
        with tr.span("inner"):  # 5..6
            pass
    tr.end()
    assert [(s.name, s.parent, s.request) for s in tr.spans] == [
        ("outside", None, None), ("outer", None, 0), ("inner", 1, 0), ("inner", 1, 0)]
    self_s, calls, inclusive, counts = tr.totals({"step"})
    assert self_s == {"outer": 3.0, "inner": 2.0}
    assert calls == {"outer": 1, "inner": 2}
    assert inclusive == {"outer": 5.0, "inner": 2.0}
    assert counts == {"things": 3}


class _Owner:
    @classmethod
    def make(cls, x):
        return (cls, x)

    def method(self, x):
        return x + 1


def test_patches_wrap_and_restore_methods_and_classmethods():
    tr = Tracer()
    patches = Patches()
    patches.add(_Owner, "make", lambda fn: tr.wrap(fn, "make"))
    patches.add(_Owner, "method", lambda fn: tr.wrap(fn, "method"))
    raw = dict(vars(_Owner))
    with patches.active():
        assert _Owner.make(2) == (_Owner, 2)
        assert _Owner().method(1) == 2
    assert [s.name for s in tr.spans] == ["make", "method"]
    assert vars(_Owner)["make"] is raw["make"] and vars(_Owner)["method"] is raw["method"]


def _bound(name):
    return next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == name)


def test_one_failed_check_among_many_operations_breaks_the_pass_share_bound():
    r = workloads.Run(trace=False)
    for i in range(5000):
        r.op("student", False, i, lambda: (None, 1, 1))
    for i in range(15):
        r.check(f"ok {i}", True)
    r.check("wrong output", False)
    assert r.attempted == 5016 and r.failed == 1
    assert r.pass_share() < 1.0 - _bound("pass_share")


def test_two_failed_operations_in_a_hundred_break_the_pass_share_bound():
    r = workloads.Run(trace=False)
    for i in range(98):
        r.op("student", False, i, lambda: (None, 1, 1))
    for i in range(2):
        r.op("student", False, 98 + i, lambda: 1 / 0)
    r.check("ok", True)
    assert r.pass_share() < 1.0 - _bound("pass_share")


def _timed(r, kind, key, seconds, traced=False):
    r.ops.append(workloads.Op(kind, seconds, 1, 1, traced, key))


def test_round_check_fails_when_later_rounds_are_nearly_free():
    r = workloads.Run(trace=False)
    for rnd, seconds in enumerate((1.0, 0.5, 0.01)):  # round 1 traced, so not compared
        for key in range(5):
            _timed(r, "teacher", key, seconds, traced=rnd == 1)
            _timed(r, "student", key, 0.1)
    workloads.check_rounds(r)
    assert (r.checks, r.failed_checks) == (2, 1)
    assert any(n.startswith("check FAIL teacher") for n in r.notes)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)], size=workloads.TINY)
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert list(tmp_path.iterdir()) == []  # scratch checkpoints are removed
    if trace and workload != "train":
        assert result["metrics"]["autodiff.backward_ms"]["value"] == 0.0
        assert result["metrics"]["losses.kd_ms"]["value"] == 0.0
