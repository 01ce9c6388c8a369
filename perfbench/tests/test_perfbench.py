"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from reference import NOMINAL_S, WINDOW_S, Reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def test_self_times_subtract_only_direct_children():
    spans = [
        Span("root", -1, 0.0, 10.0, "j", False),
        Span("child", 0, 1.0, 4.0, "j", False),
        Span("grandchild", 1, 2.0, 3.0, "j", False),
        Span("child", 0, 5.0, 6.0, "j", False),
        Span("other", -1, 20.0, 21.0, "k", False),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_self_times_count_overlapping_and_overhanging_children_once():
    spans = [
        Span("root", -1, 0.0, 10.0, "j", False),
        Span("a", 0, 2.0, 6.0, "j", False),
        Span("b", 0, 4.0, 8.0, "j", False),  # overlaps a on [4, 6]
        Span("c", 0, 9.0, 12.0, "j", False),  # runs past the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_self_time_per_function_and_module():
    spans = [
        Span("cli.main", -1, 0.0, 5.0, "j", False),
        Span("ordinal.deferred_acceptance", 0, 1.0, 2.0, "j", False),
        Span("ordinal.deferred_acceptance", 0, 3.0, 4.5, "j", False),
        Span("metric.utilities_from_space", 0, 4.5, 5.0, "j", True),
    ]
    metrics = tracer.layer_metrics(spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.main.self_s"] == pytest.approx(2.0)
    assert metrics["ordinal.deferred_acceptance.calls"] == 2
    assert metrics["ordinal.self_s"] == pytest.approx(2.5)
    assert metrics["metric.utilities_from_space.errors"] == 1
    assert metrics["planar.is_planar.calls"] == 0


def _namespaces():
    return [m for k, m in sys.modules.items() if k == "matchrobust" or k.startswith("matchrobust.")]


def test_install_rebinds_every_namespace_and_uninstall_restores():
    import matchrobust.cli  # noqa: F401  (cli is not imported by the package)

    ordinal = workloads.program("ordinal")
    markets = workloads.program("markets")
    original = ordinal.ordinal_from_utility_flagged
    original_init = markets.UtilityProfile.__init__
    holders = [m for m in _namespaces() if any(v is original for v in vars(m).values())]
    assert len(holders) >= 3  # ordinal, robustness and the package itself

    t = tracer.Tracer()
    t.install()
    try:
        assert all(original not in vars(m).values() for m in _namespaces())
        assert markets.UtilityProfile.__init__ is not original_init
    finally:
        t.uninstall()
    assert all(m.ordinal_from_utility_flagged is original for m in holders)
    assert markets.UtilityProfile.__init__ is original_init


def test_traced_outputs_equal_untraced(tmp_path):
    inputs, outdir = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outdir.mkdir()
    jobs, seen = [], set()
    for job in sorted(workloads.build_jobs("small", 5, inputs), key=lambda j: j.id):
        if job.name not in seen:  # one job per subcommand; ids pair solve with its stable-set
            seen.add(job.name)
            jobs.append(job)
    runner = run.Runner(jobs, outdir, golden=None)
    runner.round()
    untraced = dict(runner.first)
    t = tracer.Tracer()
    runner.round(t)
    spans = t.take()
    # The traced round is judged against the untraced round's bytes.
    assert runner.failures == []
    assert set(untraced) == {j.id for j in jobs}
    assert {s.job for s in spans} == set(untraced)
    assert {s.name.split(".")[0] for s in spans} == set(tracer.TARGETS)


def test_reference_scales_by_the_median_probe_near_the_job():
    ref = Reference()
    # One probe every WINDOW_S seconds; the host is twice as slow from probe 5 on.
    ref.stamps = [k * WINDOW_S for k in range(10)]
    ref.times = [NOMINAL_S] * 5 + [2 * NOMINAL_S] * 5
    assert ref.scale(1.5 * WINDOW_S, WINDOW_S) == pytest.approx(WINDOW_S)  # probes 1..3
    assert ref.scale(7 * WINDOW_S, 0.5 * WINDOW_S) == pytest.approx(0.25 * WINDOW_S)  # probes 6..8
    assert ref.scale(4 * WINDOW_S, WINDOW_S) == pytest.approx(WINDOW_S / 1.5)  # probes 3..6 straddle the change
    with pytest.raises(ValueError):
        ref.scale(20 * WINDOW_S, WINDOW_S)


def test_probes_that_interrupt_a_job_are_left_out_of_its_time(tmp_path):
    def spin() -> bytes:  # 0.3 s of wall time, however much of it the probes take
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        return b"done"

    job = workloads.Job("t/000-solve", "solve", None, spin, lambda data, outputs: None)
    ref = Reference()
    runner = run.Runner([job], tmp_path, golden=None, reference=ref)
    with ref.probing():
        times = runner.round()
    _start, elapsed = times[job.id]
    assert len(ref.times) >= 3
    assert elapsed == pytest.approx(0.3 - ref.inside, abs=0.02)
