"""Tests of the benchmark's own logic: python3 -m pytest bench"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(id_, parent, start, end, name="x.y"):
    return spans.Span(id_, parent, 0, name, start, end)


# --------------------------------------------------------------------------
# self time
# --------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    tree = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 3.0), _span(3, 1, 4.0, 5.0),
            _span(4, 2, 1.5, 2.0)]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({1: 7.0, 2: 1.5, 3: 1.0, 4: 0.5})


def test_self_time_counts_overlapping_children_once():
    # two worker threads run samples in parallel under one parent span
    tree = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 6.0), _span(3, 1, 2.0, 8.0),
            _span(4, 1, 9.0, 12.0)]  # runs past the parent's end: clipped
    assert spans.self_times(tree)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_covered_length_merges_touching_and_disjoint_intervals():
    assert spans.covered_length([(0, 1), (1, 2), (3, 4)], -5, 5) == pytest.approx(3.0)
    assert spans.covered_length([], 0, 1) == 0.0


def test_tracer_records_parents_per_thread():
    tracer = spans.Tracer()
    outer = tracer.begin("a.outer")
    inner = tracer.begin("a.inner")
    tracer.end(inner)
    detached = tracer.begin("a.sample", parent=outer.id)
    tracer.end(detached)
    tracer.end(outer)
    assert inner.parent == outer.id and detached.parent == outer.id
    assert outer.parent is None


# --------------------------------------------------------------------------
# percentile rule
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0),
                                    (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))  # value k has n - k samples above it
    p, value = spans.tail_percentile(values)
    assert p == pct
    assert n - value >= 10
    assert value == math.ceil(round(pct * 10) * n / 1000)


def test_tail_percentile_needs_twenty_samples():
    assert spans.tail_percentile(range(19)) is None


# --------------------------------------------------------------------------
# oracle closed forms
# --------------------------------------------------------------------------

def test_oracle_entries_at_degree_zero():
    T = 0.7
    c11, c22 = oracle.diagonal_entries("wave", [0], T)
    assert c11[0] == pytest.approx(T**3 / 3, rel=1e-15) and c22[0] == T
    c11, c22 = oracle.diagonal_entries("schrodinger", [0], T)
    assert c11[0] == 0.0 and c22[0] == T


def test_oracle_series_matches_direct_formula_at_the_switch():
    x = np.array([oracle.SERIES_BELOW * (1 - 1e-12)])
    direct = 2 * x - np.sin(2 * x)
    assert oracle.two_x_minus_sin_2x(x) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.1, 0.4])
def test_oracle_series_at_small_x(x):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    exact = float(2 * mpmath.mpf(x) - mpmath.sin(2 * mpmath.mpf(x)))
    assert oracle.two_x_minus_sin_2x(np.array([x]))[0] == pytest.approx(exact, rel=1e-14)


def test_oracle_wave_entry_tends_to_degree_zero_limit():
    # c11 -> T^3/3 and c22 -> T as lam -> 0, through the series branch
    T = 1.3
    for lam in (1e-8, 1e-12):
        sq = math.sqrt(lam)
        x = sq * T
        c11 = oracle.two_x_minus_sin_2x(np.array([x]))[0] / (4 * lam * sq)
        assert c11 == pytest.approx(T**3 / 3, rel=1e-6)


def test_tail_moments_sum_above_kappa():
    mean, var = oracle.tail_moments("wave", 3.0, 1.0, 4, [2])[0]
    ells = np.array([3, 4])
    c11, _ = oracle.diagonal_entries("wave", ells, 1.0)
    a = ells ** -3.0
    assert mean[0] == pytest.approx(np.sum((2 * ells + 1) * a * c11))
    assert var[0] == pytest.approx(np.sum(2 * (2 * ells + 1) * (a * c11) ** 2))


def test_snapshot_count_includes_start_and_end():
    assert oracle._snapshot_count(32, 1) == 33
    assert oracle._snapshot_count(10, 4) == 4  # t = 0, 4, 8, 10


def test_failed_check_reports_instead_of_raising(tmp_path):
    cmd = WORKLOADS["mc-coeff"].commands[0]
    problems = oracle.check(cmd.check, cmd.params, str(tmp_path / "absent"))
    assert problems and "FileNotFoundError" in problems[0]


# --------------------------------------------------------------------------
# times net of stolen CPU time
# --------------------------------------------------------------------------

def _mark(ticks, ref):
    return {"ticks": ticks, "ref": ref}


def test_scale_removes_the_stolen_share():
    before = _mark({0: (100, 10)}, {0: 0.010})
    after = _mark({0: (250, 60)}, {0: 0.010})   # 150 busy, 50 stolen ticks
    assert worker.MachineClock.scale(2.0, before, after) == pytest.approx(2.0 * 0.75)


def test_scale_weights_each_cpu_reference_by_its_busy_ticks():
    before = _mark({0: (0, 0), 1: (0, 0)}, {0: 0.020, 1: 0.010})
    after = _mark({0: (30, 0), 1: (10, 0)}, {0: 0.020, 1: 0.010})
    ref = (3 * 0.020 + 1 * 0.010) / 4
    assert worker.MachineClock.scale(1.0, before, after) == pytest.approx(0.010 / ref)
    # a CPU's reference is averaged over the two marks
    after["ref"][0] = 0.030
    ref = (3 * 0.025 + 1 * 0.010) / 4
    assert worker.MachineClock.scale(1.0, before, after) == pytest.approx(0.010 / ref)


def test_scale_without_ticks_averages_the_cpus():
    before = _mark({}, {0: 0.020, 1: 0.010})
    after = _mark({}, {0: 0.020, 1: 0.010})
    assert worker.MachineClock.scale(1.5, before, after) == pytest.approx(1.5 * 0.010 / 0.015)


def test_proc_stat_ticks_are_busy_and_steal_fields_per_cpu(monkeypatch, tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  99 0 0 0 0 0 0 9 0 0\n"
                    "cpu0 10 1 20 500 7 2 3 40 5 0\ncpu1 1 0 1 9 0 0 0 2 0 0\n"
                    "cpu2 5 5 5 5 5 5 5 5 0 0\nintr 1 2 3\n")
    real_open = open
    monkeypatch.setattr("builtins.open", lambda path, *a, **k: real_open(
        stat if path == "/proc/stat" else path, *a, **k))
    clock = worker.MachineClock.__new__(worker.MachineClock)
    clock.cpus = [0, 1]   # cpu2 is not ours
    assert clock.ticks() == {0: (10 + 1 + 20 + 2 + 3, 40), 1: (2, 2)}
    stat.write_text("")
    assert clock.ticks() == {}


def test_speed_reference_helper_answers_per_cpu_and_exits():
    with worker.MachineClock() as clock:
        mark = clock.mark()
        helper = clock.helper
    assert helper.returncode == 0
    assert set(mark["ref"]) == set(clock.cpus)
    assert all(0 < t < 1 for t in mark["ref"].values())


# --------------------------------------------------------------------------
# probes: aliases and missing layers
# --------------------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.lib defines work(); fakepkg.user imports it as `alias`."""
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def work(n):
        return n + 1

    lib.work = work
    user.alias = work
    for mod in (pkg, lib, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return lib, user, work


def test_probe_patches_every_alias_and_restores(fake_package):
    lib, user, work = fake_package
    tracer = spans.Tracer()
    probes = spans.Probes(tracer, [("lib.work", "fakepkg.lib", "work")], "fakepkg").install()
    assert user.alias(1) == 2 and lib.work(2) == 3
    assert [s.name for s in tracer.spans] == ["lib.work", "lib.work"]
    probes.uninstall()
    assert lib.work is work and user.alias is work


def test_missing_layer_reads_none_and_does_not_crash(fake_package):
    lib, user, work = fake_package
    probe_list = [("lib.work", "fakepkg.lib", "work"),
                  ("noise.sample", "fakepkg.lib", "gone"),
                  ("wave.step", "fakepkg.absent_module", "step"),
                  ("wave.prop_build", "fakepkg.lib", "Gone.build")]
    tracer = spans.Tracer()
    probes = spans.Probes(tracer, probe_list, "fakepkg").install()
    user.alias(1)
    probes.uninstall()
    assert sorted(probes.missing) == ["fakepkg.absent_module.step", "fakepkg.lib.Gone.build",
                                      "fakepkg.lib.gone"]
    metrics = spans.layer_metrics(tracer.spans, 1, probes.installed)
    for name in ("noise.sample_s", "noise.normals", "wave.step_s", "wave.steps",
                 "wave.prop_build_s", "harness.samples", "harmonics.table_mb"):
        assert metrics[name] is None, name


def test_count_failure_keeps_the_span(fake_package):
    lib, user, work = fake_package
    tracer = spans.Tracer()
    probes = spans.Probes(tracer, [("noise.sample", "fakepkg.lib", "work")],
                          "fakepkg").install()
    assert lib.work(1) == 2  # the noise counter cannot read an int: no count, no crash
    probes.uninstall()
    metrics = spans.layer_metrics(tracer.spans, 1, probes.installed)
    assert metrics["noise.normals"] == 0.0 and metrics["noise.sample_s"] >= 0.0


# --------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# --------------------------------------------------------------------------

def _spec():
    import json
    with open(Path(__file__).parent.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads_defined_here():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_is_produced_and_has_a_prediction():
    from fnmatch import fnmatch
    from workloads import LAYER_PREDICTIONS
    names = [m["name"] for m in _spec()["per_layer"]]
    from_spans = set(spans.layer_metrics([], 1, set()))
    from_worker = {"trace.wall_s", "trace.overhead_s", "trace.heavy_share",
                   "harness.thread_speedup", "harness.thread_files_match"}
    assert set(names) == from_spans | from_worker
    for name in names:
        assert any(fnmatch(name, pattern) for pattern in LAYER_PREDICTIONS), name


def test_samples_in_a_thread_pool_are_children_of_the_map(fake_package):
    from concurrent.futures import ThreadPoolExecutor
    lib, user, work = fake_package

    def _map_samples(cfg, fn, n):
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(fn, range(n)))

    lib._map_samples = _map_samples
    tracer = spans.Tracer()
    probes = spans.Probes(tracer, [("harness.map_samples", "fakepkg.lib", "_map_samples")],
                          "fakepkg").install()
    assert lib._map_samples(types.SimpleNamespace(threads=2), work, 30) == list(range(1, 31))
    probes.uninstall()
    (outer,) = [s for s in tracer.spans if s.name == "harness.map_samples"]
    samples = [s for s in tracer.spans if s.name == spans.SAMPLE_SPAN]
    assert len(samples) == 30 and all(s.parent == outer.id for s in samples)
    metrics = spans.layer_metrics(tracer.spans, 1, probes.installed)
    assert metrics["harness.samples"] == 30 and metrics["harness.sample_ms_n"] == 30
    assert metrics["harness.sample_pmax_pct"] == 50.0
    assert 0.0 < metrics["harness.pool_efficiency"] <= 1.0
    assert metrics["harness.self_s"] >= 0.0
