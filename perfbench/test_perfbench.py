"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

import inspect
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402
from supchan import bounds, campaigns, config, states  # noqa: E402

# trace.coverage must lie in [COVERAGE_MIN, 1]: the spans cover the campaign
# phase except file writing and the summary printed to stderr.
COVERAGE_MIN = 0.9


def _trial_records(scn):
    tols = config.Tolerances()
    return [campaigns.report_to_dict(campaigns.evaluate_trial(scn, fam, t, tols))
            for fam in campaigns.FAMILIES for t in range(3)]


def test_wrappers_return_exactly_what_the_wrapped_functions_return(tmp_path):
    scn = campaigns.load_scenario(json.dumps(
        {"seed": 5, "trials": 3, "bound": "all", "dims": {"d_S": 2, "d_E": 2}}))
    plain_records = _trial_records(scn)
    plain_haar = states.haar_unitary(3, np.random.default_rng(7))
    plain_eigh = np.linalg.eigh(np.diag([3.0, 1.0, 2.0]))
    sentinel = object()

    tr = tracer.Tracer(str(tmp_path))
    tr.install()
    try:
        assert campaigns.evaluate_trial is not inspect.unwrap(campaigns.evaluate_trial)
        # ``from ... import`` bindings are patched too.
        assert bounds.density is states.density
        assert inspect.unwrap(bounds.density) is not bounds.density
        assert tr.wrap(lambda: sentinel, "test.sentinel")() is sentinel
        traced_records = _trial_records(scn)
        traced_haar = states.haar_unitary(3, np.random.default_rng(7))
        traced_eigh = np.linalg.eigh(np.diag([3.0, 1.0, 2.0]))
    finally:
        tr.uninstall()

    assert campaigns.evaluate_trial is inspect.unwrap(campaigns.evaluate_trial)
    assert json.dumps(campaigns.jsonable(traced_records)) == json.dumps(campaigns.jsonable(plain_records))
    assert np.array_equal(traced_haar, plain_haar)
    assert all(np.array_equal(a, b) for a, b in zip(traced_eigh, plain_eigh))
    assert len(tr.t0) > 0 and all(t1 >= t0 for t0, t1 in zip(tr.t0, tr.t1))


@pytest.fixture(scope="module")
def traced_pool_runs(tmp_path_factory):
    """Two traced pool campaigns of one small scenario, with their untraced twin."""
    work = str(tmp_path_factory.mktemp("work"))
    scn = {"seed": 3, "trials": 4, "bound": "all", "dims": {"d_S": 2, "d_E": 2}}
    path = os.path.join(work, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scn, fh)
    attempted = scenarios.attempted_trials(scn)
    plain = run.verify(work, path, 2, attempted)
    out = []
    for i in range(2):
        trace_dir = os.path.join(work, f"trace{i}")
        os.makedirs(trace_dir)
        traced = run.verify(work, path, 2, attempted, trace_dir=trace_dir)
        assert traced.rc == 0, traced.stderr
        assert traced.report == plain.report
        out.append(layers.derive(layers.load(trace_dir), traced.pid, traced.probe, 2, plain.campaign_s))
    return attempted, out


def test_two_traced_runs_give_identical_call_counts(traced_pool_runs):
    _, (first, second) = traced_pool_runs
    counts = layers.call_counts(first)
    assert counts == layers.call_counts(second)
    assert counts["states.density.calls"] > 0


def test_pool_worker_spans_come_back(traced_pool_runs):
    attempted, (first, _) = traced_pool_runs
    assert first["campaigns.pool.tasks"] == attempted
    assert first["campaigns.pool.scenario_parses"] == attempted
    assert 0.0 < first["campaigns.pool.busy_frac"] <= 1.0


def test_trace_coverage_within_stated_fraction(traced_pool_runs):
    for derived in traced_pool_runs[1]:
        assert COVERAGE_MIN <= derived["trace.coverage"] <= 1.0


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_scenarios_are_deterministic_in_the_seed(name):
    default = scenarios.scenario_text(name, scenarios.DEFAULT_SEED)
    assert default == scenarios.scenario_text(name, scenarios.DEFAULT_SEED)
    held_out = scenarios.scenario_text(name, scenarios.HELD_OUT_SEED)
    assert held_out == scenarios.scenario_text(name, scenarios.HELD_OUT_SEED)
    assert held_out != default
    assert scenarios.scenario_text(name, scenarios.DEFAULT_SEED, 1) != default
    for text in (default, held_out):
        campaigns.load_scenario(text)  # valid for supchan


def test_serial_and_pool_workloads_share_their_scenario():
    for seed in (scenarios.DEFAULT_SEED, scenarios.HELD_OUT_SEED):
        assert (scenarios.scenario_text("rand-d2-serial", seed)
                == scenarios.scenario_text("rand-d2-pool", seed))


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(scenarios.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
