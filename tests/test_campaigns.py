import builtins
import json
import math
import os
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from supchan import bounds as bd
from supchan import campaigns as cp
from supchan import channels as ch
from supchan import cli
from supchan import matkernel as mk
from supchan import states as st
from supchan import superchannel as sup
from supchan.config import DEFAULT_TOLS

from conftest import campaign_blocks, classical_channel, random_cptp, random_density

GOLDEN = pathlib.Path(__file__).parent / "golden"


def make_scenario(**kwargs):
    base = {"seed": 5, "trials": 2, "bound": "main", "dims": {"d_S": 2, "d_E": 2}}
    base.update(kwargs)
    return cp.load_scenario(json.dumps(base))


def test_load_scenario_defaults_and_families():
    scn = cp.load_scenario(json.dumps({"seed": 1, "trials": 3}))
    assert scn.bound == "all"
    assert scn.families() == cp.FAMILIES
    assert make_scenario().families() == ("main",)


def test_load_scenario_parse_vs_validation_errors():
    with pytest.raises(cp.ScenarioParseError):
        cp.load_scenario("{ nope")
    with pytest.raises(cp.ScenarioParseError):
        cp.load_scenario("[1, 2]")
    with pytest.raises(cp.ScenarioError, match="trials"):
        cp.load_scenario(json.dumps({"seed": 1}))
    with pytest.raises(cp.ScenarioError, match="dims.d_S"):
        cp.load_scenario(json.dumps({"seed": 1, "trials": 1, "dims": {"d_S": -2}}))
    with pytest.raises(cp.ScenarioError, match="bound"):
        cp.load_scenario(json.dumps({"seed": 1, "trials": 1, "bound": "nope"}))
    with pytest.raises(cp.ScenarioError, match="tolerances.slack_tol"):
        cp.load_scenario(json.dumps({"seed": 1, "trials": 1, "tolerances": {"slack_tol": -1}}))


def test_explicit_matrices_are_validated_with_the_scenario_tolerances():
    # sigma is off-Hermitian by 5e-10: rejected at the default herm_tol,
    # accepted at load and by every trial under the scenario's override.
    sigma = np.diag([0.6, 0.4]).astype(complex)
    sigma[0, 1] = 5e-10j
    spec = {"seed": 3, "trials": 2, "bound": "spohn", "dims": {"d_S": 2},
            "explicit": {"sigma": cp.matrix_to_json(sigma)}}
    with pytest.raises(cp.ScenarioError, match="explicit"):
        cp.load_scenario(json.dumps(spec))
    scn = cp.load_scenario(json.dumps({**spec, "tolerances": {"herm_tol": 1e-9}}))
    report = cp.run_campaign(scn, scn.tols(DEFAULT_TOLS))
    assert report["summary"]["passes"] == 2
    # The Hermiticity check of H and the unitarity check of U read herm_tol too.
    h = np.diag([0.0, 1.0]).astype(complex)
    h[0, 1] = 5e-10j
    u = (1 + 2e-10) * np.eye(4, dtype=complex)
    for key, m in (("H", h), ("U", u)):
        spec = {"seed": 3, "trials": 1, "bound": "clausius", "dims": {"d_S": 2},
                "explicit": {key: cp.matrix_to_json(m)}}
        with pytest.raises(cp.ScenarioError, match=f"explicit.{key}"):
            cp.load_scenario(json.dumps(spec))
        cp.load_scenario(json.dumps({**spec, "tolerances": {"herm_tol": 1e-9}}))


def test_load_scenario_matrix_errors_name_field_paths():
    with pytest.raises(cp.ScenarioError, match=r"explicit.U"):
        cp.load_scenario(json.dumps(
            {"seed": 1, "trials": 1, "explicit": {"U": [[1, 0], [0]]}}
        ))
    # a 4x4 U, the size that every family reads it at for d_S = d_E = 2, so
    # that the entry itself is read
    with pytest.raises(cp.ScenarioError, match=r"explicit.U\[0\]\[1\]"):
        cp.load_scenario(json.dumps(
            {"seed": 1, "trials": 1, "explicit": {"U": [[1, "x", 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}
        ))
    # a non-square U is refused for its size, with its name
    with pytest.raises(cp.ScenarioError, match=r"explicit.U: main reads it at d_S\*d_E=4; it is 3x2, not 4x4"):
        cp.load_scenario(json.dumps(
            {"seed": 1, "trials": 1, "explicit": {"U": [[1, 0], [0, 1], [0, 0]]}}
        ))
    with pytest.raises(cp.ScenarioError, match="explicit"):
        cp.load_scenario(json.dumps(
            {"seed": 1, "trials": 1, "explicit": {"rho_se": [[1, 0], [0, 1]]}}
        ))


def test_parse_complex_matrix_pairs():
    m = cp.parse_complex_matrix([[[0.0, 1.0], 2.0], [0, [3.0, -1.0]]], "x", [("spohn", "d_S", 2, 2)])
    assert m[0, 0] == 1j and m[0, 1] == 2.0 and m[1, 1] == 3.0 - 1j


def test_scenario_echo_round_trip():
    # Every explicit key, each in a scenario whose family reads it; op_kraus
    # and op_choi are exclusive, and clausius reads theta only without U.
    rng = np.random.default_rng(7)
    mats = {"U": ch.partial_swap_unitary(2, 0.3), "rho_se": random_density(4, 2, rng).mat,
            "H": np.diag([0.0, 1.0]).astype(complex), "sigma": random_density(2, 2, rng).mat,
            "V": st.haar_unitary(4, rng), "alpha": random_density(2, 1, rng).mat}
    kraus = [random_cptp(2, 2, rng).kraus for _ in range(2)]
    values = {k: cp.matrix_to_json(m) for k, m in mats.items()}
    values.update({"op_kraus": [cp.matrix_to_json(k) for k in kraus[0]],
                   "op_choi": cp.matrix_to_json(ch.from_kraus(kraus[1]).choi), "beta": 2.0, "theta": 0.1,
                   "ensemble": {"probs": [0.25, 0.75],
                                "ops_kraus": [[cp.matrix_to_json(k) for k in op] for op in kraus]}})
    cases = [("main", ["U", "rho_se", "op_kraus"]), ("main", ["U", "rho_se", "op_choi"]),
             ("clausius", ["H", "sigma", "beta", "theta"]), ("mmap-consistency", ["U", "rho_se", "V", "alpha"]),
             ("holevo", ["U", "rho_se", "ensemble"])]
    assert {k for _, keys in cases for k in keys} == set(cp._EXPLICIT_KEYS)
    for bound, keys in cases:
        explicit = {k: values[k] for k in keys}
        scn = make_scenario(bound=bound, explicit=explicit)
        echo = cp.scenario_echo(scn)
        assert json.dumps(echo["explicit"], sort_keys=True) == json.dumps(explicit, sort_keys=True)
        again = cp.load_scenario(json.dumps(echo))
        assert json.dumps(cp.scenario_echo(again)) == json.dumps(echo)
        for k in set(keys) & set(mats):
            assert getattr(again.explicit[k], "mat", again.explicit[k]).tobytes() == mats[k].tobytes()
        for k in set(keys) & {"op_kraus", "op_choi"}:
            assert again.explicit[k].choi.tobytes() == scn.explicit[k].choi.tobytes()


def test_a_map_pinned_as_op_choi_or_as_its_kraus_operators_gives_the_same_spohn_records():
    # One action per operation: an op_choi acts through the Kraus operators
    # that from_chois took from it, so pinning those operators as op_kraus,
    # at the same seed, sigma and dims, moves no bit of a spohn record.
    rng = np.random.default_rng(25)
    op = random_cptp(3, 5, rng)
    kraus = ch.from_chois(op.choi, 3, 3, DEFAULT_TOLS)[0].kraus
    sigma = cp.matrix_to_json(random_density(3, 2, rng).mat)
    records = []
    for pinned in ({"op_choi": cp.matrix_to_json(op.choi)}, {"op_kraus": [cp.matrix_to_json(k) for k in kraus]}):
        scn = make_scenario(seed=9, trials=3, bound="spohn", dims={"d_S": 3}, explicit={**pinned, "sigma": sigma})
        rep = cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
        records.append(json.dumps(cp.jsonable([[r[k] for k in ("lhs", "rhs", "slack", "metadata")]
                                               for r in rep["sections"]["spohn"]["reports"]])))
    assert records[0] == records[1]


def test_report_leaves_are_plain_json_types():
    # Every value of a bound-all report reaches render_json as a Python
    # str, int, float, bool or None: no numpy scalar rides in a record.
    scn = make_scenario(seed=3, trials=3, bound="all", dims={})
    rep = cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    leaves, todo = [], [rep]
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            assert all(type(k) is str for k in x)
            todo.extend(x.values())
        elif type(x) is list:
            todo.extend(x)
        else:
            leaves.append(x)
    assert {type(x) for x in leaves} <= {str, int, float, bool, type(None)}
    assert [r["metadata"]["codewords"] for r in rep["sections"]["holevo"]["reports"]]


def test_ext_to_json_values():
    assert cp.ext_to_json(float("inf")) == "inf"
    assert cp.ext_to_json(float("-inf")) == "-inf"
    assert cp.ext_to_json(float("nan")) == "indeterminate"
    assert cp.ext_to_json(1.5) == 1.5


def test_evaluate_trial_deterministic():
    scn = make_scenario()
    a = cp.report_to_dict(cp.evaluate_trial(scn, "main", 1, DEFAULT_TOLS))
    b = cp.report_to_dict(cp.evaluate_trial(scn, "main", 1, DEFAULT_TOLS))
    assert json.dumps(cp.jsonable(a), sort_keys=True) == json.dumps(cp.jsonable(b), sort_keys=True)


def test_evaluate_trial_every_family_runs():
    scn = cp.load_scenario(json.dumps({"seed": 2, "trials": 1, "bound": "all",
                                       "n_measurements": 5}))
    for family in cp.FAMILIES:
        rep = cp.evaluate_trial(scn, family, 0, DEFAULT_TOLS)
        assert rep.passed, family
        assert rep.metadata["trial"] == 0


def test_collected_details_expose_steady_state_spectrum():
    scn = make_scenario()
    details = {}
    cp.evaluate_trial(scn, "main", 0, DEFAULT_TOLS, collect=details)
    eigs = details["ness_eigenvalues"]
    assert abs(sum(eigs) - 1.0) <= 1e-12
    for key in ("entropy_sigma_prime", "entropy_op_state",
                "tr_sigma_log_ness", "tr_op_log_neso", "slack_identity"):
        assert key in details


def test_run_campaign_summary_invariant():
    scn = cp.load_scenario(json.dumps({"seed": 3, "trials": 4, "bound": "all",
                                       "n_measurements": 5}))
    rep = cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    s = rep["summary"]
    assert s["passes"] + s["failures"] + s["flagged_infinite"] == s["trials"]
    assert s["trials"] == 4 * len(cp.FAMILIES)
    assert s["wall_time"] is None
    for family in cp.FAMILIES:
        sec = rep["sections"][family]["summary"]
        assert sec["passes"] + sec["failures"] + sec["flagged_infinite"] == sec["trials"]


def test_run_campaign_serial_equals_parallel():
    # Two blocks, so that jobs=2 runs a pool.
    scn = make_scenario(trials=cp._block_size("main", cp._dim_values({"d_S": 2, "d_E": 2}), 50) + 1)
    assert len(campaign_blocks(scn)) == 2
    serial = cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=1))
    parallel = cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=2))
    assert serial == parallel


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    # A budget of one entry makes every block a single trial; a stacked step
    # whose bits depend on the length of its stack would move a byte.
    # The pinned d=3 campaign fills one main block and starts a second.
    pinned = cp._block_size("main", cp._dim_values({"d_S": 3, "d_E": 3}), 50) + 4
    scenarios = [make_scenario(bound="all", trials=12, seed=8), pinned_d3_scenario(pinned)]
    default = [cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)) for scn in scenarios]
    assert [len(campaign_blocks(scn)) for scn in scenarios] == [6, 2]
    monkeypatch.setattr(cp, "STACK_ENTRIES", 1)
    assert [len(campaign_blocks(scn)) for scn in scenarios] == [6 * 12, pinned]
    for jobs in (1, 2):
        assert [cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=jobs)) for scn in scenarios] == default


REAL_FORK = os.fork


def count_forks(monkeypatch, limit):
    """Wrap ``os.fork``: a fork beyond ``limit`` is refused before it starts,
    and the forking process records each child's pid in the list returned."""
    pids = []

    def fork():
        if len(pids) >= limit:
            raise AssertionError(f"a fork beyond {limit}")
        pid = REAL_FORK()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return pids


def report_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_pool_has_no_more_workers_than_blocks(monkeypatch):
    # This process is one of the workers, so a campaign of k blocks on c
    # usable CPUs forks at most min(k, c) - 1 children, however large --jobs.
    def report(scn, jobs):
        return cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=jobs))

    one_block = make_scenario(bound="spohn", trials=1)
    six_blocks = make_scenario(bound="all", trials=1, n_measurements=5)
    serial = report(six_blocks, 1)
    cpus = len(os.sched_getaffinity(0))
    for scn in (one_block, six_blocks):
        limit = min(len(campaign_blocks(scn)), cpus) - 1
        forks = count_forks(monkeypatch, limit)
        assert report(scn, 100000) == report(scn, 1)
        assert len(forks) == limit
    report_cpus(monkeypatch, 3)
    for jobs, limit in ((100000, 2), (2, 1)):
        forks = count_forks(monkeypatch, limit)
        assert report(six_blocks, jobs) == serial
        assert len(forks) == limit
    assert_no_child_is_left()


def test_golden_reports_do_not_depend_on_the_number_of_processes(monkeypatch):
    report_cpus(monkeypatch, 3)
    scn = cp.load_scenario((GOLDEN / "random-all-d2.json").read_text())
    rendered = []
    for jobs in (1, 2, 3):
        forks = count_forks(monkeypatch, jobs - 1)
        report = cp.run_campaign(scn, scn.tols(DEFAULT_TOLS), jobs=jobs)
        assert len(forks) == jobs - 1
        rendered.append((cp.render_json(report), cp.render_csv(report)))
    assert rendered[1] == rendered[0] and rendered[2] == rendered[0]


def test_the_pool_splits_blocks_longest_first_to_the_least_loaded_process():
    assert cp._shares([5, 1, 4, 4, 2], 2) == [[0, 1, 4], [2, 3]]
    assert cp._shares([3, 3, 3, 3, 1], 2) == [[0, 2, 4], [1, 3]]
    assert cp._shares([1, 1, 1], 3) == [[0], [1], [2]]


def test_a_serial_run_is_the_pool_with_one_share(monkeypatch):
    # jobs=1 takes the one path of _pool_blocks with a single share, in
    # task order: it forks nothing, leaves the BLAS threads alone and
    # imports nothing that it needs only to kill a child.
    def untouched():
        raise AssertionError("the BLAS thread count was read")
    monkeypatch.setattr(cp, "_openblas_threads", untouched)
    shares, real_pool = [], cp._pool_blocks
    monkeypatch.setattr(cp, "_pool_blocks", lambda tasks, campaign, s: shares.append(s) or real_pool(tasks, campaign, s))
    imported, real_import = [], builtins.__import__
    monkeypatch.setattr(builtins, "__import__", lambda name, *a, **k: imported.append(name) or real_import(name, *a, **k))
    forks = count_forks(monkeypatch, 0)
    scn = make_scenario(bound="all", trials=1, n_measurements=5)
    cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    assert shares == [[list(range(len(cp.FAMILIES)))]]
    assert forks == [] and "signal" not in imported


def test_a_crash_in_a_pool_worker_prints_the_workers_traceback(tmp_path, capsys, monkeypatch):
    # Only the forked child's share raises; the frames of its traceback do
    # not survive pickling, so the child notes them on the error it sends.
    report_cpus(monkeypatch, 2)
    me, real = os.getpid(), cp.evaluate_block

    def singular_helper_of_the_worker():
        raise np.linalg.LinAlgError("Singular matrix")

    def evaluate_block(*args, **kwargs):
        if os.getpid() != me:
            singular_helper_of_the_worker()
        return real(*args, **kwargs)
    monkeypatch.setattr(cp, "evaluate_block", evaluate_block)
    forks = count_forks(monkeypatch, 1)
    path, out = tmp_path / "scn.json", tmp_path / "r.json"
    path.write_text(json.dumps({"seed": 1, "trials": 2, "n_measurements": 5}))
    assert cli.main(["verify", "--scenario", str(path), "--out", str(out), "--jobs", "2"]) == cli.EXIT_CRASH
    err = capsys.readouterr().err
    assert "numpy.linalg.LinAlgError: Singular matrix" in err
    assert "in singular_helper_of_the_worker" in err and "The pool worker's traceback" in err
    assert len(forks) == 1 and not out.exists()
    assert_no_child_is_left()


def test_a_pool_worker_that_dies_exits_4_and_leaves_no_child(tmp_path, capsys, monkeypatch):
    report_cpus(monkeypatch, 2)
    me, real = os.getpid(), cp._eval_task
    monkeypatch.setattr(cp, "_eval_task",
                        lambda task, campaign: os._exit(7) if os.getpid() != me else real(task, campaign))
    path, out = tmp_path / "scn.json", tmp_path / "r.json"
    path.write_text(json.dumps({"seed": 1, "trials": 2, "n_measurements": 5}))
    assert cli.main(["verify", "--scenario", str(path), "--out", str(out), "--jobs", "2"]) == cli.EXIT_CRASH
    assert "RuntimeError: a pool worker died with exit status 7" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_is_left()


def test_an_interrupt_in_this_process_kills_and_reaps_the_pool_workers(monkeypatch):
    # The child's share would sleep for a minute; the interrupt of this
    # process's share kills it at once.
    report_cpus(monkeypatch, 2)
    me = os.getpid()

    def eval_task(task, campaign):
        if os.getpid() == me:
            raise KeyboardInterrupt
        time.sleep(60)
    monkeypatch.setattr(cp, "_eval_task", eval_task)
    forks = count_forks(monkeypatch, 1)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cp.run_campaign(make_scenario(bound="all", trials=1, n_measurements=5), DEFAULT_TOLS, jobs=2)
    assert len(forks) == 1 and time.monotonic() - t0 < 20
    assert_no_child_is_left()


def test_the_pool_runs_one_blas_thread_in_each_process_and_restores_the_count(monkeypatch):
    blas = cp._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count setter")
    report_cpus(monkeypatch, 2)
    seen, real = [], cp._eval_task
    monkeypatch.setattr(cp, "_eval_task", lambda task, campaign: seen.append(blas[0]()) or real(task, campaign))
    before = blas[0]()
    blas[1](2)
    try:
        forks = count_forks(monkeypatch, 1)
        cp.run_campaign(make_scenario(bound="all", trials=1, n_measurements=5), DEFAULT_TOLS, jobs=2)
        assert len(forks) == 1 and seen and set(seen) == {1}
        assert blas[0]() == 2
    finally:
        blas[1](before)


def test_a_pinned_neso_is_found_once_per_campaign_and_its_superchannel_built_once_per_block(monkeypatch):
    # The superchannels and the steady operations of a block are each one
    # stacked step, over every drawn superchannel of the block at once.  A
    # pinned (U, rho_SE) is built once per block, and once more for the
    # steady state that every block shares.
    calls = {"build_block": [], "neso_block": []}
    for name in calls:
        def counted(scs, *args, _name=name, _real=getattr(sup, name)):
            calls[_name].append(len(scs))
            return _real(scs, *args)
        monkeypatch.setattr(sup, name, counted)
    rng = np.random.default_rng(4)
    pinned = make_scenario(trials=5, explicit={
        "U": cp.matrix_to_json(st.haar_unitary(4, rng)),
        "rho_se": cp.matrix_to_json(random_density(4, 2, rng).mat)})
    cp.run_campaign(pinned, DEFAULT_TOLS, jobs=1)
    assert calls == {"build_block": [1, 1], "neso_block": [1]}
    with monkeypatch.context() as m:
        # With a budget of 2 trials per block, the 5 trials are three blocks.
        m.setattr(cp, "STACK_ENTRIES", 2 * cp._trial_entries("main", cp._dim_values(pinned.dims), 50))
        calls.update(build_block=[], neso_block=[])
        cp.run_campaign(pinned, DEFAULT_TOLS, jobs=1)
        assert calls == {"build_block": [1] * 4, "neso_block": [1]}
    calls.update(build_block=[], neso_block=[])
    cp.run_campaign(make_scenario(trials=5), DEFAULT_TOLS, jobs=1)
    assert calls == {"build_block": [5], "neso_block": [5]}
    calls.update(build_block=[], neso_block=[])
    twenty = make_scenario(trials=20)
    cp.run_campaign(twenty, DEFAULT_TOLS, jobs=1)
    sizes = [len(trials) for _, trials in campaign_blocks(twenty)]
    assert calls == {"build_block": sizes, "neso_block": sizes}
    # With a budget of 8 trials per block, the 20 trials are three blocks.
    monkeypatch.setattr(cp, "STACK_ENTRIES", 8 * cp._trial_entries("main", cp._dim_values(twenty.dims), 50))
    calls.update(build_block=[], neso_block=[])
    cp.run_campaign(twenty, DEFAULT_TOLS, jobs=1)
    assert calls == {"build_block": [8, 8, 4], "neso_block": [8, 8, 4]}


def test_a_clausius_block_builds_its_gibbs_state_once(monkeypatch):
    calls = []
    real = bd.thermal_state
    monkeypatch.setattr(bd, "thermal_state", lambda *a: calls.append(1) or real(*a))
    scn = make_scenario(bound="clausius", trials=5)
    cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    assert len(calls) == 1
    # With a budget of 2 trials per block, the 5 trials are three blocks.
    monkeypatch.setattr(cp, "STACK_ENTRIES", 2 * cp._trial_entries("clausius", cp._dim_values(scn.dims), 50))
    calls.clear()
    cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    assert len(calls) == 3


def test_a_pinned_main_trial_forms_no_kron_and_at_most_two_eigendecompositions(monkeypatch):
    # act, transfer_matrix and the random_cptp lift form their Kronecker
    # products in one stacked multiply, and the prepared steady state is
    # decomposed once, in prepare; what remains per trial is the random
    # operation's Kraus extraction and the spectrum of sigma'.
    calls = {"kron": 0, "herm_eig_of": 0}
    for mod, name in ((np, "kron"), (mk, "herm_eig_of")):
        def counted(*args, _name=name, _real=getattr(mod, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    real_prepare = cp.prepare

    def prepare(*args):
        prepared = real_prepare(*args)
        calls["herm_eig_of"] = 0
        return prepared
    monkeypatch.setattr(cp, "prepare", prepare)
    rng = np.random.default_rng(9)
    scn = make_scenario(trials=20, dims={"d_S": 3, "d_E": 3}, explicit={
        "U": cp.matrix_to_json(st.haar_unitary(9, rng)),
        "rho_se": cp.matrix_to_json(random_density(9, 3, rng).mat)})
    cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    assert calls["kron"] == 0
    assert calls["herm_eig_of"] <= 2 * 20


def pinned_d3_scenario(trials):
    rng = np.random.default_rng(9)
    return make_scenario(trials=trials, dims={"d_S": 3, "d_E": 3}, explicit={
        "U": cp.matrix_to_json(st.haar_unitary(9, rng)),
        "rho_se": cp.matrix_to_json(random_density(9, 3, rng).mat)})


def test_a_pinned_main_block_decomposes_twice_and_is_one_task(monkeypatch):
    # One stacked Kraus extraction and one stacked spectrum of sigma' per
    # block, and one _eval_task call per block; the trials fill one block
    # and start a second.
    scn = pinned_d3_scenario(cp._block_size("main", cp._dim_values({"d_S": 3, "d_E": 3}), 50) + 4)
    blocks = len(campaign_blocks(scn))
    assert blocks == 2
    calls = {"herm_eig_of": 0, "_eval_task": 0}
    for mod, name in ((mk, "herm_eig_of"), (cp, "_eval_task")):
        def counted(*args, _name=name, _real=getattr(mod, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    real_prepare = cp.prepare

    def prepare(*args):
        prepared = real_prepare(*args)
        calls["herm_eig_of"] = 0
        return prepared
    monkeypatch.setattr(cp, "prepare", prepare)
    cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    assert calls["herm_eig_of"] <= 2 * blocks
    assert calls["_eval_task"] == blocks


# Scenarios whose first failing trial is not trial 0, with the line that the
# per-trial code printed.  In the first, trial 1 fails the trace check of
# sigma', and trial 6 of the same block fails an earlier check (the
# reconstruction of its random operation's Choi matrix), which the block
# meets first.  In the second, trial 18 and then trial 21 fail.
FIRST_FAILURES = [
    ({"seed": 3, "dims": {"d_S": 3, "d_E": 2}, "tolerances": {"recon_tol": 1e-15, "trace_tol": 4e-16}},
     "validation error: trace 0.9999999999999989 is not 1 within 4e-16"),
    ({"seed": 17, "trials": 24, "tolerances": {"recon_tol": 1e-15}},
     "validation error: eigendecomposition residual 1.222e-15 exceeds recon_tol"),
]


def pool_with_the_earliest_failure_in_a_child(monkeypatch, path):
    """Report two CPUs and cut blocks of t trials, t the earliest failing
    trial, so that the campaign is at least two blocks and the block of
    trials t to 2t - 1 is the forked child's share; returns the forks."""
    scn = cp.load_scenario(path.read_text())
    family, tols = scn.families()[0], scn.tols(DEFAULT_TOLS)

    def fails(t):
        try:
            cp.evaluate_trial(scn, family, t, tols)
        except ValueError:
            return True
        return False
    first = next(t for t in range(scn.trials) if fails(t))
    dim = cp._dim_values(scn.dims)
    monkeypatch.setattr(cp, "STACK_ENTRIES", first * cp._trial_entries(family, dim, scn.n_measurements))
    report_cpus(monkeypatch, 2)
    blocks = campaign_blocks(scn)
    assert blocks[1] == (family, range(first, min(2 * first, scn.trials)))
    costs = [len(trials) * cp._trial_entries(f, dim, scn.n_measurements) for f, trials in blocks]
    assert 1 in cp._shares(costs, 2)[1]
    return count_forks(monkeypatch, 1)


@pytest.mark.parametrize("spec,line", FIRST_FAILURES)
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_block_reports_the_earliest_failing_trial(tmp_path, capsys, monkeypatch, spec, line, jobs):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"trials": 16, "bound": "main", "dims": {"d_S": 2, "d_E": 2}, **spec}))
    forks = pool_with_the_earliest_failure_in_a_child(monkeypatch, path) if jobs == 2 else []
    assert cli.main(["verify", "--scenario", str(path), "--jobs", str(jobs)]) == 3
    assert capsys.readouterr().err.strip() == line
    assert len(forks) == jobs - 1


# holevo and qdpi scenarios whose first failing trial is 2, 6 and 8, with
# the line that the per-trial code printed.  In the first, trial 4 of the
# same block fails another check (a negative eigenvalue).
BLOCK_FIRST_FAILURES = [
    ({"bound": "holevo", "seed": 7, "tolerances": {"psd_floor": 1e-16, "trace_tol": 8e-16}},
     "validation error: trace 1.0000000000000009 is not 1 within 8e-16"),
    ({"bound": "qdpi", "seed": 1, "tolerances": {"recon_tol": 1e-15}},
     "validation error: eigendecomposition residual 1.305e-15 exceeds recon_tol"),
    ({"bound": "qdpi", "seed": 0, "tolerances": {"recon_tol": 1e-15}},
     "validation error: eigendecomposition residual 1.055e-15 exceeds recon_tol"),
]


@pytest.mark.parametrize("spec,line", BLOCK_FIRST_FAILURES)
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_holevo_or_qdpi_block_reports_the_earliest_failing_trial(tmp_path, capsys, monkeypatch, spec,
                                                                         line, jobs):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"trials": 16, "n_measurements": 5, **spec}))
    forks = pool_with_the_earliest_failure_in_a_child(monkeypatch, path) if jobs == 2 else []
    assert cli.main(["verify", "--scenario", str(path), "--jobs", str(jobs)]) == 3
    assert capsys.readouterr().err.strip() == line
    assert len(forks) == jobs - 1


# spohn, clausius and mmap-consistency scenarios whose first failing trial is
# 4, 3 and 2, with the line that the per-trial code printed.  In each,
# another trial of the same block fails a check that the stacked block meets
# first.
STACKED_FIRST_FAILURES = [
    ({"bound": "spohn", "seed": 38, "tolerances": {"recon_tol": 1e-15}},
     "validation error: eigendecomposition residual 1.110e-15 exceeds recon_tol"),
    ({"bound": "clausius", "seed": 73, "tolerances": {"trace_tol": 4e-16}},
     "validation error: trace 1.0000000000000009 is not 1 within 4e-16"),
    ({"bound": "mmap-consistency", "seed": 1, "tolerances": {"trace_tol": 4e-16}},
     "validation error: trace 0.9999999999999996 is not 1 within 4e-16"),
]


@pytest.mark.parametrize("spec,line", STACKED_FIRST_FAILURES)
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_spohn_clausius_or_mmap_block_reports_the_earliest_failing_trial(tmp_path, capsys, monkeypatch,
                                                                                    spec, line, jobs):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"trials": 16, **spec}))
    forks = pool_with_the_earliest_failure_in_a_child(monkeypatch, path) if jobs == 2 else []
    assert cli.main(["verify", "--scenario", str(path), "--jobs", str(jobs)]) == 3
    assert capsys.readouterr().err.strip() == line
    assert len(forks) == jobs - 1
    scn = cp.load_scenario(path.read_text())
    with pytest.raises(mk.ValidationError) as raised:
        cp.evaluate_block(scn, spec["bound"], range(8), scn.tols(DEFAULT_TOLS))
    assert f"validation error: {raised.value}" != line


def test_an_explicit_rho_se_just_above_recon_tol_is_refused_at_load(tmp_path, capsys):
    # Every density check ends in the reconstruction check, so rho_SE faces
    # recon_tol although no trial decomposes it: at its own residual the
    # scenario loads, just below it verify exits 3 before any trial.
    g = np.random.default_rng(5).standard_normal((4, 3, 2)) @ [1, 1j]
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    rho = (rho + rho.conj().T) / 2.0
    w, v = np.linalg.eigh(rho)
    resid = mk.max_abs((v[:, ::-1] * w[::-1]) @ v[:, ::-1].conj().T - rho)
    assert resid > 0.0
    spec = {"seed": 1, "trials": 1, "bound": "main", "explicit": {"rho_se": cp.matrix_to_json(rho)}}
    assert cp.load_scenario(json.dumps({**spec, "tolerances": {"recon_tol": resid}})).trials == 1
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**spec, "tolerances": {"recon_tol": resid * (1 - 1e-6)}}))
    assert cli.main(["verify", "--scenario", str(path), "--jobs", "1"]) == 3
    assert capsys.readouterr().err.strip() == (f"scenario error: explicit.rho_se: eigendecomposition residual "
                                               f"{resid:.3e} exceeds recon_tol")


@pytest.mark.parametrize("explicit", [False, True])
def test_a_holevo_block_makes_one_measured_information_call(monkeypatch, explicit):
    calls = []
    real = bd.measured_information

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)
    monkeypatch.setattr(bd, "measured_information", counted)
    ex = {}
    if explicit:
        rng = np.random.default_rng(4)
        ops = [random_cptp(2, 1 + i % 4, rng) for i in range(3)]
        ex = {"ensemble": {"probs": [0.5, 0.25, 0.25], "ops_kraus": [[cp.matrix_to_json(k) for k in op.kraus]
                                                                      for op in ops]}}
    scn = make_scenario(trials=20, bound="holevo", n_measurements=7, explicit=ex)
    reports = cp.evaluate_block(scn, "holevo", range(3, 11), DEFAULT_TOLS)
    assert calls == [8]
    assert [r.metadata["trial"] for r in reports] == list(range(3, 11))
    assert all(r.metadata["n_measurements"] == 8 for r in reports)


def per_trial_peak(family, dims):
    """Traced bytes that one more trial adds to a block's peak: (peak of a
    9-trial block - peak of a 1-trial block) / 8, with the einsum path
    caches built beforehand."""
    scn = make_scenario(trials=9, bound=family, dims=dims)
    peaks = []
    for n in (9, 1):
        cp.evaluate_block(scn, family, range(n), DEFAULT_TOLS)
        tracemalloc.start()
        try:
            cp.evaluate_block(scn, family, range(n), DEFAULT_TOLS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[0] - peaks[1]) / 8


@pytest.mark.parametrize("family,dims", [
    ("spohn", {"d_S": 3}), ("spohn", {"d_S": 4}),
    ("main", {"d_S": 4, "d_E": 4}), ("main", {"d_S": 4, "d_E": 1}),
    ("clausius", {"d_S": 3}), ("clausius", {"d_S": 4}),
    ("holevo", {"d_S": 3, "d_E": 3}), ("holevo", {"d_S": 4, "d_E": 2}),
    ("qdpi", {"d_P": 4, "d_Q": 1, "d_E1": 4, "d_E2": 1})])
def test_a_trial_holds_at_most_four_times_the_entries_it_is_counted(family, dims):
    # Complex entries are 16 bytes.  A Kraus-ordered sum holds one term per
    # trial at a time; where d_E < d_S, main's d_S^4 draws and fixed points
    # outweigh its (d_S d_E)^2 stacks, and where d_P^6 outweighs (d_P d_Q)^4,
    # qdpi's six-index tensors and their stacked contraction outweigh its
    # joint states.
    entries = cp._trial_entries(family, cp._dim_values(dims), 50)
    assert per_trial_peak(family, dims) <= 4 * entries * 16


def test_blocks_keep_d2_families_whole_and_grow_at_d4():
    d2, d4 = cp._dim_values({"d_S": 2, "d_E": 2}), cp._dim_values({"d_S": 4, "d_E": 4, "d_A": 4})
    assert all(cp._block_size(f, d2, 50) >= 50 for f in cp.FAMILIES)
    # Blocks of 8/7/7/6 when a trial was counted with all d_S^2 Kraus
    # operators lifted at once.
    grown = {f: cp._block_size(f, d4, 50) for f in ("spohn", "main", "clausius", "holevo")}
    assert grown == {"spohn": 32, "main": 21, "clausius": 21, "holevo": 13}


def qdpi_scenario(d_p, d_q):
    return make_scenario(trials=8, bound="qdpi", dims={"d_P": d_p, "d_Q": d_q, "d_E1": 2, "d_E2": 3})


@pytest.mark.parametrize("d_p,d_q,sizes", [(d_p, d_q, [len(t) for _, t in campaign_blocks(qdpi_scenario(d_p, d_q))])
                                           for d_p, d_q in ((2, 2), (2, 3), (3, 3))])
def test_a_qdpi_block_stacks_at_most_the_stack_limit_of_joint_choi_entries(monkeypatch, d_p, d_q, sizes):
    # (d_P d_E1)^2 + (d_Q d_E2)^2 + (d_P d_Q)^4 entries per trial, and
    # d^6 + d^4 d_E^2 for each split's six-index tensors: 644 and 2979 fit
    # more than eight times into STACK_ENTRIES, 9189 three times; so a
    # campaign cuts its qdpi trials into blocks of that many, and each block
    # gives the per-trial reports.
    scn = qdpi_scenario(d_p, d_q)
    entries = cp._trial_entries("qdpi", cp._dim_values(scn.dims), scn.n_measurements)
    assert max(sizes) * entries <= cp.STACK_ENTRIES
    calls = []
    real = bd.qdpi_block

    def counted(sc1s, *args):
        calls.append(len(sc1s))
        return real(sc1s, *args)
    monkeypatch.setattr(bd, "qdpi_block", counted)
    reports = cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)["sections"]["qdpi"]["reports"]
    assert calls == sizes
    one = [cp.evaluate_trial(scn, "qdpi", t, DEFAULT_TOLS) for t in range(8)]
    assert reports == [cp.report_to_dict(r) for r in one]


def test_a_later_steady_operation_failure_does_not_hide_an_earlier_trial(monkeypatch):
    # Trial 4's steady operation fails, but trial 1 fails its trace check
    # first in trial order.
    spec = FIRST_FAILURES[0][0]
    scn = make_scenario(trials=8, dims=spec["dims"], seed=3, tolerances={"trace_tol": 4e-16})
    tols = scn.tols(DEFAULT_TOLS)
    rng = cp._trial_rng(scn, "main", 4)
    bad = cp.random_superchannels(3, 2, [rng], tols)[0].rho_se.mat.tobytes()
    real = sup.neso_block

    def neso_block(scs, tols):
        if any(sc.rho_se.mat.tobytes() == bad for sc in scs):
            raise ch.FixedPointError("no steady state")
        return real(scs, tols)
    monkeypatch.setattr(sup, "neso_block", neso_block)
    with pytest.raises(ch.FixedPointError):
        cp.evaluate_block(scn, "main", range(2, 8), tols)
    with pytest.raises(mk.ValidationError, match="trace 0.9999999999999989 is not 1"):
        cp.run_campaign(scn, tols, jobs=1)


def test_every_prepared_object_reaches_the_pool_workers():
    # Pins every trial-invariant entry, so that main, qdpi, holevo and
    # mmap-consistency run on one superchannel and main on its prepared
    # neso; a partial swap thermalizes, so clausius runs on the same U.
    rng = np.random.default_rng(12)
    explicit = {k: cp.matrix_to_json(m) for k, m in {
        "U": ch.partial_swap_unitary(2, 0.4), "rho_se": random_density(4, 3, rng).mat,
        "V": st.haar_unitary(4, rng), "alpha": random_density(2, 2, rng).mat,
        "H": np.diag([0.0, 0.7]).astype(complex)}.items()}
    scn = make_scenario(bound="all", trials=3, n_measurements=5, explicit={**explicit, "beta": 0.8})
    assert isinstance(cp.prepare(scn, DEFAULT_TOLS), ch.NessResult)
    serial = cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=1))
    assert cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=2)) == serial
    assert json.loads(serial)["summary"]["failures"] == 0
    # Without U, clausius runs on the partial swap of theta.
    scn = make_scenario(bound="clausius", trials=9, explicit={"H": explicit["H"], "beta": 0.8, "theta": 0.4})
    pinned = make_scenario(bound="clausius", trials=9, explicit={"H": explicit["H"], "beta": 0.8, "U": explicit["U"]})
    assert (cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)["sections"])
            == cp.render_json(cp.run_campaign(pinned, DEFAULT_TOLS, jobs=1)["sections"]))
    serial = cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=1))
    assert cp.render_json(cp.run_campaign(scn, DEFAULT_TOLS, jobs=2)) == serial
    assert json.loads(serial)["summary"]["failures"] == 0


def test_prepare_builds_only_what_the_families_read():
    # Only main reads a steady state of the pinned (U, rho_SE); qdpi and
    # holevo build their superchannel in each block.
    rng = np.random.default_rng(5)
    explicit = {"U": cp.matrix_to_json(st.haar_unitary(6, rng)),
                "rho_se": cp.matrix_to_json(random_density(6, 2, rng).mat)}
    qdpi = make_scenario(bound="qdpi", dims={"d_P": 2, "d_E1": 3, "d_Q": 3, "d_E2": 2}, explicit=explicit)
    assert cp.prepare(qdpi, DEFAULT_TOLS) is None
    holevo = make_scenario(bound="holevo", dims={"d_S": 2, "d_E": 3}, explicit=explicit)
    assert cp.prepare(holevo, DEFAULT_TOLS) is None


@pytest.mark.parametrize("name,blocks", [("qdpi-explicit-U-rho_se-PQ-2x3-E-3x2", 2), ("main-explicit-rho_se-E3", 3)])
def test_a_pinned_rho_se_is_decomposed_once_per_campaign(monkeypatch, name, blocks):
    # The qdpi scenario pins U and rho_SE and reads them at (2, 3) and
    # (3, 2); the main one pins rho_SE alone.  Each runs in blocks of two
    # trials.  Only the check at load decomposes rho_SE: every split and
    # every block reuses that state.
    text = (GOLDEN / f"{name}.json").read_text()
    raw = cp.parse_complex_matrix(json.loads(text)["explicit"]["rho_se"], "rho_se", [])
    target = (raw + raw.conj().T) / 2.0
    calls, real = [], np.linalg.eigh

    def eigh(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[-2:] == target.shape and any(np.array_equal(m, target) for m in a.reshape(-1, *target.shape)):
            calls.append(a.shape)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    scn = cp.load_scenario(text)
    monkeypatch.setattr(cp, "STACK_ENTRIES", 2 * cp._trial_entries(scn.bound, cp._dim_values(scn.dims), 50))
    assert len(campaign_blocks(scn)) == blocks
    cp.run_campaign(scn, scn.tols(DEFAULT_TOLS), jobs=1)
    assert len(calls) == 1


def test_a_trial_without_prepared_objects_prepares_only_its_own_family(monkeypatch):
    # main's steady operation cannot fail a spohn trial of the same scenario.
    def failing_neso_block(scs, tols):
        raise ch.FixedPointError("no steady state")
    monkeypatch.setattr(sup, "neso_block", failing_neso_block)
    rng = np.random.default_rng(6)
    scn = make_scenario(bound="all", trials=1, explicit={
        "U": cp.matrix_to_json(st.haar_unitary(4, rng)),
        "rho_se": cp.matrix_to_json(random_density(4, 2, rng).mat)})
    assert cp.evaluate_trial(scn, "spohn", 0, DEFAULT_TOLS).name == "spohn"
    with pytest.raises(ch.FixedPointError):
        cp.evaluate_trial(scn, "main", 0, DEFAULT_TOLS)
    with pytest.raises(ch.FixedPointError):
        cp.prepare(scn, DEFAULT_TOLS)


@pytest.mark.parametrize("d_s,d_e,pinned", [(2, 2, False), (3, 2, False), (1, 3, False), (2, 2, True)])
def test_random_superchannels_draw_as_one_trial_at_a_time(d_s, d_e, pinned):
    # Each generator gives its rank and Ginibre factor, then the normals of
    # its U as haar_unitary draws them; the block's stacked QR keeps the bits.
    d = d_s * d_e
    ex = {"rho_se": random_density(d, 2, np.random.default_rng(3))} if pinned else {}

    def rngs():
        return [np.random.default_rng([7, d, t]) for t in range(9)]
    block = cp.random_superchannels(d_s, d_e, rngs(), DEFAULT_TOLS, ex)
    for sc, rng in zip(block, rngs()):
        one = cp.random_superchannels(d_s, d_e, [rng], DEFAULT_TOLS, ex)[0]
        assert sc.u.tobytes() == one.u.tobytes() and sc.rho_se.mat.tobytes() == one.rho_se.mat.tobytes()
    for sc, rng in zip(block, rngs()):
        if not pinned:
            st.ginibre(d, int(rng.integers(1, min(4, d) + 1)), rng)
        assert sc.u.tobytes() == st.haar_unitary(d, rng).tobytes()


def test_only_the_v_draw_takes_a_qr_per_trial(monkeypatch):
    # At d=2 each family's campaign is one block, and the joint unitaries
    # and holevo's bases of a block each come from one stacked QR.  So 11
    # more trials add one QR each, for mmap-consistency's V.
    real, calls = np.linalg.qr, []

    def qr(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", qr)
    counts = []
    for trials in (1, 12):
        scn = make_scenario(bound="all", trials=trials, n_measurements=3)
        assert len(campaign_blocks(scn)) == len(cp.FAMILIES)
        calls.clear()
        cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 11


def reference_json(obj) -> str:
    return json.dumps(cp.jsonable(obj), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", sorted(p for p in GOLDEN.glob("*.json") if p.name != "digests.json"),
                         ids=lambda p: p.stem)
def test_render_json_is_the_stdlib_encoding_of_every_golden_report(path):
    scn = cp.load_scenario(path.read_text())
    report = cp.run_campaign(scn, scn.tols(DEFAULT_TOLS), jobs=1)
    assert cp.render_json(report) == reference_json(report)


def test_render_json_is_the_stdlib_encoding_of_a_timing_report(tmp_path, monkeypatch):
    rendered = []
    real = cp.render_json
    monkeypatch.setattr(cp, "render_json", lambda report: rendered.append(report) or real(report))
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"seed": 2, "trials": 3, "bound": "all", "n_measurements": 4}))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--scenario", str(scn), "--out", str(out), "--jobs", "1", "--timing"]) == 0
    (report,) = rendered
    assert type(report["summary"]["wall_time"]) is float
    assert out.read_text() == real(report) == reference_json(report)


def test_render_json_is_the_stdlib_encoding_of_a_random_nested_structure():
    rng = np.random.default_rng(20)
    texts = ["", "plain", "ρ_SE → σ′ ∞", "\x00\x01\t\n\x1f\x7f", 'quote " and \\ backslash', " \U0001f600"]
    leaves = [True, False, float("inf"), float("-inf"), float("nan"), -0.0, 0.0, None,
              1e-300, 1.5e300, 2 ** 70, -3, 0, 1 / 3, *texts]
    keys = [*texts, 0, 1, "1", -2.5, None, True, np.int64(4), (1, "a")]

    def tree(depth):
        kind = int(rng.integers(0, 5)) if depth else 4
        if kind == 0:
            return {keys[int(rng.integers(len(keys)))]: tree(depth - 1) for _ in range(int(rng.integers(0, 5)))}
        if kind in (1, 2):
            items = [tree(depth - 1) for _ in range(int(rng.integers(0, 4)))]
            return items if kind == 1 else tuple(items)
        if kind == 3:
            return [{}, [], ()][int(rng.integers(3))]
        return leaves[int(rng.integers(len(leaves)))]

    for _ in range(200):
        obj = {"root": tree(5), "edges": [{}, [], (), leaves, dict(zip(keys, leaves))]}
        assert cp.render_json(obj) == reference_json(obj)
    # A bool renders as the int that jsonable makes of it.
    assert cp.render_json({"passed": True, "failed": False}) == '{\n  "failed": 0,\n  "passed": 1\n}\n'
    # A report holds no numpy leaf, and the renderer refuses one.
    for leaf in (object(), np.float64(0.1), np.int64(3), np.bool_(True)):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cp.render_json({"x": [leaf]})


def test_render_csv_shape():
    scn = make_scenario(trials=2)
    rep = cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    csv = cp.render_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "section,trial,lhs,rhs,slack,passed,flags"
    assert len(lines) == 3
    assert lines[1].startswith("main,0,")


def test_explicit_instance_pins_superchannel():
    # an explicit (U, rho_se) makes every trial share the same superchannel
    rng = np.random.default_rng(0)
    u = cp.matrix_to_json(np.eye(4))
    rho = cp.matrix_to_json(np.eye(4) / 4)
    scn = make_scenario(trials=3, explicit={"U": u, "rho_se": rho})
    rep = cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    for r in rep["sections"]["main"]["reports"]:
        assert r["passed"]


def test_adversarial_explicit_scenario_fails_campaign():
    # known violating instance: the campaign must report the failure
    sigma = np.diag([0.99, 0.01]).astype(complex)
    rho_se = np.kron(sigma, np.eye(2) / 2)
    theta = math.asin(math.sqrt(0.1))
    u = ch.partial_swap_unitary(2, theta)
    t_kraus = [m for m in classical_channel(np.array([[1.0, 0.5], [0.0, 0.5]])).kraus]
    scn = make_scenario(
        trials=1,
        explicit={
            "U": cp.matrix_to_json(u),
            "rho_se": cp.matrix_to_json(rho_se),
            "op_kraus": [cp.matrix_to_json(k) for k in t_kraus],
        },
    )
    rep = cp.run_campaign(scn, DEFAULT_TOLS, jobs=1)
    assert rep["summary"]["failures"] == 1
    assert rep["sections"]["main"]["reports"][0]["slack"] < -0.1


def report_bits(lhs, rhs, slack):
    return np.array([lhs, rhs, slack]).tobytes()


@pytest.mark.parametrize("family", ["spohn", "clausius", "mmap-consistency"])
@pytest.mark.parametrize("dims", [{"d_S": 2, "d_E": 2}, {"d_S": 3, "d_E": 3}, {"d_S": 4, "d_E": 4},
                                  {"d_S": 2, "d_E": 3, "d_A": 4}])
def test_spohn_clausius_and_mmap_blocks_are_bitwise_the_per_trial_code(oracles, family, dims):
    # Blocks of 1-8 trials, each trial drawn from its own generator in the
    # per-trial order and evaluated by the one-trial-at-a-time code.
    scn = make_scenario(seed=11 + dims["d_S"], trials=36, bound=family, dims=dims)
    routes = []
    for block in oracles.blocks(36):
        reports = cp.evaluate_block(scn, family, block, DEFAULT_TOLS)
        assert [r.metadata["trial"] for r in reports] == list(block)
        for t, rep in zip(block, reports):
            assert report_bits(rep.lhs, rep.rhs, rep.slack) == report_bits(*oracles.family_trial(scn, family, t, DEFAULT_TOLS))
        routes.append({r.metadata.get("ness_method") for r in reports})
    if family == "spohn":
        # Unitary (rank-1) operations take the Cesaro route; some blocks mix both.
        assert {"eigen", "cesaro"} in routes
