import ast
import json
import math
import pathlib

import numpy as np
import pytest

from supchan import channels as ch
from supchan import campaigns as cp
from supchan import cli
from supchan import config
from supchan import states as st

from conftest import classical_channel, partial_damping_kraus, random_density


def write_scenario(tmp_path, name="scn.json", **kwargs):
    base = {"seed": 42, "trials": 2, "bound": "main", "dims": {"d_S": 2, "d_E": 2}}
    base.update(kwargs)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


def test_version_command(capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_verify_success_writes_report(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--scenario", scn, "--out", str(out), "--jobs", "1"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failures"] == 0
    assert report["summary"]["wall_time"] is None
    assert len(report["sections"]["main"]["reports"]) == 2
    err = capsys.readouterr().err
    assert "total: 2/2 passed" in err


def test_verify_reports_are_byte_identical(tmp_path):
    scn = write_scenario(tmp_path, trials=3)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main(["verify", "--scenario", scn, "--out", str(out2), "--jobs", "1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_timing_flag_populates_wall_time(tmp_path):
    scn = write_scenario(tmp_path, trials=1)
    out = tmp_path / "t.json"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out), "--jobs", "1", "--timing"]) == 0
    assert json.loads(out.read_text())["summary"]["wall_time"] > 0


def test_verify_csv_format(tmp_path):
    scn = write_scenario(tmp_path, trials=2)
    out = tmp_path / "report.csv"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out),
                     "--format", "csv", "--jobs", "1"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("section,trial")
    assert len(lines) == 3


def test_verify_exit_codes_for_bad_scenarios(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ not json")
    assert cli.main(["verify", "--scenario", str(bad_json)]) == cli.EXIT_PARSE_ERROR

    bad_matrix = write_scenario(
        tmp_path, name="badmat.json",
        explicit={"U": [[1, 0], [0, 1], [0, 0]]},
    )
    assert cli.main(["verify", "--scenario", bad_matrix]) == cli.EXIT_VALIDATION_ERROR
    assert "explicit.U" in capsys.readouterr().err

    assert cli.main(["verify", "--scenario", str(tmp_path / "missing.json")]) == cli.EXIT_PARSE_ERROR


def test_an_integer_beyond_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # Python's json refuses integer literals of more than 4300 digits with a
    # plain ValueError, not a JSONDecodeError.
    path = tmp_path / "huge.json"
    path.write_text('{"seed": 1, "trials": 1, "bound": "spohn", "n_measurements": ' + "1" * 5000 + "}")
    for command in ("verify", "explain"):
        args = [command, "--scenario", str(path)] + (["--trial", "0"] if command == "explain" else [])
        assert cli.main(args) == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("scenario parse error: scenario is not valid JSON") and "4300" in err


@pytest.mark.parametrize("command", [["verify", "--jobs", "1"], ["explain", "--trial", "0"]])
def test_a_scenario_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"seed":1}')
    assert cli.main([command[0], "--scenario", str(path), *command[1:]]) == cli.EXIT_PARSE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("scenario parse error: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


@pytest.mark.parametrize("command", [["verify", "--jobs", "1"], ["explain", "--trial", "0"]])
def test_a_utf8_byte_order_mark_is_ignored(tmp_path, capsys, command):
    # RFC 8259, section 8.1: a parser may ignore a leading byte-order mark,
    # which some editors write.  verify's report and explain's output are
    # those of the same file without it.
    text = b'{"seed":1,"trials":1,"bound":"spohn"}'
    outs = []
    for name, data in (("plain.json", text), ("bom.json", b"\xef\xbb\xbf" + text)):
        (tmp_path / name).write_bytes(data)
        report = tmp_path / f"{name}.out"
        extra = ["--out", str(report)] if command[0] == "verify" else []
        assert cli.main([command[0], "--scenario", str(tmp_path / name), *command[1:], *extra]) == 0
        outs.append(report.read_text() if extra else capsys.readouterr().out)
    assert outs[0] == outs[1] and "spohn" in outs[0]


def test_verify_rejects_unknown_tolerance_key(tmp_path, capsys):
    scn = write_scenario(tmp_path, tolerances={"slack_tl": 0.5})
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--scenario", scn, "--out", str(out), "--jobs", "1"])
    assert code == cli.EXIT_VALIDATION_ERROR
    assert "tolerances.slack_tl: unknown tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bound_failure_exit_code(tmp_path, capsys):
    sigma = np.diag([0.99, 0.01]).astype(complex)
    rho_se = np.kron(sigma, np.eye(2) / 2)
    u = ch.partial_swap_unitary(2, math.asin(math.sqrt(0.1)))
    kraus = classical_channel(np.array([[1.0, 0.5], [0.0, 0.5]])).kraus
    scn = write_scenario(
        tmp_path, name="adv.json", trials=1,
        explicit={
            "U": cp.matrix_to_json(u),
            "rho_se": cp.matrix_to_json(rho_se),
            "op_kraus": [cp.matrix_to_json(k) for k in kraus],
        },
    )
    out = tmp_path / "adv_report.json"
    code = cli.main(["verify", "--scenario", scn, "--out", str(out), "--jobs", "1"])
    assert code == cli.EXIT_BOUND_FAILURE
    err = capsys.readouterr().err
    assert "FAILURE main trial=0 seed=42" in err


def degenerate_spohn_scenario(tmp_path):
    # The steady state of this channel is the limit of the Cesaro average
    # from I/3, which the average itself approaches only at rate 1/N.
    return write_scenario(tmp_path, trials=3, bound="spohn", dims={"d_S": 3}, explicit={
        "op_kraus": [cp.matrix_to_json(k) for k in partial_damping_kraus(3)],
        "sigma": [[0.5, 0, 0.2], [0, 0, 0], [0.2, 0, 0.5]],
    })


def test_verify_passes_spohn_on_a_channel_whose_steady_state_is_the_cesaro_limit(tmp_path, capsys):
    scn = degenerate_spohn_scenario(tmp_path)
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1", "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert "total: 3/3 passed" in capsys.readouterr().err


def test_a_singular_eigenvector_matrix_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    scn = degenerate_spohn_scenario(tmp_path)
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert "no steady state within residual 1e-09 (fixed_space_dim=4)" in capsys.readouterr().err


@pytest.mark.parametrize("theta, code, message", [
    (1e-3, cli.EXIT_OK, "total: 2/2 passed"),
    (1e-4, cli.EXIT_VALIDATION_ERROR, "no steady state within residual 1e-09 (fixed_space_dim=2)"),
    (1e-5, cli.EXIT_VALIDATION_ERROR, "fixed point is not the Gibbs state"),
    (1e-6, cli.EXIT_VALIDATION_ERROR, "fixed point is not the Gibbs state"),
    (1e-7, cli.EXIT_VALIDATION_ERROR, "fixed point is not the Gibbs state"),
])
def test_slow_mixing_clausius_sweep(tmp_path, capsys, theta, code, message):
    # The partial swap mixes at rate ~theta^2.  At seed 1 and theta = 1e-4,
    # the eigenvalue-1 cluster holds two eigenvalues and no candidate is
    # fixed; from 1e-5 on, I/d passes as fixed and the Gibbs check refuses it.
    scn = write_scenario(tmp_path, seed=1, trials=2, bound="clausius", dims={"d_S": 2}, explicit={"theta": theta})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1", "--out", str(tmp_path / "r.json")]) == code
    assert message in capsys.readouterr().err


def test_explain_matches_run_report_bitwise(tmp_path, capsys):
    scn_path = write_scenario(tmp_path, trials=2)
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "--scenario", scn_path, "--out", str(out), "--jobs", "1"]) == 0
    run_report = json.loads(out.read_text())["sections"]["main"]["reports"][1]

    assert cli.main(["explain", "--scenario", scn_path, "--trial", "1"]) == 0
    text = capsys.readouterr().out
    assert f"slack (nats): {run_report['slack']!r}" in text
    assert "ness_eigenvalues" in text
    assert "fixed_space_dim" in text


def test_explain_trial_out_of_range(tmp_path, capsys):
    scn = write_scenario(tmp_path, trials=2)
    assert cli.main(["explain", "--scenario", scn, "--trial", "7"]) == cli.EXIT_VALIDATION_ERROR
    assert "out of range" in capsys.readouterr().err


def test_explain_determinism(tmp_path, capsys):
    scn = write_scenario(tmp_path, trials=1, bound="holevo", n_measurements=5)
    assert cli.main(["explain", "--scenario", scn, "--trial", "0"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["explain", "--scenario", scn, "--trial", "0"]) == 0
    assert capsys.readouterr().out == first


def test_explain_bits_flag_converts_display(tmp_path, capsys):
    scn = write_scenario(tmp_path, trials=1, bound="spohn", dims={"d_S": 2})
    assert cli.main(["explain", "--scenario", scn, "--trial", "0"]) == 0
    nats = capsys.readouterr().out
    assert cli.main(["explain", "--scenario", scn, "--trial", "0", "--bits"]) == 0
    bits = capsys.readouterr().out
    val_nats = float(nats.split("lhs (nats): ")[1].split("\n")[0])
    val_bits = float(bits.split("lhs (bits): ")[1].split("\n")[0])
    assert abs(val_bits - val_nats / math.log(2)) <= 1e-12


def test_slack_tol_precedence(tmp_path, monkeypatch):
    # env below scenario below flag
    bare = cp.load_scenario(json.dumps({"seed": 1, "trials": 1, "bound": "spohn"}))
    scn = cp.load_scenario(json.dumps(
        {"seed": 1, "trials": 1, "bound": "spohn", "tolerances": {"slack_tol": 0.25}}
    ))
    monkeypatch.setenv("SUPCHAN_SLACK_TOL", "0.5")
    assert cli._resolve_tols(bare, None).slack_tol == 0.5
    assert cli._resolve_tols(scn, None).slack_tol == 0.25
    assert cli._resolve_tols(scn, 0.125).slack_tol == 0.125
    monkeypatch.delenv("SUPCHAN_SLACK_TOL")
    assert cli._resolve_tols(bare, None) == config.Tolerances()


def test_verify_rejects_unknown_scenario_keys(tmp_path, capsys):
    cases = [
        ({"n_measurment": 5}, "n_measurment"),
        ({"dims": {"d_s": 3}}, "dims.d_s"),
        ({"explicit": {"sigmaa": [[1, 0], [0, 0]]}}, "explicit.sigmaa"),
    ]
    for i, (extra, path) in enumerate(cases):
        scn = write_scenario(tmp_path, name=f"unknown{i}.json", trials=1, **extra)
        assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
        assert f"{path}: unknown" in capsys.readouterr().err


def test_verify_rejects_nonpositive_beta(tmp_path, capsys):
    for beta in (0, -1.5):
        scn = write_scenario(tmp_path, trials=1, bound="clausius", dims={"d_S": 2},
                             explicit={"beta": beta})
        assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
        assert "explicit.beta" in capsys.readouterr().err


EYE2 = cp.matrix_to_json(np.eye(2))


@pytest.mark.parametrize("ensemble, path", [
    ({"probs": [1.0], "ops_kraus": [[EYE2]], "prob": [0.5]}, "explicit.ensemble.prob: unknown key"),
    ({"probs": [1.0], "ops_kraus": 5}, "explicit.ensemble.ops_kraus: expected"),
    ({"probs": [1.0], "ops_kraus": [5]}, "explicit.ensemble.ops_kraus[0]: expected"),
    ({"probs": [1.0], "ops_kraus": [[]]}, "explicit.ensemble.ops_kraus[0]: expected"),
    ({"probs": [True], "ops_kraus": [[EYE2]]}, "explicit.ensemble.probs: expected"),
], ids=["unknown-key", "ops-not-a-list", "op-not-a-list", "op-empty", "prob-bool"])
def test_verify_rejects_malformed_ensemble(tmp_path, capsys, ensemble, path):
    scn = write_scenario(tmp_path, trials=1, bound="holevo", explicit={"ensemble": ensemble})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert f"scenario error: {path}" in capsys.readouterr().err


def test_verify_rejects_an_explicit_operation_of_the_wrong_size(tmp_path, capsys):
    scn = write_scenario(tmp_path, trials=1, bound="qdpi", dims={}, explicit={"op_kraus": [EYE2]})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert "explicit.op_kraus[0]: qdpi reads it at d_P*d_Q=4; it is 2x2, not 4x4" in capsys.readouterr().err


@pytest.mark.parametrize("bound, key, matrix, message", [
    ("clausius", "H", np.eye(3), "explicit.H: clausius reads it at d_S=2; it is 3x3, not 2x2"),
    ("main", "U", np.eye(3), "explicit.U: main reads it at d_S*d_E=4; it is 3x3, not 4x4"),
    ("clausius", "H", np.zeros((2, 3)), "explicit.H: clausius reads it at d_S=2; it is 2x3, not 2x2"),
    ("spohn", "op_choi", np.eye(5), "explicit.op_choi: spohn reads it at d_S=2; it is 5x5, not 4x4"),
], ids=["clausius-H", "main-U", "rectangular-H", "op_choi-of-5x5"])
def test_verify_rejects_an_explicit_matrix_of_the_wrong_size(tmp_path, capsys, monkeypatch, bound, key, matrix,
                                                              message):
    # No entry is read before the size is checked.  Checked after its
    # entries, the 2x3 H fails to broadcast against its adjoint, and the 5x5
    # Choi matrix reads as a map on round(sqrt(5)) = 2.
    calls = []
    real = cp._finite_number
    monkeypatch.setattr(cp, "_finite_number", lambda v: calls.append(v) or real(v))
    scn = write_scenario(tmp_path, trials=1, bound=bound, explicit={key: cp.matrix_to_json(matrix)})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert calls == []


# Dims at which the products that the families read an entry at differ
# where it matters: qdpi reads U and rho_se at d_P*d_E1 = 4 and d_Q*d_E2 = 9.
SIZE_DIMS = {"d_S": 2, "d_E": 3, "d_A": 3, "d_P": 2, "d_Q": 3, "d_E1": 2, "d_E2": 3}


def _size_cases():
    """(family, key, product, shape, expected side) for every matrix-valued
    key of every family of ``_READS`` and every product it reads the key at:
    off by one on each side and rectangular, or, for a later product, the
    size of the first, which that one reads."""
    dim = cp._dim_values(SIZE_DIMS)
    for family, reads in cp._READS.items():
        for key, names in reads.items():
            sides = [math.prod(dim[k] for k in name.split("*")) ** (2 if key == "op_choi" else 1) for name in names]
            for i, (name, side) in enumerate(zip(names, sides)):
                shapes = [(sides[0], sides[0])] if i else [(side + 1, side + 1), (side - 1, side - 1), (side, side + 1)]
                for shape in shapes:
                    yield pytest.param(family, key, name, shape, side, id=f"{family}-{key}-{name}-{shape[0]}x{shape[1]}")


def _bad_matrix(shape):
    """A matrix of ``shape`` whose first entry is not a number."""
    m = np.zeros(shape).tolist()
    m[0][0] = "not a number"
    return m


@pytest.mark.parametrize("family, key, name, shape, side", list(_size_cases()))
def test_every_reader_refuses_an_explicit_matrix_of_the_wrong_size_before_reading_an_entry(
        tmp_path, capsys, family, key, name, shape, side):
    # A Kraus list and an ensemble hold a well-formed matrix before the bad
    # one, so that the message must name the Kraus index.
    dim = cp._dim_values(SIZE_DIMS)
    n = math.prod(dim[k] for k in name.split("*"))
    bad, good = _bad_matrix(shape), cp.matrix_to_json(np.eye(side))
    path, value = f"explicit.{key}", bad
    if key == "op_kraus":
        path, value = f"{path}[1]", [good, bad]
    elif key == "ensemble":
        path, value = f"{path}.ops_kraus[1][1]", {"probs": [0.5, 0.5], "ops_kraus": [[good], [good, bad]]}
    scn = write_scenario(tmp_path, trials=1, bound=family, dims=SIZE_DIMS, explicit={key: value})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"scenario error: {path}: {family} reads it at {name}={n}; "
                   f"it is {shape[0]}x{shape[1]}, not {side}x{side}\n")


@pytest.mark.parametrize("bound, key, value, path", [
    ("spohn", "op_kraus", [EYE2] * 3, "explicit.op_kraus"),
    ("main", "op_choi", cp.matrix_to_json(2 * ch.from_kraus([np.eye(2)]).choi), "explicit.op_choi"),
    ("holevo", "ensemble", {"probs": [0.5, 0.5], "ops_kraus": [[EYE2], [EYE2, EYE2]]}, "explicit.ensemble.ops_kraus[1]"),
], ids=["op_kraus", "op_choi", "ensemble"])
def test_an_explicit_operation_that_is_not_trace_preserving_is_refused_at_load(tmp_path, capsys, bound, key,
                                                                               value, path):
    # Every family needs a CPTP operation, so one that is not is refused
    # before any family runs, and no report is written.
    scn = write_scenario(tmp_path, trials=1, bound=bound, explicit={key: value})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"scenario error: {path}: not trace preserving: max |tr_out(choi) - I| = ")


@pytest.mark.parametrize("command", [["verify", "--jobs", "1"], ["explain", "--trial", "0"]])
def test_a_crash_exits_4_with_its_traceback_not_as_a_bound_failure(tmp_path, capsys, monkeypatch, command):
    def crash(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(cp, "evaluate_block", crash)
    scn = write_scenario(tmp_path, trials=1)
    assert cli.main([command[0], "--scenario", scn] + command[1:]) == cli.EXIT_CRASH == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("numpy.linalg.LinAlgError: SVD did not converge")


def test_a_keyboard_interrupt_is_not_taken_for_a_crash(tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cp, "evaluate_block", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify", "--scenario", write_scenario(tmp_path, trials=1), "--jobs", "1"])


def test_explain_prints_the_families_before_one_that_fails(tmp_path, capsys, monkeypatch):
    from supchan import superchannel as sup

    def failing_neso_block(scs, tols):
        raise ch.FixedPointError("no steady state")
    monkeypatch.setattr(sup, "neso_block", failing_neso_block)
    rng = np.random.default_rng(6)
    scn = write_scenario(tmp_path, trials=1, bound="all", explicit={
        "U": cp.matrix_to_json(st.haar_unitary(4, rng)),
        "rho_se": cp.matrix_to_json(random_density(4, 2, rng).mat)})
    assert cli.main(["explain", "--scenario", scn, "--trial", "0"]) == cli.EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert captured.out.startswith("== spohn | trial 0 |")
    assert "== main" not in captured.out
    assert "validation error: no steady state" in captured.err


def test_verify_rejects_op_kraus_with_op_choi(tmp_path, capsys):
    choi = cp.matrix_to_json(ch.from_kraus([np.eye(2)]).choi)
    scn = write_scenario(tmp_path, trials=1, bound="spohn", explicit={"op_kraus": [EYE2], "op_choi": choi})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert "explicit.op_choi: give either op_kraus or op_choi" in capsys.readouterr().err


def test_verify_checks_explicit_v_under_the_scenario_tolerances(tmp_path, capsys):
    # V^dag V = I + 5e-10 (I (x) X): off-unitary beyond the default herm_tol,
    # while the ancilla |0><0| keeps every trace at 1.
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = st.haar_unitary(4, np.random.default_rng(0)) @ (np.eye(4) + 2.5e-10 * np.kron(np.eye(2), x))
    spec = {"trials": 2, "bound": "mmap-consistency", "dims": {"d_S": 2, "d_E": 2, "d_A": 2},
            "explicit": {"V": cp.matrix_to_json(v), "alpha": cp.matrix_to_json(np.diag([1.0, 0.0]))}}
    scn = write_scenario(tmp_path, **spec)
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert "explicit.V: matrix is not unitary" in capsys.readouterr().err
    scn = write_scenario(tmp_path, tolerances={"herm_tol": 1e-9}, **spec)
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_OK


def explain_lines(capsys, scn, *flags):
    """``explain --trial 0`` output as {label: value}, values parsed back."""
    assert cli.main(["explain", "--scenario", scn, "--trial", "0", *flags]) == 0
    out = {}
    for line in capsys.readouterr().out.splitlines():
        label, sep, value = line.partition(": ")
        if sep and not label.startswith("passed"):
            out[label] = ast.literal_eval(value)
    return out


def test_explain_bits_converts_every_entropy_and_no_residual(tmp_path, capsys):
    main = write_scenario(tmp_path, name="main.json", trials=1)
    nats, bits = explain_lines(capsys, main), explain_lines(capsys, main, "--bits")
    assert bits["slack_identity"] == pytest.approx([x / math.log(2) for x in nats["slack_identity"]])

    mmap = write_scenario(tmp_path, name="mmap.json", trials=1, bound="mmap-consistency")
    nats, bits = explain_lines(capsys, mmap), explain_lines(capsys, mmap, "--bits")
    for key in ("delta_S", "metadata.delta_S"):
        assert bits[key] == pytest.approx(nats[key] / math.log(2))
    for label in ("lhs", "rhs", "slack"):
        assert bits[f"{label} (max-abs)"] == nats[f"{label} (max-abs)"]
    assert bits["residual"] == nats["residual"]


def test_verify_bits_leaves_the_mmap_residual_slack_unconverted(tmp_path, capsys):
    scn = write_scenario(tmp_path, trials=1, bound="mmap-consistency")
    lines = []
    for flags in ([], ["--bits"]):
        assert cli.main(["verify", "--scenario", scn, "--jobs", "1", *flags]) == 0
        err = capsys.readouterr().err
        lines.append(next(l for l in err.splitlines() if l.startswith("[mmap-consistency]")))
    assert lines[0] == lines[1]
    assert lines[0].endswith(" max-abs")


@pytest.mark.parametrize("extra, path", [
    ({"tolerances": {"slack_tol": math.nan}}, "tolerances.slack_tol"),
    ({"tolerances": {"psd_floor": math.inf}}, "tolerances.psd_floor"),
    ({"tolerances": {"herm_tol": 10 ** 400}}, "tolerances.herm_tol"),
    ({"bound": "clausius", "explicit": {"beta": math.inf}}, "explicit.beta"),
    ({"bound": "clausius", "explicit": {"theta": math.nan}}, "explicit.theta"),
    ({"bound": "holevo", "explicit": {"ensemble": {"probs": [math.nan, 1.0], "ops_kraus": [[EYE2], [EYE2]]}}},
     "explicit.ensemble.probs[0]"),
], ids=["slack_tol-nan", "psd_floor-inf", "herm_tol-huge-int", "beta-inf", "theta-nan", "probs-nan"])
def test_verify_refuses_non_finite_numbers_at_load(tmp_path, capsys, extra, path):
    # json.dumps writes NaN and Infinity, which Python's json reads back.
    scn = write_scenario(tmp_path, trials=2, **{"bound": "spohn", **extra})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert f"scenario error: {path}: expected a finite" in capsys.readouterr().err


@pytest.mark.parametrize("bound, explicit, message", [
    ("spohn", {"U": np.eye(4).tolist(), "beta": 3.0}, "explicit.U: no family of bound 'spohn' reads it"),
    ("spohn", {"beta": 3.0}, "explicit.beta: no family of bound 'spohn' reads it"),
    ("clausius", {"U": np.eye(4)[[0, 2, 1, 3]].tolist(), "theta": 0.3},
     "explicit.theta: clausius runs on the pinned U and does not read theta"),
], ids=["spohn-U-beta", "spohn-beta", "clausius-U-theta"])
def test_verify_refuses_explicit_entries_that_no_trial_reads(tmp_path, capsys, bound, explicit, message):
    # Such entries used to be echoed in the report and silently ignored.
    scn = write_scenario(tmp_path, seed=1, trials=2, bound=bound, dims={"d_S": 2}, explicit=explicit)
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [10 ** 400, True, [1.0, 10 ** 400], [False, 0.5], [0.5, math.nan]],
                         ids=["huge-int", "bool", "pair-huge-int", "pair-bool", "pair-nan"])
def test_verify_refuses_matrix_entries_that_are_not_finite_numbers(tmp_path, capsys, entry):
    # 10**400 used to die in float() with exit 1, and true, false loaded as 1, 0.
    scn = write_scenario(tmp_path, trials=1, bound="spohn", explicit={"sigma": [[1.0, 0.0], [0.0, entry]]})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert "scenario error: explicit.sigma[1][1]: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--jobs", "1"], ["explain", "--trial", "0"]])
def test_a_non_finite_slack_tol_override_is_refused(tmp_path, capsys, monkeypatch, command):
    scn = write_scenario(tmp_path, trials=2, bound="spohn")
    for value in ("nan", "inf", "-inf"):
        assert cli.main([command[0], "--scenario", scn, *command[1:], f"--slack-tol={value}"]) == 3
        assert "error: --slack-tol: expected a finite number" in capsys.readouterr().err
    for value in ("nan", "Infinity", "tight"):
        monkeypatch.setenv("SUPCHAN_SLACK_TOL", value)
        assert cli.main([command[0], "--scenario", scn, *command[1:]]) == cli.EXIT_VALIDATION_ERROR
        assert f"error: SUPCHAN_SLACK_TOL: expected a finite number, got {value!r}" in capsys.readouterr().err
    monkeypatch.setenv("SUPCHAN_SLACK_TOL", "1e-6")
    assert cli.main([command[0], "--scenario", scn, *command[1:], "--slack-tol", "0.5"]) == cli.EXIT_OK


GOLDEN_ALL_D2 = str(pathlib.Path(__file__).parent / "golden" / "random-all-d2.json")


def test_a_non_positive_slack_tol_flag_is_refused(capsys, monkeypatch):
    # -0.5 used to pass every slack above it and fail main trial 1 with exit 1.
    monkeypatch.delenv("SUPCHAN_SLACK_TOL", raising=False)
    for value in ("-0.5", "0"):
        assert cli.main(["verify", "--scenario", GOLDEN_ALL_D2, "--jobs", "1", f"--slack-tol={value}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "FAILURE" not in captured.err
        assert f"error: --slack-tol: expected a positive number, got {float(value)!r}" in captured.err


def test_a_non_positive_slack_tol_environment_override_is_refused(capsys, monkeypatch):
    # 0 used to fail spohn trial 2, whose slack is -1.3e-15, with exit 1.
    for value in ("0", "-1e-8"):
        monkeypatch.setenv("SUPCHAN_SLACK_TOL", value)
        assert cli.main(["verify", "--scenario", GOLDEN_ALL_D2, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and "FAILURE" not in captured.err
        assert f"error: SUPCHAN_SLACK_TOL: expected a positive number, got {value!r}" in captured.err


def test_an_unwritable_report_path_is_exit_2_not_a_bound_failure(tmp_path, capsys):
    scn = write_scenario(tmp_path, trials=1, bound="spohn")
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1", "--out", str(out)]) == cli.EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ") and str(out) in captured.err
    assert not out.exists()


def test_a_seed_of_2_64_or_more_is_refused_at_load(tmp_path, capsys):
    scn = write_scenario(tmp_path, trials=1, bound="spohn", seed=2 ** 64)
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert "scenario error: seed: expected an integer below 2**64" in capsys.readouterr().err
    scn = write_scenario(tmp_path, trials=1, bound="spohn", seed=2 ** 64 - 1)
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_OK


def test_holevo_bases_beyond_the_storage_limit_are_refused_at_load(tmp_path, capsys, monkeypatch):
    # Refused by load_scenario, before any trial draws a basis.
    monkeypatch.setattr(st, "haar_of_normals", None)
    # Each basis adds 3 * 3 entries to what one holevo trial stacks.
    most = (cp.mk.MAX_ENTRIES - cp._trial_entries("holevo", cp._dim_values({"d_S": 3}), 0)) // (3 * 3)
    for n, bound in ((10 ** 12, "holevo"), (most + 1, "all")):
        scn = write_scenario(tmp_path, trials=8, bound=bound, dims={"d_S": 3}, n_measurements=n)
        assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
        assert "scenario error: dims, n_measurements: one holevo trial stacks " in capsys.readouterr().err
    for n, bound in ((most, "holevo"), (10 ** 12, "main")):
        scn = cp.load_scenario(json.dumps({"bound": bound, "trials": 8, "dims": {"d_S": 3}, "n_measurements": n}))
        assert scn.n_measurements == n


def test_holevo_bases_are_sized_by_the_trials_of_one_block():
    # A trial's bases count toward its block: 50 bases of dimension 2 leave
    # room for many trials in STACK_ENTRIES, 2^19 bases for one, so that
    # eight trials load as well as one.
    dim = cp._dim_values({})
    assert cp._block_size("holevo", dim, 50) > 8 and cp._block_size("holevo", dim, 524288) == 1
    for trials in (1, 8):
        scn = cp.load_scenario(json.dumps({"bound": "holevo", "trials": trials, "n_measurements": 524288}))
        assert scn.n_measurements == 524288


def test_dims_whose_stacked_matrices_exceed_the_storage_limit_are_refused_at_load(tmp_path, capsys, monkeypatch):
    # A 40000 x 40000 joint unitary would be drawn by the first trial; the
    # scenario is refused by load_scenario instead, before anything is drawn.
    for name in ("haar_of_normals", "haar_unitary", "ginibre"):
        monkeypatch.setattr(st, name, None)
    scn = write_scenario(tmp_path, trials=1, bound="main", dims={"d_S": 200, "d_E": 200})
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1"]) == cli.EXIT_VALIDATION_ERROR
    assert "scenario error: dims: one main trial stacks " in capsys.readouterr().err
    # What one trial stacks is refused beyond MAX_ENTRIES, whatever the
    # trials; a block of more trials holds at most STACK_ENTRIES entries.
    assert cp.STACK_ENTRIES <= cp.mk.MAX_ENTRIES
    at = {"d_S": 2, "d_E": 836}
    assert cp.load_scenario(json.dumps({"bound": "main", "trials": 5, "dims": at})).dims == at
    with pytest.raises(cp.ScenarioError, match=r"^dims: one main trial stacks 16813656 entries"):
        cp.load_scenario(json.dumps({"bound": "main", "trials": 1, "dims": {**at, "d_E": 837}}))
    cube = {"d_S": 14, "d_E": 14, "d_A": 14}
    assert cp.load_scenario(json.dumps({"bound": "mmap-consistency", "trials": 8, "dims": cube})).dims == cube
    with pytest.raises(cp.ScenarioError, match=r"^dims: one mmap-consistency trial stacks \d+ entries"):
        cp.load_scenario(json.dumps({"bound": "mmap-consistency", "trials": 8, "dims": {**cube, "d_A": 15}}))
    with pytest.raises(cp.ScenarioError, match=r"^dims: one qdpi trial stacks \d+ entries"):
        cp.load_scenario(json.dumps({"bound": "all", "trials": 8, "dims": {"d_P": 5, "d_Q": 13}}))


def test_a_main_trial_whose_kraus_lifted_stack_exceeds_the_storage_limit_is_refused_at_load():
    # act_block holds six (d_S d_E)^2 stacks at once (its sum, rho_SE, one
    # lifted K (x) I_E per trial, and their products): at d_E = 1024 they
    # are 6 * 2048^2 entries, though U and rho_SE are a quarter of
    # MAX_ENTRIES each.
    with pytest.raises(cp.ScenarioError, match=r"^dims: one main trial stacks 25165824 entries, beyond the "
                                               r"dense-storage limit of 16777216$"):
        cp.load_scenario(json.dumps({"bound": "main", "trials": 4, "dims": {"d_S": 2, "d_E": 1024}}))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_refuses_jobs_below_one(tmp_path, capsys, jobs):
    scn = write_scenario(tmp_path, trials=2, bound="spohn")
    assert cli.main(["verify", "--scenario", scn, "--jobs", jobs]) == cli.EXIT_VALIDATION_ERROR
    assert capsys.readouterr().err == f"error: --jobs: expected an integer >= 1, got {jobs}\n"
    assert cli.main(["verify", "--scenario", scn, "--jobs", "1", "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK


def test_verify_runs_in_one_process_unless_jobs_is_given(tmp_path, monkeypatch):
    seen = []
    real = cp.run_campaign
    monkeypatch.setattr(cp, "run_campaign", lambda scenario, tols, jobs: seen.append(jobs) or real(scenario, tols))
    scn = write_scenario(tmp_path, trials=2, bound="spohn")
    for flags in ([], ["--jobs", "2"]):
        assert cli.main(["verify", "--scenario", scn, "--out", str(tmp_path / "r.json"), *flags]) == cli.EXIT_OK
    assert seen == [1, 2]


def test_a_random_map_off_trace_preservation_by_1e_10_is_projected_again(tmp_path, capsys):
    # Trial 20 draws a Kraus-rank-1 map on P (x) Q whose one projection
    # misses trace preservation by 9.6e-11, enough to move the trace of its
    # image through both superchannels past trace_tol.
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"seed": 236408525, "trials": 21, "bound": "qdpi"}))
    assert cli.main(["verify", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert json.loads((tmp_path / "r.json").read_text())["summary"]["passes"] == 21


def test_a_hamiltonian_that_load_accepts_is_not_refused_later(tmp_path):
    # H is Hermitian within herm_tol relative to its largest entry (5e-8 of
    # 1000), as load_scenario checks it; the Gibbs state takes its spectrum
    # from (H + H^dag) / 2 with no second, absolute check.
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"seed": 1, "trials": 2, "bound": "clausius", "dims": {"d_S": 2},
                                "explicit": {"H": [[1000, 5e-8], [0, 0]], "beta": 0.001}}))
    assert cli.main(["verify", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK


def test_an_overflowing_gibbs_weight_is_a_named_refusal(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"seed": 1, "trials": 2, "bound": "clausius", "dims": {"d_S": 2},
                                "explicit": {"H": [[-1000, 0], [0, 0]], "beta": 1}}))
    assert cli.main(["verify", "--scenario", str(path)]) == cli.EXIT_VALIDATION_ERROR
    assert capsys.readouterr().err == ("validation error: exp(-beta H) is out of float range: -beta times the least "
                                       "eigenvalue of H is 1.000000e+03\n")
