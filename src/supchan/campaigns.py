"""Scenario handling and randomized verification campaigns.

A scenario is a JSON object selecting a bound family, dimensions, a seed
and a trial count, with optional explicit matrices overriding the random
instance generation (complex entries as [re, im] pairs, matrices as
row-major nested arrays).  ``load_scenario`` reads each explicit entry once,
in ``_read_explicit``: states become ``DensityMatrix``, operations
``QuantumOperation`` and the ensemble ``bounds.Ensemble``, all validated
under the scenario's tolerances, and trials use these objects as they are.
``U``, ``V`` and ``H`` stay matrices.  A state carries no tensor split, so
the one checked ``rho_se`` serves every block and every split that a family
reads it at (``qdpi`` reads it as d_P x d_E1 and d_Q x d_E2).  The dims fix
every size: a matrix is checked against each family that reads it
(``_READS``) before its entries are read, an operation must be trace
preserving, and an entry that no family reads is refused.  One table,
``_trial_entries``, counts the entries that one trial of each family stacks:
a scenario whose trial exceeds ``MAX_ENTRIES`` is refused at load, and
``_block_size`` gives each block as many trials as ``STACK_ENTRIES`` holds.

``prepare`` finds once per campaign the steady state of ``main``'s
superchannel when ``U`` and ``rho_se`` are both pinned, and forked pool
workers inherit it.  A campaign runs in blocks of consecutive trials of
one family, and a pool gives each process a fixed share of whole blocks.
Every family takes the one path of ``evaluate_block``: each trial of a
block draws from its own generator, the joint unitaries U and ``holevo``'s
bases of a block each come from one stacked QR, a family that reads
``rho_se`` takes its superchannels from ``random_superchannels``, and one
``bounds.<family>_block`` call evaluates the block in stacked steps, with
the bits of one trial at a time; a trial alone (``evaluate_trial``) is a
block of one.  A failing block is run again one trial at a time, so the
error raised is the earliest failing trial's.
Campaign trials are seed-deterministic: trial t of family f draws what is
not pinned from ``default_rng([seed, f, t])``, in the same order whichever
process runs it, and reports are gathered in trial order.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import pickle
import traceback
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bounds as bd
from . import channels as ch
from . import matkernel as mk
from . import states as st
from . import superchannel as sup
from .config import Tolerances

FAMILIES = ("spohn", "main", "clausius", "qdpi", "holevo", "mmap-consistency")
# Entries that the stacks of one block hold: at large dimensions, where
# stacking saves no time, a block stays near the memory of one trial.
STACK_ENTRIES = 1 << 15
TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))


class ScenarioError(ValueError):
    """Scenario file failed validation; the message names the field path."""


class ScenarioParseError(ScenarioError):
    """Scenario file is not syntactically valid JSON."""


@dataclass(frozen=True)
class Scenario:
    seed: int
    dims: dict
    trials: int
    bound: str
    tolerances: dict = field(default_factory=dict)
    explicit: dict = field(default_factory=dict)
    n_measurements: int = 50

    def families(self) -> tuple[str, ...]:
        return FAMILIES if self.bound == "all" else (self.bound,)

    def tols(self, base: Tolerances) -> Tolerances:
        return replace(base, **{k: float(v) for k, v in self.tolerances.items()})


# ---------------------------------------------------------------------------
# JSON (de)serialization of matrices and extended reals
# ---------------------------------------------------------------------------

def parse_complex_matrix(obj, path: str, readers: list[tuple]) -> np.ndarray:
    """Nested row-major lists with entries as finite numbers or [re, im]
    pairs of finite numbers (``_finite_number``), of the size x size shape
    that each (family, product of dims, its value, size) of ``readers``
    reads, which is checked before any entry is read."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ScenarioError(f"{path}: expected a nested list of matrix rows")
    ncols = len(obj[0])
    if ncols == 0 or any(len(r) != ncols for r in obj):
        raise ScenarioError(f"{path}: rows have inconsistent lengths (non-rectangular matrix)")
    for family, name, n, size in readers:
        if (len(obj), ncols) != (size, size):
            raise ScenarioError(f"{path}: {family} reads it at {name}={n}; it is {len(obj)}x{ncols}, not {size}x{size}")
    out = np.empty((len(obj), ncols), dtype=complex)
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            if _finite_number(entry):
                out[i, j] = float(entry)
            elif isinstance(entry, list) and len(entry) == 2 and all(map(_finite_number, entry)):
                out[i, j] = complex(entry[0], entry[1])
            else:
                raise ScenarioError(f"{path}[{i}][{j}]: expected a finite number or an [re, im] pair "
                                    "of finite numbers")
    return out


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def ext_to_json(v):
    """Extended real -> JSON-safe value."""
    if isinstance(v, float):
        if math.isnan(v):
            return "indeterminate"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
    return v


def jsonable(obj):
    """Recursively convert reports/details into strict-JSON values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        return ext_to_json(float(obj))
    if isinstance(obj, int):   # a bool too, as 1 or 0
        return int(obj)
    return obj


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------

_TOP_KEYS = ("seed", "trials", "bound", "dims", "tolerances", "n_measurements", "explicit")
_DIM_KEYS = ("d_S", "d_E", "d_A", "d_P", "d_Q", "d_E1", "d_E2")
_NOT_TP = "not trace preserving: max |tr_out(choi) - I| = {:.3e}"


def _reject_unknown(obj: dict, known: tuple[str, ...], prefix: str, what: str = "key") -> None:
    for k in obj:
        if k not in known:
            raise ScenarioError(f"{prefix}{k}: unknown {what}; expected one of {known}")


def _finite_number(v) -> bool:
    """Whether a JSON value is a number (not a bool) with a finite float value;
    Python's json reads NaN, Infinity and 1e400 as floats."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an int beyond the float range
        return False


def load_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON; raises ScenarioError with field paths."""
    try:
        raw = json.loads(text)
    except ValueError as exc:   # a JSONDecodeError, or an integer beyond the int-to-string digit limit
        raise ScenarioParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario: expected a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "")

    def need_int(key, default=None, minimum=0):
        v = raw.get(key, default)
        if v is None:
            raise ScenarioError(f"{key}: required field is missing")
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise ScenarioError(f"{key}: expected an integer >= {minimum}, got {v!r}")
        return v

    seed = need_int("seed", 0, minimum=0)
    if seed >= 2 ** 64:
        raise ScenarioError(f"seed: expected an integer below 2**64, got {seed!r}")
    trials = need_int("trials", minimum=1)
    bound = raw.get("bound", "all")
    if bound not in FAMILIES + ("all",):
        raise ScenarioError(f"bound: {bound!r} is not one of {FAMILIES + ('all',)}")

    dims = raw.get("dims", {})
    if not isinstance(dims, dict):
        raise ScenarioError("dims: expected an object of positive integers")
    _reject_unknown(dims, _DIM_KEYS, "dims.")
    for k, v in dims.items():
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise ScenarioError(f"dims.{k}: expected a positive integer, got {v!r}")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError("tolerances: expected an object")
    _reject_unknown(tolerances, TOLERANCE_NAMES, "tolerances.", "tolerance")
    for k, v in tolerances.items():
        if not _finite_number(v) or v <= 0:
            raise ScenarioError(f"tolerances.{k}: expected a finite positive number, got {v!r}")

    n_meas = need_int("n_measurements", 50, minimum=1)

    explicit_raw = raw.get("explicit", {})
    if not isinstance(explicit_raw, dict):
        raise ScenarioError("explicit: expected an object")
    _reject_unknown(explicit_raw, _EXPLICIT_KEYS, "explicit.")
    if "op_kraus" in explicit_raw and "op_choi" in explicit_raw:
        raise ScenarioError("explicit.op_choi: give either op_kraus or op_choi, not both")

    scenario = Scenario(seed, dict(sorted(dims.items())), trials, bound,
                        dict(sorted(tolerances.items())), n_measurements=n_meas)
    for key in explicit_raw:
        if not any(key in _READS[family] for family in scenario.families()):
            raise ScenarioError(f"explicit.{key}: no family of bound {bound!r} reads it")
    if "clausius" in scenario.families() and "U" in explicit_raw and "theta" in explicit_raw:
        raise ScenarioError("explicit.theta: clausius runs on the pinned U and does not read theta")
    dim = _dim_values(dims)
    for family in scenario.families():   # a block of more than one trial stacks at most STACK_ENTRIES entries
        entries = _trial_entries(family, dim, n_meas)
        if entries > mk.MAX_ENTRIES:
            raise ScenarioError(f"{'dims, n_measurements' if family == 'holevo' else 'dims'}: one {family} trial "
                                f"stacks {entries} entries, beyond the dense-storage limit of {mk.MAX_ENTRIES}")
    tols = scenario.tols(Tolerances())
    explicit = {}
    for key, obj in explicit_raw.items():
        readers = [(family, name, n, n * n if key == "op_choi" else n) for family in scenario.families()
                   for name in _READS[family].get(key, ()) for n in [math.prod(dim[k] for k in name.split("*"))]]
        explicit[key] = _read_explicit(key, obj, readers, tols)
    return replace(scenario, explicit=explicit)


def _kraus_operation(obj, path: str, readers: list[tuple]) -> ch.QuantumOperation:
    """The operation of a nonempty list of Kraus matrices, which must be
    trace preserving (within ``channels.TP_TOL``), as every family needs."""
    if not isinstance(obj, list) or not obj:
        raise ScenarioError(f"{path}: expected a nonempty list of matrices")
    op = ch.from_kraus([parse_complex_matrix(m, f"{path}[{i}]", readers) for i, m in enumerate(obj)])
    try:
        ch.require_trace_preserving([op], _NOT_TP)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return op


def _read_explicit(key: str, obj, readers: list[tuple], tols: Tolerances):
    """Parse and validate ``explicit.<key>`` into the value every trial uses."""
    path = f"explicit.{key}"
    if key in ("beta", "theta"):
        if not _finite_number(obj):
            raise ScenarioError(f"{path}: expected a finite number, got {obj!r}")
        if key == "beta" and not obj > 0:
            raise ScenarioError(f"{path}: expected a positive number, got {obj!r}")
        return float(obj)
    try:
        if key == "op_kraus":
            return _kraus_operation(obj, path, readers)
        if key == "ensemble":
            if not isinstance(obj, dict) or "probs" not in obj or "ops_kraus" not in obj:
                raise ScenarioError(f"{path}: expected an object with probs and ops_kraus")
            _reject_unknown(obj, ("probs", "ops_kraus"), f"{path}.")
            probs, ops = obj["probs"], obj["ops_kraus"]
            if not isinstance(probs, list) or any(type(p) not in (int, float) for p in probs):
                raise ScenarioError(f"{path}.probs: expected a list of numbers")
            for i, p in enumerate(probs):
                if not _finite_number(p):
                    raise ScenarioError(f"{path}.probs[{i}]: expected a finite number, got {p!r}")
            if not isinstance(ops, list):
                raise ScenarioError(f"{path}.ops_kraus: expected a list of Kraus lists")
            return bd.Ensemble(tuple(map(float, probs)), tuple(
                _kraus_operation(op, f"{path}.ops_kraus[{i}]", readers) for i, op in enumerate(ops)))
        m = parse_complex_matrix(obj, path, readers)
        if key in ("U", "V"):
            ch.check_unitary(m, tols)
        elif key == "H":
            mk.check_hermitian(m, tols.herm_tol * max(1.0, mk.max_abs(m)))
        elif key in ("rho_se", "sigma", "alpha"):
            return st.density(m, tols=tols)
        elif key == "op_choi":
            op = ch.from_chois(m, readers[0][2], readers[0][2], tols)[0]
            ch.require_trace_preserving([op], _NOT_TP)
            return op
        return m
    except ScenarioError:
        raise
    except ValueError as exc:  # ShapeError, ValidationError
        raise ScenarioError(f"{path}: {exc}") from exc


# The explicit entries that each family reads, with the dimensions at which
# it reads them, as products of dims (a missing dim is 2, and d_A defaults
# to d_S); the numbers beta and theta have none.
_READS = {
    "spohn": {"sigma": ["d_S"], "op_kraus": ["d_S"], "op_choi": ["d_S"]},
    "main": {"U": ["d_S*d_E"], "rho_se": ["d_S*d_E"], "op_kraus": ["d_S"], "op_choi": ["d_S"]},
    "clausius": {"U": ["d_S*d_S"], "H": ["d_S"], "sigma": ["d_S"], "beta": [], "theta": []},
    "qdpi": {"U": ["d_P*d_E1", "d_Q*d_E2"], "rho_se": ["d_P*d_E1", "d_Q*d_E2"],
             "op_kraus": ["d_P*d_Q"], "op_choi": ["d_P*d_Q"]},
    "holevo": {"U": ["d_S*d_E"], "rho_se": ["d_S*d_E"], "ensemble": ["d_S"]},
    "mmap-consistency": {"U": ["d_S*d_E"], "rho_se": ["d_S*d_E"], "V": ["d_S*d_A"], "alpha": ["d_A"]},
}
_EXPLICIT_KEYS = tuple(sorted({key for reads in _READS.values() for key in reads}))


def _trial_entries(family: str, dim: dict, n_measurements: int) -> int:
    """Entries that one trial of ``family`` stacks at once.  A Kraus-ordered
    sum (``mk.sum_runs``) holds one term per trial: spohn's transfer matrix,
    term and ``eig`` copies are four d_S^4 stacks; ``act_block``'s sum,
    rho_SE, lifted K (x) I_E, U and their products six (d_S d_E)^2, or six
    d_S^4 for the draws and fixed points where d_E < d_S, with holevo's
    n + 1 bases; qdpi's joint states, Choi matrix and six-index tensors M
    with their d^4 d_E^2 intermediates, and the rho_SEA, V_SEA, U (x) I_A and
    products of ``mmap_block``, once each."""
    s, e, a, p, q, e1, e2 = (dim[k] for k in ("d_S", "d_E", "d_A", "d_P", "d_Q", "d_E1", "d_E2"))
    se = (s * e) ** 2
    return {"spohn": 4 * s ** 4,
            "main": 6 * max(se, s ** 4),
            "clausius": 6 * s ** 4,
            "qdpi": (p * e1) ** 2 + (q * e2) ** 2 + (p * q) ** 4 + p ** 4 * (p * p + e1 * e1) + q ** 4 * (q * q + e2 * e2),
            "holevo": 6 * max(se, s ** 4) + (n_measurements + 1) * s * s,
            "mmap-consistency": 2 * se + 2 * se * a * a}[family]


def _block_size(family: str, dim: dict, n_measurements: int) -> int:
    """Trials in one block of ``family``: as many as ``STACK_ENTRIES``
    entries hold, and at least one."""
    return max(1, STACK_ENTRIES // _trial_entries(family, dim, n_measurements))


def _dim_values(dims: dict) -> dict:
    """Every dim of ``_DIM_KEYS``, with the defaults filled in."""
    dim = {k: dims.get(k, 2) for k in _DIM_KEYS}
    dim["d_A"] = dims.get("d_A", dim["d_S"])
    return dim


def _explicit_json(v):
    """JSON form of a stored explicit value; loading it gives the same value."""
    if isinstance(v, float):
        return v
    if isinstance(v, st.DensityMatrix):
        return matrix_to_json(v.mat)
    if isinstance(v, ch.QuantumOperation):
        return [matrix_to_json(k) for k in v.kraus]
    if isinstance(v, bd.Ensemble):
        return {"probs": list(v.probs), "ops_kraus": [_explicit_json(op) for op in v.ops]}
    return matrix_to_json(v)


def scenario_echo(scenario: Scenario) -> dict:
    """Canonical JSON-safe form of the scenario for report embedding."""
    return {
        "seed": scenario.seed,
        "dims": scenario.dims,
        "trials": scenario.trials,
        "bound": scenario.bound,
        "tolerances": scenario.tolerances,
        "n_measurements": scenario.n_measurements,
        "explicit": {k: _explicit_json(v.choi if k == "op_choi" else v) for k, v in scenario.explicit.items()},
    }


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------

def random_superchannels(d_s: int, d_e: int, rngs: list[np.random.Generator], tols: Tolerances,
                         explicit: dict | None = None) -> list[sup.Superchannel]:
    """One superchannel per generator, built for all generators at once.

    With ``U`` and ``rho_se`` both pinned, their one superchannel serves
    every generator.  Otherwise what ``explicit`` does not pin is drawn from
    each generator in turn: rho_se a Wishart state on S (x) E whose rank is
    drawn from {1..min(4, d_S d_E)}, then the normals of U, as
    ``haar_unitary`` draws them.  One stacked QR turns the block's normals
    into unitaries (``states.haar_of_normals``); states and unitaries are
    each checked in one stacked step.
    """
    ex = explicit or {}
    if "U" in ex and "rho_se" in ex:
        return [sup.build(ex["U"], ex["rho_se"], d_s, d_e, tols)] * len(rngs)
    d = d_s * d_e
    gs, xs = [], []
    for rng in rngs:
        if "rho_se" not in ex:
            gs.append(st.ginibre(d, int(rng.integers(1, min(4, d) + 1)), rng))
        if "U" not in ex:
            xs.append(rng.standard_normal((2, d, d)))
    us = [ex["U"]] * len(rngs) if "U" in ex else st.haar_of_normals(np.array(xs))
    rhos = [ex["rho_se"]] * len(rngs) if "rho_se" in ex else st.densities(st.wishart(gs), tols)
    return sup.build_block(us, rhos, d_s, d_e, tols)


def random_operations(d: int, rngs: list[np.random.Generator], tols: Tolerances,
                      explicit: dict | None = None) -> list[ch.QuantumOperation]:
    """One operation per generator: the pinned one, or a random CPTP map
    whose rank is drawn from {1..d^2}, built for all generators at once."""
    ex = explicit or {}
    op = ex.get("op_kraus", ex.get("op_choi"))
    if op is None:
        draws = [ch.bcsz_draw(d, int(rng.integers(1, d * d + 1)), rng) for rng in rngs]
        return ch.random_cptps(d, draws, tols=tols)
    return [op] * len(rngs)


def random_ensembles(d: int, rngs: list[np.random.Generator], tols: Tolerances,
                     explicit: dict | None = None) -> list[bd.Ensemble]:
    """One ensemble per generator: the pinned one, or 2-4 random CPTP
    codewords of ranks drawn from {1..d^2} with Dirichlet probabilities,
    built for all generators at once."""
    ens = (explicit or {}).get("ensemble")
    if ens is not None:
        return [ens] * len(rngs)
    draws, probs = [], []
    for rng in rngs:
        k = int(rng.integers(2, 5))
        draws.append([ch.bcsz_draw(d, int(rng.integers(1, d * d + 1)), rng) for _ in range(k)])
        p = rng.dirichlet(np.ones(k))
        probs.append(p / p.sum())
    ops = iter(ch.random_cptps(d, [g for gs in draws for g in gs], tols=tols))
    return [bd.Ensemble(tuple(float(x) for x in p), tuple(next(ops) for _ in gs)) for gs, p in zip(draws, probs)]


# ---------------------------------------------------------------------------
# Trial evaluation
# ---------------------------------------------------------------------------

def prepare(scenario: Scenario, tols: Tolerances) -> ch.NessResult | None:
    """The steady state that every ``main`` trial of the campaign shares:
    with ``U`` and ``rho_se`` both pinned, that of their superchannel, found
    once; None when ``main`` does not run or either entry is drawn."""
    ex, dim = scenario.explicit, _dim_values(scenario.dims)
    if "main" not in scenario.families() or "U" not in ex or "rho_se" not in ex:
        return None
    return sup.neso_block([sup.build(ex["U"], ex["rho_se"], dim["d_S"], dim["d_E"], tols)], tols)[0]


def _trial_rng(scenario: Scenario, family: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([np.uint64(scenario.seed), np.uint64(FAMILIES.index(family)), np.uint64(trial)])


def evaluate_block(scenario: Scenario, family: str, trials, tols: Tolerances,
                   neso: ch.NessResult | None = None,
                   collect: dict | None = None) -> list[bd.BoundReport]:
    """Evaluate consecutive trials of one family; ``collect`` serves a block of one.

    ``neso`` is ``prepare(scenario, tols)``; without it, ``main`` finds the
    steady state of each trial's superchannel.  Each trial draws what is not
    pinned from its own generator, in the order a trial of one draws it,
    and one ``bounds.<family>_block`` call then evaluates the block in
    stacked steps, with the bits of one trial at a time.
    """
    if family not in FAMILIES:
        raise ScenarioError(f"bound: unknown family {family!r}")
    ex, dim = scenario.explicit, _dim_values(scenario.dims)
    d_s, d_e, d_a, d_p, d_q = (dim[k] for k in ("d_S", "d_E", "d_A", "d_P", "d_Q"))
    rngs = [_trial_rng(scenario, family, t) for t in trials]
    if family == "spohn":
        ops = random_operations(d_s, rngs, tols, ex)
        reports = bd.spohn_block(ops, _states(d_s, rngs, tols, ex.get("sigma")), tols, collect)
    elif family == "main":
        scs = random_superchannels(d_s, d_e, rngs, tols, ex)
        ops = random_operations(d_s, rngs, tols, ex)
        nss = [neso] * len(scs) if neso is not None else sup.neso_block(scs, tols)
        reports = bd.main_block(scs, ops, nss, tols, collect)
    elif family == "clausius":
        u = ex["U"] if "U" in ex else ch.partial_swap_unitary(d_s, ex.get("theta", math.pi / 4))
        h = ex["H"] if "H" in ex else np.diag(np.arange(d_s, dtype=float)).astype(complex)
        beta = ex.get("beta", 1.0)
        gibbs, z = bd.thermal_state(h, beta, tols)
        anchors = np.array([a.mat for a in st.random_densities(d_s, [d_s] * len(rngs), rngs, tols)])
        rhos = st.densities(mk.kron_stack(anchors, gibbs.mat), tols)
        scs = sup.build_block([u] * len(rngs), rhos, d_s, d_s, tols)
        reports = bd.clausius_block(scs, _states(d_s, rngs, tols, ex.get("sigma")), gibbs, z, beta, tols, collect)
    elif family == "qdpi":
        sc1s = random_superchannels(d_p, dim["d_E1"], rngs, tols, ex)
        sc2s = random_superchannels(d_q, dim["d_E2"], rngs, tols, ex)
        ops = random_operations(d_p * d_q, rngs, tols, ex)
        reports = bd.qdpi_block(sc1s, sc2s, ops, tols, collect)
    elif family == "holevo":
        scs = random_superchannels(d_s, d_e, rngs, tols, ex)
        enss = random_ensembles(d_s, rngs, tols, ex)
        haar = st.haar_of_normals(np.array([rng.standard_normal((scenario.n_measurements, 2, d_s, d_s))
                                            for rng in rngs]))
        reports = bd.holevo_block(scs, enss, haar, tols, collect)
    else:
        scs = random_superchannels(d_s, d_e, rngs, tols, ex)
        vs = [ex["V"] if "V" in ex else st.haar_unitary(d_s * d_a, rng) for rng in rngs]
        if "alpha" in ex:
            alphas = [ex["alpha"]] * len(rngs)
        else:
            vecs = [st.random_pure(d_a, rng) for rng in rngs]
            alphas = st.densities(np.array([np.outer(vec, vec.conj()) for vec in vecs]), tols)
        reports = bd.mmap_consistency_block(scs, vs, alphas, tols, collect)
    for t, report in zip(trials, reports):
        report.metadata.update(trial=t, seed=scenario.seed)
    return reports


def _states(d: int, rngs: list[np.random.Generator], tols: Tolerances,
            pinned: st.DensityMatrix | None) -> list[st.DensityMatrix]:
    """The pinned state for each generator, or a Wishart state of rank drawn
    from {1..d} drawn from each."""
    if pinned is not None:
        return [pinned] * len(rngs)
    return st.random_densities(d, [int(rng.integers(1, d + 1)) for rng in rngs], rngs, tols)


def evaluate_trial(scenario: Scenario, family: str, trial: int, tols: Tolerances,
                   collect: dict | None = None) -> bd.BoundReport:
    """Evaluate one seed-deterministic trial of the given bound family: a
    block of one (``evaluate_block``)."""
    return evaluate_block(scenario, family, (trial,), tols, collect=collect)[0]


# ---------------------------------------------------------------------------
# Campaign running and report assembly
# ---------------------------------------------------------------------------

def report_to_dict(report: bd.BoundReport) -> dict:
    return {
        "name": report.name,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "passed": report.passed,
        "tolerance": report.tolerance,
        "flags": list(report.flags),
        "metadata": dict(report.metadata),
    }


def _categorize(record: dict) -> str:
    if "indeterminate" in record["flags"]:
        return "flagged"
    return "passed" if record["passed"] else "failed"


def summarize(records: list[dict]) -> dict:
    cats = [_categorize(r) for r in records]
    finite = [r["slack"] for r in records if math.isfinite(r["slack"])]
    return {
        "trials": len(records),
        "passes": cats.count("passed"),
        "failures": cats.count("failed"),
        "flagged_infinite": cats.count("flagged"),
        "min_slack": min(finite) if finite else None,
        "max_slack": max(finite) if finite else None,
    }


def _eval_task(task: tuple[str, range], campaign: tuple) -> list[dict]:
    """The records of one block of trials of ``campaign``, the (scenario,
    tols, neso) of ``run_campaign``.  A failing block is run again one
    trial at a time, so that the error raised is the earliest failing
    trial's first error."""
    scenario, tols, neso = campaign
    family, trials = task
    try:
        return [report_to_dict(r) for r in evaluate_block(scenario, family, trials, tols, neso)]
    except Exception:
        if len(trials) == 1:
            raise
        return [rec for t in trials for rec in _eval_task((family, range(t, t + 1)), campaign)]


def run_campaign(scenario: Scenario, tols: Tolerances, jobs: int = 1) -> dict:
    """Run every family of the scenario; returns the report object.

    The steady state that every ``main`` trial shares (``prepare``) is
    found once, before any trial.  The trials of each family go in blocks
    of ``_block_size`` consecutive trials (as many as ``STACK_ENTRIES`` entries hold, by the
    count of ``_trial_entries``) through ``_eval_task``, split among
    min(``jobs``, blocks, usable CPUs) processes, of which this is one
    (``_pool_blocks``); with one, this process runs every block.  The
    report is deterministic for a fixed scenario: per-trial seeds are
    derived from (seed, family, trial), what is not pinned is drawn from
    them in the same order, and results are ordered by trial index, so
    serial and parallel executions produce identical output.  The summary's
    wall_time field is left null so reports stay byte-stable; the CLI
    reports timing separately.
    """
    families, n, dim = scenario.families(), scenario.trials, _dim_values(scenario.dims)
    sizes = {family: _block_size(family, dim, scenario.n_measurements) for family in families}
    tasks = [(f, range(s, min(s + sizes[f], n))) for f in families for s in range(0, n, sizes[f])]
    campaign = (scenario, tols, prepare(scenario, tols))
    procs = max(1, min(jobs, len(tasks), len(os.sched_getaffinity(0))))
    costs = [len(trials) * _trial_entries(f, dim, scenario.n_measurements) for f, trials in tasks]
    records = [rec for block in _pool_blocks(tasks, campaign, _shares(costs, procs)) for rec in block]
    sections = {family: records[i * n:(i + 1) * n] for i, family in enumerate(families)}
    total = summarize(records)
    total["wall_time"] = None
    return {
        "scenario": scenario_echo(scenario),
        "sections": {family: {"reports": reps, "summary": summarize(reps)}
                     for family, reps in sections.items()},
        "summary": total,
    }


def _shares(costs: list[int], procs: int) -> list[list[int]]:
    """The task indices of each of ``procs`` processes, in task order: longest
    task first, each to the share of least cost so far (the first of equals)."""
    shares, loads = [[] for _ in range(procs)], [0] * procs
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    return [sorted(share) for share in shares]


def _run_share(share: list[int], tasks: list, campaign: tuple) -> list[tuple]:
    """(index, records) of each task of ``share`` in turn, up to the first
    that raises, which ends the share as (index, the error)."""
    done = []
    for i in share:
        try:
            done.append((i, _eval_task(tasks[i], campaign)))
        except Exception as exc:
            return done + [(i, exc)]
    return done


def _pool_blocks(tasks: list, campaign: tuple, shares: list[list[int]]) -> list[list[dict]]:
    """The records of every task: this process runs ``shares[0]``, and a
    forked child each other share, sending ``_run_share`` back through a
    pipe, with the child's traceback noted on the error that ends it; a
    child that dies fails its first task.  The earliest failing task's error
    is raised, as in a serial run.  Every child is reaped (and first killed
    if this process stops early), and OpenBLAS runs one thread in each
    process meanwhile.  One share forks nothing and leaves BLAS alone."""
    blas = _openblas_threads() if len(shares) > 1 else None
    threads = blas[0]() if blas else None
    children = []   # (pid, read end of its pipe, share) of each child not yet reaped
    try:
        if blas:
            blas[1](1)
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:   # the child, which never returns
                code = 1
                try:
                    done = _run_share(share, tasks, campaign)
                    exc = done[-1][1]
                    if isinstance(exc, BaseException):   # its frames do not survive pickling; a note does
                        exc.add_note("The pool worker's traceback (most recent call last):\n"
                                     + "".join(traceback.format_tb(exc.__traceback__)).rstrip())
                    with open(w, "wb") as fh:
                        pickle.dump(done, fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, open(r, "rb"), share))
        done = _run_share(shares[0], tasks, campaign)
        while children:
            pid, fh, share = children[0]
            with fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            done += pickle.loads(data) if code == 0 else [
                (share[0], RuntimeError(f"a pool worker died with exit status {code}"))]
    finally:
        for pid, fh, _ in children:
            import signal   # only to kill a child: numpy does not load it
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if blas:
            blas[1](threads)
    done.sort(key=lambda entry: entry[0])
    for _, result in done:
        if isinstance(result, BaseException):
            raise result
    return [records for _, records in done]


def _openblas_threads() -> tuple | None:
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for name in os.listdir(libs) if os.path.isdir(libs) else ():
        lib = ctypes.CDLL(os.path.join(libs, name)) if "openblas" in name else None
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, set_
    return None


def render_json(report: dict) -> str:
    """The bytes of ``json.dumps(jsonable(report), sort_keys=True, indent=2)``
    and a newline, written in one type-dispatched pass, since on Python 3.11
    the stdlib's indenting encoder is pure Python: dict keys as ``jsonable``
    makes them, and each leaf, which is a ``str``, ``int``, ``float``,
    ``bool`` or None, by ``_LEAVES``; any other leaf raises TypeError."""
    return _render(report, "\n") + "\n"


def _render(obj, nl: str) -> str:
    """The indented JSON of ``obj``, whose line breaks are ``nl``."""
    enc = _LEAVES.get(type(obj))
    if enc is not None:
        return enc(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _render(v, inner)
                 for k, v in sorted({str(k): v for k, v in obj.items()}.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_render(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# The JSON of each leaf type, as ``json.dumps(jsonable(leaf))`` writes it.  A
# bool is written as the int that ``jsonable`` makes of it: "passed": 1.
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, bool: int.__repr__, type(None): lambda v: "null",
           float: lambda v: float.__repr__(v) if math.isfinite(v) else encode_basestring_ascii(ext_to_json(v))}


def render_csv(report: dict) -> str:
    lines = ["section,trial,lhs,rhs,slack,passed,flags"]
    for family in sorted(report["sections"]):
        for rep in report["sections"][family]["reports"]:
            lines.append(
                ",".join([
                    family,
                    str(rep["metadata"].get("trial", "")),
                    str(ext_to_json(rep["lhs"])),
                    str(ext_to_json(rep["rhs"])),
                    str(ext_to_json(rep["slack"])),
                    str(rep["passed"]).lower(),
                    "|".join(rep["flags"]),
                ])
            )
    return "\n".join(lines) + "\n"
