"""Source checks over ``src/supchan``: every function that takes ``tols``
reads it and gives it no default, every parameter is passed by some call,
no dataclass holds a memo, every family is one block function that returns
reports, every public function, method and property runs under ``verify``
or ``explain``, no matrix is decomposed twice by a check and then an
entropy, the entry points and names the benchmark's tracer and launcher
use stay as they expect, and each snippet of the mutant catalogue
``tools/mutants.json`` occurs once in ``src/``."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import pathlib
import sys

import numpy as np

from supchan import bounds as bd
from supchan import campaigns as cp
from supchan import cli
from supchan import states as st
from supchan import superchannel as sup

from conftest import campaign_blocks

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "supchan"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def unread_tols_parameters() -> list[str]:
    """``module:function`` for each function whose ``tols`` parameter is never loaded."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            if "tols" not in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
                continue
            if not any(isinstance(n, ast.Name) and n.id == "tols" and isinstance(n.ctx, ast.Load)
                       for n in ast.walk(node)):
                unread.append(f"{path.stem}:{node.name}")
    return unread


def test_every_tols_parameter_is_read():
    assert unread_tols_parameters() == []


def tols_defaults(sources: dict[str, str]) -> list[str]:
    """``module:function`` for each function in ``sources`` that gives its
    ``tols`` parameter a default."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if "tols" in [p.arg for p in defaulted]:
                    found.append(f"{name}:{node.name}")
    return found


def test_no_function_gives_tols_a_default():
    # With tols required, no call can run under DEFAULT_TOLS whatever the
    # scenario or --slack-tol sets, and only config and the package's
    # namespace name DEFAULT_TOLS.
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert tols_defaults(sources) == []
    assert sorted(name for name, text in sources.items() if "DEFAULT_TOLS" in text) == ["__init__", "config"]
    probe = "def f(x, tols):\n    pass\n\ndef g(x, tols=None):\n    pass\n\ndef h(x, *, tols=None):\n    pass\n"
    assert tols_defaults({"probe": probe}) == ["probe:g", "probe:h"]


def unpassed_parameters(sources: dict[str, str]) -> list[str]:
    """``module:function(parameter)`` for each parameter of a function defined
    in ``sources`` that no call in ``sources`` passes.  A call matches every
    function of its name, and ``Class(...)`` its ``__init__``; a starred
    argument passes the positional parameters from its place on, and ``**``
    all of them.  A function handed on as a value passes its required
    parameters, which whatever calls it back must pass.  ``self``, ``*args``
    and ``**kwargs`` are not counted."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = {}   # callable name -> [(module, positional, keyword-only, required)]
    for name, tree in trees.items():
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args][int(id(node) in owner):]
                keyword_only = [p.arg for p in a.kwonlyargs]
                required = positional[:len(positional) - len(a.defaults)]
                required += [p for p, d in zip(keyword_only, a.kw_defaults) if d is None]
                ref = owner[id(node)] if node.name == "__init__" else node.name
                defs.setdefault(ref, []).append((name, positional, keyword_only, required))
    passed = set()   # (callable name, parameter)
    for tree in trees.values():
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        funcs = {id(c.func) for c in calls}
        for node in ast.walk(tree):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(getattr(node, "ctx", None), ast.Load) and ref in defs and id(node) not in funcs:
                passed.update((ref, p) for _, _, _, required in defs[ref] for p in required)
        for call in calls:
            f = call.func
            ref = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            for _, positional, keyword_only, _ in defs.get(ref, []):
                given = positional if starred else positional[:len(call.args)]
                if any(k.arg is None for k in call.keywords):
                    given = positional + keyword_only
                passed.update((ref, p) for p in given + [k.arg for k in call.keywords])
    return sorted(f"{module}:{ref}({p})" for ref, entries in defs.items()
                  for module, positional, keyword_only, _ in entries
                  for p in positional + keyword_only if (ref, p) not in passed)


def test_every_parameter_of_a_src_function_is_passed_by_a_src_call():
    # A parameter that only tests pass is generality that verify and explain
    # never use.  cli.main(argv) is the console entry point, which the
    # installed script calls without arguments.
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unpassed_parameters(sources) == ["cli:main(argv)"]
    probe = ("class C:\n    def __init__(self, a, b=0):\n        pass\n\n    def m(self, x, y=1):\n        pass\n\n"
             "def f(x, y=None, *rest, z=2, **kw):\n    pass\n\n"
             "def g(u, v=3):\n    pass\n\n"
             "def h(s, t=4):\n    pass\n\n"
             "f(1, z=3)\nC(1).m(2)\nmap(g, [])\nh(*a)\n")
    assert unpassed_parameters({"probe": probe}) == ["probe:C(b)", "probe:f(y)", "probe:g(v)", "probe:m(y)"]


def dataclass_fields_holding_tolerances_or_memos() -> list[str]:
    """``module:Class.field`` for each dataclass field annotated ``Tolerances``
    or declared with ``init=False``, and for each ``cached_property``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and any("cached_property" in ast.unparse(d)
                                                             for d in stmt.decorator_list):
                    found.append(f"{path.stem}:{node.name}.{stmt.name}")
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                no_init = isinstance(stmt.value, ast.Call) and any(
                    k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in stmt.value.keywords)
                if no_init or "Tolerances" in ast.unparse(stmt.annotation):
                    found.append(f"{path.stem}:{node.name}.{ast.unparse(stmt.target)}")
    return found


def test_no_dataclass_holds_tolerances_or_a_memo():
    # Tolerances come only from the caller's tols argument, and an object
    # holds its data and what its own check computed.
    assert dataclass_fields_holding_tolerances_or_memos() == []
    assert not any("cached_property" in p.read_text() for p in SRC.glob("*.py"))


def test_every_family_is_one_block_function_that_returns_reports(monkeypatch):
    # bounds.<family>_block takes (..., tols, collect) and returns one
    # BoundReport per trial; a campaign calls it once per block.
    calls = []
    for family in cp.FAMILIES:
        name = family.replace("-", "_") + "_block"
        real = getattr(bd, name)
        sig = inspect.signature(real)
        assert sig.return_annotation == "list[BoundReport]"
        assert list(sig.parameters)[-2:] == ["tols", "collect"]

        def counted(*args, _family=family, _real=real):
            reports = _real(*args)
            calls.append((_family, len(reports)))
            assert all(isinstance(r, bd.BoundReport) and r.name == _family for r in reports)
            return reports
        monkeypatch.setattr(bd, name, counted)
    scn = cp.load_scenario('{"seed": 4, "trials": 11, "bound": "all", "n_measurements": 3}')
    assert cp.run_campaign(scn, cp.Tolerances(), jobs=1)["summary"]["trials"] == 11 * len(cp.FAMILIES)
    assert calls == [(f, len(trials)) for f, trials in campaign_blocks(scn)]


def test_the_hooks_of_the_benchmark_stay_in_place(monkeypatch):
    # perfbench/tracer.py reads the family of evaluate_trial as its second
    # argument and the (U, rho_SE) of build as its first two, hashing the
    # bytes of U and of rho_SE's .mat, and counts
    # _eval_task calls as pool tasks; perfbench/launch.py replaces
    # campaigns.run_campaign, so cmd_verify must look it up on the module.
    assert list(inspect.signature(cp.evaluate_trial).parameters)[:4] == ["scenario", "family", "trial", "tols"]
    assert callable(getattr(cp, "_eval_task", None))
    assert list(inspect.signature(sup.build).parameters)[:2] == ["u", "rho_se"]
    built, real_build = [], sup.build
    monkeypatch.setattr(sup, "build", lambda u, rho_se, *args: built.append(rho_se) or real_build(u, rho_se, *args))
    scn = cp.load_scenario((GOLDEN / "main-explicit-U-rho_se-op_kraus.json").read_text())
    cp.prepare(scn, scn.tols(cp.Tolerances()))
    assert len(built) == 1 and isinstance(built[0].mat, np.ndarray)
    verify = ast.parse(inspect.getsource(cli.cmd_verify))
    calls = [n.func for n in ast.walk(verify) if isinstance(n, ast.Call)]
    assert any(isinstance(f, ast.Attribute) and f.attr == "run_campaign"
               and isinstance(f.value, ast.Name) and f.value.id == "cp" for f in calls)
    assert not any(isinstance(f, ast.Name) and f.id == "run_campaign" for f in calls)
    # perfbench/test_perfbench.py reads these names, and the tracer imports
    # each of its layer modules by name.
    assert callable(st.haar_unitary) and bd.density is st.density
    assert cp.FAMILIES and all(map(callable, (cp.report_to_dict, cp.jsonable, cp.load_scenario)))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(n.value) for n in tracer.body
                  if isinstance(n, ast.Assign) and n.targets[0].id == "LAYER_MODULES")
    for name in layers:
        importlib.import_module(f"supchan.{name}")


def public_code() -> dict:
    """``module.name`` -> code object of every public function, method and
    property defined in ``src/supchan``."""
    out = {}
    for path in sorted(SRC.glob("[!_]*.py")):
        mod = importlib.import_module(f"supchan.{path.stem}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    out[f"{path.stem}.{name}" + (f".{attr}" if attr else "")] = member.__code__
    return out


def test_verify_and_explain_reach_every_public_function(tmp_path):
    # The golden scenarios at jobs=1, so that every call is in this process.
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for path in sorted(GOLDEN.glob("*.json")):
                if path.name == "digests.json":
                    continue
                scn = str(path)
                for fmt in ("json", "csv"):
                    cli.main(["verify", "--scenario", scn, "--jobs", "1", "--format", fmt,
                              "--out", str(tmp_path / f"report.{fmt}")])
                cli.main(["explain", "--scenario", scn, "--trial", "0", "--bits"])
    finally:
        sys.setprofile(None)
    assert sorted(name for name, code in public_code().items() if code not in reached) == []


def test_every_trial_of_a_campaign_takes_the_one_block_path(monkeypatch):
    # In a bound "all" campaign, evaluate_block runs once per block and no
    # trial is evaluated through any other entry point.
    blocks, outside = [], []
    real_block = cp.evaluate_block

    def evaluate_block(scenario, family, trials, *args):
        blocks.append((family, list(trials)))
        return real_block(scenario, family, trials, *args)
    monkeypatch.setattr(cp, "evaluate_block", evaluate_block)
    monkeypatch.setattr(cp, "evaluate_trial", lambda *args, **kwargs: outside.append(args))
    scn = cp.load_scenario('{"seed": 4, "trials": 19, "bound": "all", "n_measurements": 3}')
    # At the default budget each family is one block; at 2^10 entries
    # every family is cut into several, the last one shorter.
    for budget in (cp.STACK_ENTRIES, 1 << 10):
        monkeypatch.setattr(cp, "STACK_ENTRIES", budget)
        blocks.clear()
        report = cp.run_campaign(scn, cp.Tolerances(), jobs=1)
        assert outside == [] and report["summary"]["trials"] == 19 * len(cp.FAMILIES)
        assert blocks == [(f, list(trials)) for f, trials in campaign_blocks(scn)]
    assert len(blocks) > 2 * len(cp.FAMILIES)


def test_no_matrix_goes_to_eigvalsh_and_then_to_eigh(monkeypatch):
    # Each check decomposes with the eigh that the entropies then read, so a
    # matrix that a check gives eigvalsh is never decomposed again by eigh.
    # eigh after eigh is not counted: clausius meets the same Gibbs state as
    # the marginal of rho_SE and as the fixed point.
    seen, repeats = set(), []

    def recorded(name, real):
        def call(a, *args, **kwargs):
            a = np.asarray(a)
            for m in a.reshape(-1, *a.shape[-2:]):
                key = (m.shape, m.dtype.str, m.tobytes())
                if name == "eigvalsh":
                    seen.add(key)
                elif key in seen:
                    repeats.append(m.shape)
            return real(a, *args, **kwargs)
        return call
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    for d in (2, 3):
        scn = cp.load_scenario(json.dumps({"seed": 4, "trials": 16, "bound": "all", "dims": {"d_S": d, "d_E": d}}))
        report = cp.run_campaign(scn, cp.Tolerances(), jobs=1)
        assert report["summary"]["trials"] == 16 * len(cp.FAMILIES)
    assert seen
    assert repeats == []


def test_every_mutant_snippet_occurs_once_in_src():
    # tools/mutants.py applies each mutant by its snippet: a refactor that
    # moves a guarded line must move its mutant with it.
    catalogue = json.loads((ROOT / "tools" / "mutants.json").read_text())
    assert len({m["name"] for m in catalogue}) == len(catalogue)
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    for m in catalogue:
        assert set(m) == {"name", "file", "snippet", "replacement", "reason"} and m["reason"]
        assert m["snippet"] != m["replacement"]
        assert [p for p, text in sources.items() for _ in range(text.count(m["snippet"]))] == [ROOT / m["file"]], m
