"""Source checks over ``src/supchan``: every function that takes ``tols``
reads it, and the entry points the benchmark's tracer and launcher hook stay
as they expect."""

import ast
import inspect
import pathlib

from supchan import campaigns as cp
from supchan import cli
from supchan import superchannel as sup

SRC = pathlib.Path(__file__).parent.parent / "src" / "supchan"


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


def test_the_hooks_of_the_benchmark_stay_in_place():
    # perfbench/tracer.py reads the family of evaluate_trial as its second
    # argument and the (U, rho_SE) of build as its first two, and counts
    # _eval_task calls as pool tasks; perfbench/launch.py replaces
    # campaigns.run_campaign, so cmd_verify must look it up on the module.
    assert list(inspect.signature(cp.evaluate_trial).parameters)[:4] == ["scenario", "family", "trial", "tols"]
    assert callable(getattr(cp, "_eval_task", None))
    assert list(inspect.signature(sup.build).parameters)[:2] == ["u", "rho_se"]
    verify = ast.parse(inspect.getsource(cli.cmd_verify))
    calls = [n.func for n in ast.walk(verify) if isinstance(n, ast.Call)]
    assert any(isinstance(f, ast.Attribute) and f.attr == "run_campaign"
               and isinstance(f.value, ast.Name) and f.value.id == "cp" for f in calls)
    assert not any(isinstance(f, ast.Name) and f.id == "run_campaign" for f in calls)
