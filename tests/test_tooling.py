"""Source checks over ``src/supchan``: every function that takes ``tols`` reads it."""

import ast
import pathlib

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
