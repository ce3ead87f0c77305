import ast
from pathlib import Path

import surfacesim

SRC = Path(surfacesim.__file__).resolve().parent


def _private_names_never_read(src: Path) -> list[str]:
    """Private module-level functions, classes and assigned constants of
    the package that no function or class body of the package reads (a
    definition's reads of its own name do not count)."""
    defined: dict[str, str] = {}
    reads: dict[str, set[tuple[str, str]]] = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        reads.setdefault(sub.id, set()).add((path.name, node.name))
                    elif isinstance(sub, ast.Attribute):
                        reads.setdefault(sub.attr, set()).add((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
    return sorted(name for name, module in defined.items()
                  if not reads.get(name, set()) - {(module, name)})


def test_every_private_name_is_read():
    assert _private_names_never_read(SRC) == []


def test_dead_name_scan_flags_an_unread_table(tmp_path):
    (tmp_path / "a.py").write_text(
        "_TABLE = [1]\n_TABLE[0] = 2\n_USED = 3\n\n"
        "def _helper():\n    return _USED + _helper()\n\n"
        "def public():\n    return 0\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import _USED\n    return _USED\n")
    assert _private_names_never_read(tmp_path) == ["_TABLE", "_helper"]
