import ast
from pathlib import Path

import surfacesim

SRC = Path(surfacesim.__file__).resolve().parent


def _private_names_never_read(src: Path) -> list[str]:
    """Private module-level functions, classes and assigned constants of
    the package, and private methods and class attributes of its classes,
    that no function or class body of the package reads.  A definition's
    reads of its own name, from its own body or from anything defined in
    it, do not count.  An attribute read counts for every definition of
    its name, whatever the object."""
    defined: dict[str, set[tuple[str, str]]] = {}
    reads: dict[str, set[tuple[str, str]]] = {}

    def read(tree: ast.AST, unit: tuple[str, str]) -> None:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                reads.setdefault(sub.id, set()).add(unit)
            elif isinstance(sub, ast.Attribute):
                reads.setdefault(sub.attr, set()).add(unit)

    def scan(body: list[ast.stmt], module: str, owner: str) -> None:
        # owner is the dotted path of the enclosing class, "" at module level.
        prefix = owner + "." if owner else ""
        for node in body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
                read(node, (module, prefix + node.name))
            elif isinstance(node, ast.ClassDef):
                names = [node.name]
                for part in [*node.bases, *node.keywords, *node.decorator_list]:
                    read(part, (module, prefix + node.name))
                scan(node.body, module, prefix + node.name)
            else:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                if owner:
                    read(node, (module, owner))  # a class body statement
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, set()).add((module, prefix + name))

    for path in sorted(src.glob("*.py")):
        scan(ast.parse(path.read_text()).body, path.name, "")

    def within(reader: tuple[str, str], unit: tuple[str, str]) -> bool:
        return reader[0] == unit[0] and (reader[1] + ".").startswith(unit[1] + ".")

    return sorted(name for name, units in defined.items()
                  if all(any(within(r, u) for u in units) for r in reads.get(name, ())))


def test_every_private_name_is_read():
    assert _private_names_never_read(SRC) == []


def test_dead_name_scan_flags_an_unread_table(tmp_path):
    (tmp_path / "a.py").write_text(
        "_TABLE = [1]\n_TABLE[0] = 2\n_USED = 3\n\n"
        "def _helper():\n    return _USED + _helper()\n\n"
        "def public():\n    return 0\n\n"
        "class Public:\n    _SLOTS = 1\n    _READ = 2\n\n"
        "    def _dead(self):\n        return self._dead()\n\n"
        "    def _live(self):\n        return self._READ\n\n"
        "    def run(self):\n        return self._live()\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import _USED\n    return _USED\n")
    assert _private_names_never_read(tmp_path) == ["_SLOTS", "_TABLE", "_dead", "_helper"]
