import ast
from pathlib import Path

import surfacesim

SRC = Path(surfacesim.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# Defaulted parameters that no caller outside the tests sets, kept on purpose.
TEST_SEAMS = {
    # bench/test_bench.py passes it through a wrapper; it leaves with the
    # chunk-batched sampling of ROADMAP item 9.
    "decoder.Decoder.decode(verify)",
    # The console script's test seam: tests pass argv in place of sys.argv.
    "cli.main(argv)",
}


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


def _parameters_never_set(src: Path, callers: list[Path]) -> list[str]:
    """Defaulted parameters of the package's module-level functions and of
    its classes' methods, as "module.name(param)" or
    "module.Class.name(param)", that no call in the caller files sets, by
    keyword or by position.  A call matches every definition of its name,
    whatever the object; a call of a class counts for its __init__; a
    *args sets every positional parameter and a **kwargs every
    parameter."""
    defs = []  # (label, call names, positional names, defaulted names)
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            funcs = [(node, "", ())] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                funcs = [(f, node.name + ".", (node.name,) if f.name == "__init__" else ())
                         for f in node.body if isinstance(f, ast.FunctionDef)]
            for f, owner, aliases in funcs:
                a = f.args
                positional = [arg.arg for arg in a.posonlyargs + a.args]
                if owner and not any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                     for dec in f.decorator_list):
                    positional = positional[1:]  # self or cls
                defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
                defaulted += [arg.arg for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                              if default is not None]
                if defaulted:
                    defs.append((f"{path.stem}.{owner}{f.name}", {f.name, *aliases},
                                 positional, defaulted))
    calls: dict[str, list[ast.Call]] = {}
    for root in callers:
        for path in sorted(root.rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(call)

    def sets(call: ast.Call, param: str, positional: list[str]) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if param not in positional:
            return False
        return (any(isinstance(arg, ast.Starred) for arg in call.args)
                or len(call.args) > positional.index(param))

    return sorted(f"{label}({param})" for label, names, positional, defaulted in defs
                  for param in defaulted
                  if not any(sets(call, param, positional)
                             for name in names for call in calls.get(name, ())))


def test_every_defaulted_parameter_has_a_caller():
    # A seam that no longer shows up here has lost its parameter or gained
    # a caller: take it off the list.
    callers = [ROOT / "src", ROOT / "bench", ROOT / "results"]
    assert _parameters_never_set(SRC, callers) == sorted(TEST_SEAMS)


def test_parameter_scan_flags_a_default_no_caller_sets(tmp_path):
    pkg, use = tmp_path / "pkg", tmp_path / "use"
    pkg.mkdir()
    use.mkdir()
    (pkg / "a.py").write_text(
        "def f(x, y=1, *, z=2):\n    return x + y + z\n\n"
        "def g(a=0):\n    return a\n\n"
        "def h(u=0, *, v=1):\n    return u + v\n\n"
        "class C:\n    def __init__(self, n=0):\n        self.n = n\n\n"
        "    def m(self, k=1, j=2):\n        return k + j\n\n"
        "    @staticmethod\n    def s(q=0):\n        return q\n")
    (use / "b.py").write_text(
        "from a import C, f, g, h\n\n"
        "f(0, 2)\ng(**{})\nh(*[1])\nC(5).m(j=1)\nC.s(0)\n")
    assert _parameters_never_set(pkg, [use]) == ["a.C.m(k)", "a.f(z)", "a.h(v)"]
