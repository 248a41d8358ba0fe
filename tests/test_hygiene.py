"""Source hygiene, read off the syntax trees of the repository's Python files.

These rules keep unused surface out of `src/dmlab`:

* no module imports a name it never uses (the package `__init__.py` is
  exempt: its imports are the public names it re-exports), and neither does
  any of `tests/*.py`;
* every optional parameter of a function in `src/` is passed by some call in
  `src/`, `tests/` or `bench/`, by keyword or by position.  A parameter that
  no call passes is one every caller leaves at its default, so the default
  belongs in the body;
* `src/dmlab/*.py` holds at most `SOURCE_LINE_BUDGET` lines, so a change
  pays for the lines it adds by removing as many elsewhere;
* no module imports `dataclasses`, whose class building was a quarter of a
  CLI process's setup, and `import dmlab.cli` loads neither `dataclasses`
  nor `inspect`, but does load every module of the package, so the saving
  does not come from an import deferred into the first call;
* no `x *= 2` outside `enclosure.refine`, so every precision that doubles
  climbs the one ladder, which refuses a start below 1 bit;
* no public module-level function is a private twin's wrapper, one whose
  whole body after the docstring returns a call (or a subscript of a call)
  of a private function of its own module: the public function takes the
  twin's parameters and the twin goes, so a by-name tracer sees each call;
* `cli.py` and `experiments.py` name no underscore attribute of another
  dmlab module and import no underscore name from one, so the verbs and the
  examples run the library through its public functions.

Two rules keep the test oracles apart from what they check:

* `tests/helpers.py` imports none of the library's scan, prefix-table, cdf
  and float-filter kernels, nor its precision ladder `refine`, nor the
  working-precision products of `certify`, nor the power entry
  `_power_ends`, the log2 series `_log2_series` or the interval merge, so
  no oracle runs through the kernel it stands against;
* no test passes an oracle from `tests/helpers.py` one of those kernels, or
  a name bound to one, whether it calls the oracle by name or through a
  loop over a tuple that holds it.

Calls are matched to definitions by name only (the last part of a dotted
callee, the class name for `__init__`), which can only make a parameter look
passed, never unpassed.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import symtable
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dmlab"
SOURCE_LINE_BUDGET = 4799
# kernels of the fast paths and the precision ladder; an oracle built on one would check it against itself
KERNELS = ("_MassOracle", "_scan_centers", "_scan_pass", "LeafPrefixes", "dyadic_cdf_numerators", "cdf_floats",
           "first_max", "refine", "_fixed_product", "_prefix_floors", "_power_ends", "_merged", "_log2_series")


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_reads(table: symtable.SymbolTable) -> set[str]:
    """The names a scope and the scopes inside it read from the module's
    namespace: any the module body reads, and in a function or class body
    those that resolve to the module, not to a local or an enclosing
    function's binding."""
    top = table.get_type() == "module"
    used = {sym.get_name() for sym in table.get_symbols() if sym.is_referenced() and (top or sym.is_global())}
    for child in table.get_children():
        used |= _module_reads(child)
    return used


def _unused_imports(source: str, name: str) -> list[str]:
    """The imports of `source` that nothing reads: a module-level one that no
    scope reads from the module (annotations count as reads: under `from
    __future__ import annotations` the symbol table does not see them, and a
    reader of the hints resolves them in the module), and one inside a
    function or class whose body names it nowhere."""
    tree = ast.parse(source, name)
    used = _module_reads(symtable.symtable(source, name, "exec"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= {n.id for n in ast.walk(node.annotation) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= {n.id for n in ast.walk(node.returns) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(ast.Module(
        [node for node in tree.body if not isinstance(node, _SCOPES)], [])).items() if name not in used]
    for scope in (node for node in ast.walk(tree) if isinstance(node, _SCOPES)):
        inner = ast.Module([node for node in scope.body if not isinstance(node, _SCOPES)], [])
        named = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [f"{name} (line {line})" for name, line in _imported_names(inner).items() if name not in named]
    return unused


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"), str(path))
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_unused_imports_are_read_by_scope():
    """An import that every use reads through a local of the same name is
    unused; one a nested function or a method reads from the module is not."""
    shadowed = "from functools import cache\n\ndef f(n):\n    cache = {}\n    return cache.get(n)\n"
    assert _unused_imports(shadowed, "shadowed") == ["cache (line 1)"]
    nested = ("from functools import cache\nfrom math import inf\n\ndef f():\n    inf = 1\n\n"
              "    def g():\n        return inf\n    return g\n\nclass C:\n    def m(self, x: int = 0):\n"
              "        return cache(x)\n")
    assert _unused_imports(nested, "nested") == ["inf (line 2)"]


def _optional_parameters():
    """(module, function, parameter, position or None, callee name) for every
    parameter with a default in src/."""
    for path, tree in _trees("src"):
        classes = {child: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = classes.get(node)
            callee = cls if node.name == "__init__" else node.name
            is_static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in node.decorator_list)
            # a call site does not spell out self or cls
            skip = 1 if cls is not None and not is_static else 0
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                yield path.name, node.name, positional[index].arg, index - skip, callee
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.name, node.name, arg.arg, None, callee


def _calls() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _trees("src", "tests", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_is_passed_somewhere():
    calls = _calls()
    never = [
        f"{module}: {function}({name})"
        for module, function, name, position, callee in _optional_parameters()
        if not any(_passes(call, name, position) for call in calls.get(callee, ()))
    ]
    assert not never, "optional parameters no call passes: " + "; ".join(never)


def test_source_stays_within_its_line_budget():
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.glob("*.py")}
    assert sum(lines.values()) <= SOURCE_LINE_BUDGET, (
        f"src/dmlab/*.py holds {sum(lines.values())} lines, over the budget of "
        f"{SOURCE_LINE_BUDGET}: {sorted(lines.items(), key=lambda kv: -kv[1])}")


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_dataclasses():
    users = [path.name for path, tree in _trees("src/dmlab")
             if any(m.split(".")[0] == "dataclasses" for m in _imported_modules(tree))]
    assert not users, f"modules importing dataclasses: {users}"


def test_cli_import_loads_the_whole_package_and_no_class_builders():
    probe = ("import sys, dmlab.cli; print(*sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('dmlab', 'dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout.split()
    package = {"dmlab"} | {f"dmlab.{p.stem}" for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert set(out) == package


def test_oracles_import_no_kernel():
    imported = _imported_names(ast.parse((ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")))
    kernels = [name for name in KERNELS if name in imported]
    assert not kernels, f"tests/helpers.py imports the kernels {kernels}"


def test_only_refine_doubles_in_place():
    doubled = []
    for path, tree in _trees("src/dmlab"):
        exempt = {node for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and (path.name, fn.name) == ("enclosure.py", "refine") for node in ast.walk(fn)}
        doubled += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
                    and isinstance(node.value, ast.Constant) and node.value.value == 2
                    and node not in exempt]
    assert not doubled, f"`*= 2` outside enclosure.refine: {doubled}"


def test_no_public_function_wraps_a_private_twin():
    twins = []
    for path, tree in _trees("src/dmlab"):
        private = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")}
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            value = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if isinstance(value, ast.Subscript):
                value = value.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id in private:
                twins.append(f"{path.name}: {fn.name} -> {value.func.id}")
    assert not twins, f"public functions that only return a private twin's call: {twins}"


@pytest.mark.parametrize("name", ["cli.py", "experiments.py"])
def test_verbs_call_only_public_library_names(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    modules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
    private = [f"{node.module}.{alias.name}" for node in imports if node.module is not None
               for alias in node.names if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id in modules and node.attr.startswith("_")]
    assert not private, f"{name} names private library attributes: {private}"


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_no_test_hands_a_kernel_to_an_oracle():
    handed = []
    for path, tree in _trees("tests"):
        oracles = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "helpers" for alias in node.names}
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            nodes = list(ast.walk(fn))
            bound = {target.id for node in nodes if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Call) and _callee(node.value) in KERNELS
                     for target in node.targets if isinstance(target, ast.Name)}
            # `for f in (kernel, oracle)` makes f an oracle too
            callees = oracles | {loop.target.id for loop in nodes if isinstance(loop, (ast.For, ast.comprehension))
                                 and isinstance(loop.target, ast.Name) and isinstance(loop.iter, (ast.Tuple, ast.List))
                                 and any(isinstance(e, ast.Name) and e.id in oracles for e in loop.iter.elts)}
            for call in (node for node in nodes if isinstance(node, ast.Call) and _callee(node) in callees):
                args = call.args + [kw.value for kw in call.keywords]
                if any(isinstance(a, ast.Name) and a.id in bound
                       or isinstance(a, ast.Call) and _callee(a) in KERNELS for a in args):
                    handed.append(f"{path.name}:{call.lineno}")
    assert not handed, f"oracles handed a kernel object: {handed}"
