"""Every module-level function and class of the package is reached by the
package itself or by the benchmark, or (if public) is a named test seam; no
module imports a name it does not use; the model modules work on latents
without the simulator or the encoder; only `tensorio` writes files and
reads JSON; and no function keeps state in the module.

A name counts as reached when code in `src/wmplanlab` (other than the
`__init__.py` re-exports, and other than its own definition) or in
`perfbench/` refers to it, or when a dotted string in `perfbench/` names
it, as the layer tracer's "module.attr" paths do."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wmplanlab"

# (module, name) -> why the name stays although only tests call it
TEST_SEAMS = {
    ("evalreport", "load_report"):
        "reads back what `emit_report` writes, so tests can check the report "
        "format; the reports of ROADMAP item 6 extend it",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _defs(private: bool = False) -> dict[tuple[str, str], int]:
    """The line of each module-level function and class, by (module, name),
    whose name is public, or private (starts with "_") if `private`."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                defs[(path.stem, node.name)] = node.lineno
    return defs


def _names(tree: ast.AST, strings: bool) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and _DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def _references() -> set[str]:
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _names(stmt, strings=False)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # a definition does not reach itself
            refs |= names
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs |= _names(ast.parse(path.read_text()), strings=True)
    return refs


def test_every_public_definition_is_reached_or_a_named_test_seam():
    refs = _references()
    unreached = [f"src/wmplanlab/{module}.py:{line} {name}"
                 for (module, name), line in sorted(_defs().items())
                 if name not in refs and (module, name) not in TEST_SEAMS]
    assert not unreached, ("reached by no command, preset or benchmark; delete "
                           "it or name it in TEST_SEAMS: " + ", ".join(unreached))


def test_every_private_definition_is_reached():
    # no test seam excuses a private helper: only the package or the benchmark
    # may reach it
    refs = _references()
    unreached = [f"src/wmplanlab/{module}.py:{line} {name}"
                 for (module, name), line in sorted(_defs(private=True).items())
                 if name not in refs]
    assert not unreached, "reached by nothing; delete it: " + ", ".join(unreached)


def test_every_test_seam_exists_and_is_otherwise_unreached():
    defs, refs = _defs(), _references()
    for module, name in TEST_SEAMS:
        assert (module, name) in defs, f"{module}.{name} is gone"
        assert name not in refs, f"{module}.{name} is reached; drop it from TEST_SEAMS"


def _unused_imports(path: pathlib.Path) -> list[str]:
    """`file:line name` of each name an import binds that the file never
    reads, apart from `from __future__` and lines marked `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__.py imports only to re-export
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)


def _imported_names(path: pathlib.Path) -> set[str]:
    """Every module name and imported name that an import of the file
    spells, each dotted part on its own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


@pytest.mark.parametrize("module", ["worldmodel"])
def test_the_model_modules_import_neither_the_simulator_nor_the_encoder(module):
    # the model and its error metric read latents; stepping and encoding
    # happen in the callers that hold the env and the encoder
    assert not _imported_names(PACKAGE / f"{module}.py") & {"envs", "encoder"}


def _file_writes(path: pathlib.Path) -> list[str]:
    """`file:line` of each `json.dump`, `csv.writer` and `atomic_open` call,
    and of each call of the builtin `open` whose mode writes (has "w", "a"
    or "x") or is not a literal."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        call = ast.unparse(node.func)  # "json.dump", "tensorio.atomic_open", ...
        if call in ("json.dump", "csv.writer") or call.endswith("atomic_open"):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {call}")
        elif call == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax")):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} open")
    return found


def test_only_tensorio_writes_files():
    # one writer, `tensorio.atomic_open`, so that every output file is
    # written whole or not at all; `tensorio.write_json` is the one JSON
    # writer and `tensorio.write_csv` the one table writer
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "tensorio.py"]
    writes = [entry for path in paths for entry in _file_writes(path)]
    assert not writes, "write through tensorio instead: " + ", ".join(writes)


def test_only_tensorio_reads_json():
    # `tensorio.read_json` is the one JSON reader, so that every JSON file
    # that is missing, malformed or no object is a ValueError naming it
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "tensorio.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.load"]
    assert not found, "read through tensorio.read_json instead: " + ", ".join(found)


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = {"update", "clear", "append", "extend", "insert", "pop", "popitem",
             "remove", "discard", "add", "setdefault", "sort", "reverse"}


def _module_state(path: pathlib.Path) -> list[str]:
    """`file:line` of each `global` statement in a function, and of each
    mutation, in a function, of a dict, list or set that the module binds at
    its top level: a mutating method call, or an item assigned or deleted."""
    tree = ast.parse(path.read_text())
    containers = set()
    for stmt in tree.body:
        value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, _CONTAINERS) or (
                isinstance(value, ast.Call)
                and ast.unparse(value.func) in ("dict", "list", "set")):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(func)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = containers - local
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} global")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in shared):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                             f"{ast.unparse(node.func)}")
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(node.value, ast.Name) and node.value.id in shared):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                             f"{node.value.id}[...]")
    return sorted(set(found))


def test_no_function_keeps_state_in_its_module():
    # a module-level dict, list or set is a constant registry; state that a
    # call leaves there outlives the call and must be cleared by hand, and a
    # worker process sees it only if something fills it there too
    state = [entry for path in sorted(PACKAGE.glob("*.py"))
             for entry in _module_state(path)]
    assert not state, "pass it as an argument instead: " + ", ".join(state)
