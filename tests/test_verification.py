import ast
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dwf import pauli, verification
from dwf.galois import SUPPORTED_DIMENSIONS, field
from dwf.pauli import Labeling, PauliOperator, build_labeling
from dwf.verification import run_verification


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_all_checks_pass(d):
    results = run_verification(d)
    assert len(results) == 9
    for r in results:
        assert r.passed, f"{r.group}: {r.name} failed ({r.detail})"


def test_verify_realizes_each_translation_once(monkeypatch):
    # the Pauli check reads the field's table of translations; it once
    # realized two matrices per sampled pair, 1,152 at d = 8
    d = 8
    run_verification(d)  # the per-field tables the checks share now exist
    calls = []
    realize = pauli._translation_matrix
    monkeypatch.setattr(pauli, "_translation_matrix", lambda *args: calls.append(args) or realize(*args))
    assert verification._check_pauli(d, np.random.default_rng(0))[0] and calls == []
    assert all(r.passed for r in run_verification(d))
    assert len(calls) <= d * d, len(calls)
    calls.clear()
    assert Labeling(field(d)).translations.shape == (d * d, d, d)
    assert len(calls) == d * d


@pytest.mark.parametrize("d", (2, 3, 4))
def test_a_wrong_form_fails_the_pauli_check_naming_the_first_pair(monkeypatch, d):
    # under a zero form every pair "commutes"; the check must name the first
    # pair, in point order, whose dense commutator is not zero
    gf = field(d)
    labels = build_labeling(gf).labels.tolist()
    dense = [PauliOperator(gf, label[: gf.n], label[gf.n :]).dense for label in labels]
    first = next((a, b) for a in range(d * d) for b in range(d * d)
                 if np.abs(dense[a] @ dense[b] - dense[b] @ dense[a]).max() > 1e-6)
    monkeypatch.setattr(verification, "_symplectic_form", lambda n: np.zeros((2 * n, 2 * n), dtype=np.int64))
    rows = {r.group: r for r in run_verification(d)}
    assert not rows["pauli"].passed
    assert rows["pauli"].detail == f"symplectic test disagrees at {labels[first[0]]}, {labels[first[1]]}"
    assert all(r.passed for group, r in rows.items() if group != "pauli")


def test_verify_d2_within_runtime_budget():
    start = time.perf_counter()
    results = run_verification(2)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert elapsed < 10.0


def test_verify_d4_within_runtime_budget():
    start = time.perf_counter()
    results = run_verification(4)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert elapsed < 120.0


def test_tolerance_scale_env_knob():
    code = (
        "import dwf.tolerances as t; "
        "print(t.ALGEBRAIC, t.SPECTRAL, t.LOOKUP)"
    )
    env = dict(os.environ, DWF_TOLERANCE_SCALE="10")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert [float(x) for x in out] == [1e-11, 1e-9, 1e-7]
    plain = subprocess.run(
        [sys.executable, "-c", code],
        env={k: v for k, v in os.environ.items() if k != "DWF_TOLERANCE_SCALE"},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert [float(x) for x in plain] == [1e-12, 1e-10, 1e-8]


def test_no_tolerance_literals_outside_tolerances_module():
    # every small float threshold comes from dwf.tolerances, so
    # DWF_TOLERANCE_SCALE scales them all
    package = Path(__file__).resolve().parents[1] / "src" / "dwf"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0 < node.value < 1e-6
    ]
    assert found == []


def test_no_unused_imports_in_the_package():
    # a module, script or test imports only what it uses; the package
    # __init__.py re-exports the API
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted(p for d in ("src/dwf", "scripts", "tests") for p in (root / d).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    assert found == []


# public functions and methods that no module, script or benchmark reads,
# each kept for a reason of its own
READ_ONLY_BY_TESTS = {
    "hadamard_in_chart": "the independent construction that fourier_operator is checked against",
    "random_unitary": "Haar unitaries, the negative cases of the Clifford and flow checks",
    "maximally_mixed": "the flat state of the Wigner and classicality checks",
    "state_to_payload": "the write half of the state format's round trip",
    "unitary_to_payload": "the write half of the unitary format's round trip",
    "wigner_values_from_csv": "the read half of the Wigner CSV format's round trip",
    "lines_through": "the pencil through a point, read by the acceptance criteria",
    "symplectic_product": "the commutation test of two translations at the API edge",
    "power": "a translation's powers, which the spread record of ROADMAP item 1 reads;"
             " a local variable in mub shares the name, so only calls count",
}


def _names(tree):
    """(bare names, attribute names, called attribute names) read anywhere
    in an ast subtree."""
    bare, attributes, calls = Counter(), Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls[node.func.attr] += 1
    return bare, attributes, calls


def _unread_public_functions(modules, readers):
    """(defined, unread): the public functions and methods of the module
    trees, and those that no reader tree names outside their own body.  A
    function counts any read of its name, a property an attribute read,
    obj.name, and any other method only a call, obj.name(...)."""
    read = [Counter(), Counter(), Counter()]
    for tree in readers:
        for total, found in zip(read, _names(tree)):
            total.update(found)
    bare, attributes, calls = read
    defined, unread = set(), []
    for tree in modules:
        for node in tree.body:
            method = isinstance(node, ast.ClassDef)
            for func in node.body if method else [node]:
                if not isinstance(func, ast.FunctionDef) or func.name.startswith("_"):
                    continue
                defined.add(func.name)
                own_bare, own_attributes, own_calls = _names(func)
                decorators = {getattr(d, "id", getattr(d, "attr", None)) for d in func.decorator_list}
                if not method:
                    reads = bare[func.name] - own_bare[func.name] + attributes[func.name] - own_attributes[func.name]
                elif decorators & {"property", "cached_property"}:
                    reads = attributes[func.name] - own_attributes[func.name]
                else:
                    reads = calls[func.name] - own_calls[func.name]
                if not reads:
                    unread.append(f"{func.name} (line {func.lineno})")
    return defined, unread


def test_every_public_function_has_a_reader_outside_the_tests():
    # a public function or method is named somewhere in the package outside
    # its own body, in scripts/ or in perfbench/, or it is on the keep-list
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text())
             for d in ("src/dwf", "scripts", "perfbench") for path in sorted((root / d).rglob("*.py"))}
    defined, unread = _unread_public_functions(
        [tree for path, tree in trees.items() if path.parent.name == "dwf"], trees.values())
    assert [name for name in unread if name.split()[0] not in READ_ONLY_BY_TESTS] == []
    assert set(READ_ONLY_BY_TESTS) <= defined  # the keep-list names only live code


def test_a_method_read_only_as_an_attribute_has_no_reader():
    # `b.rows` reads a property, not a plain method: only a call counts for one
    module = ast.parse(
        "class A:\n"
        "    def rows(self): return 1\n"
        "    @property\n"
        "    def size(self): return 2\n"
        "    @cached_property\n"
        "    def table(self): return 3\n"
        "    def sums(self): return 4\n"
        "def build(): return A()\n"
    )
    reader = ast.parse("b = build()\nb.rows, b.size, b.table, b.sums()\n")
    defined, unread = _unread_public_functions([module], [module, reader])
    assert defined == {"rows", "size", "table", "sums", "build"}
    assert unread == ["rows (line 2)"]
    _, unread = _unread_public_functions([module], [module, ast.parse("build().rows()\n")])
    assert unread == ["size (line 4)", "table (line 6)", "sums (line 7)"]


def _passes(call, name, position, arg):
    """Whether a call of `name` passes the parameter `arg`, which sits at
    `position` after self or cls (None: keyword-only): by keyword, by
    position, or through *args or **kwargs."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
        return False
    if any(keyword.arg in (arg, None) for keyword in call.keywords):  # None: **kwargs
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_option_is_set_outside_the_tests():
    # every parameter with a default, on a public function or method or on
    # a class's __init__, is passed by some call in the package outside its
    # own body, in scripts/ or in perfbench/: an option that only tests set
    # is a second behaviour no workload runs; a call of a class counts for
    # its __init__
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text())
             for d in ("src/dwf", "scripts", "perfbench") for path in sorted((root / d).rglob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for tree in (tree for path, tree in trees.items() if path.parent.name == "dwf"):
        for node in tree.body:
            method = isinstance(node, ast.ClassDef)
            for func in node.body if method else [node]:
                if not isinstance(func, ast.FunctionDef) or func.name.startswith("_") and func.name != "__init__":
                    continue
                name = node.name if func.name == "__init__" else func.name
                args = func.args
                positional = args.posonlyargs + args.args
                if method and "staticmethod" not in {getattr(d, "id", None) for d in func.decorator_list}:
                    positional = positional[1:]  # self or cls
                first_default = len(positional) - len(args.defaults)
                options = [(i, a.arg) for i, a in enumerate(positional) if i >= first_default]
                options += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default]
                own = {id(call) for call in ast.walk(func)}
                unset += [f"{name}({arg}) (line {func.lineno})" for position, arg in options
                          if not any(_passes(call, name, position, arg) for call in calls if id(call) not in own)]
    assert unset == []


def test_no_imports_inside_functions_in_the_package():
    # every import sits at module level, so the import graph is the layer
    # order and a cycle between layers fails at import time
    package = Path(__file__).resolve().parents[1] / "src" / "dwf"
    found = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}: import in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_no_dead_private_helpers_in_the_package():
    # every private module-level function, class or constant, and every
    # private method, is read somewhere in the package
    package = Path(__file__).resolve().parents[1] / "src" / "dwf"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node] + [m for m in body if isinstance(m, ast.FunctionDef)]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((name, item.lineno, item.name))
                elif isinstance(item, ast.Assign):
                    defined += [(name, item.lineno, t.id) for t in item.targets
                                if isinstance(t, ast.Name)]
    found = [f"{name}:{line}: {ident}" for name, line, ident in defined
             if private(ident) and ident not in read]
    assert found == []


def test_no_hash_in_the_package_reads_an_identity():
    # a hash that mixes in id() changes with where an object was allocated,
    # and with it the iteration order of every set and the sums taken over it
    package = Path(__file__).resolve().parents[1] / "src" / "dwf"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef) and func.name == "__hash__"
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert found == []


def test_only_main_returns_the_usage_exit_code():
    # commands raise UsageError or FormatError; main alone prints it and returns 2
    cli = Path(__file__).resolve().parents[1] / "src" / "dwf" / "cli.py"
    functions = [node for node in ast.parse(cli.read_text()).body if isinstance(node, ast.FunctionDef)]
    found = [function.name for function in functions for node in ast.walk(function)
             if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2]
    assert found == ["main"]


def test_only_galois_and_the_dimension_flag_name_the_supported_dimensions():
    # galois.field refuses every other dimension, and the loaders pass its refusal on;
    # the --d flag's type checks the list itself, so argparse can print the choices
    package = Path(__file__).resolve().parents[1] / "src" / "dwf"
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "galois.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {id(node) for func in tree.body if path.name == "cli.py" and isinstance(func, ast.FunctionDef)
                 and func.name == "dimension" for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if "SUPPORTED_DIMENSIONS" in (getattr(node, "id", None), getattr(node, "attr", None))
                  and id(node) not in owner]
    assert found == []


def test_package_stays_within_its_line_budget():
    # the budget of ROADMAP's "Line budget" paragraph: new work pays for itself in removed lines
    package = Path(__file__).resolve().parents[1] / "src" / "dwf"
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= 3150, f"src/dwf/*.py holds {lines} lines, over the budget of 3150"
