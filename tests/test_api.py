"""Every public name of the package has a caller in the package or the bench,
every series is the catalog's, only the catalog decides which vectors are
shared, separation is decided in one place, the package's namespace is the
pinned one and each name in it is its home module's own object, importing
the package loads no submodule until a name is read, every function of
src/ is entered by a command or listed with its reason, every mutant of
tests/mutants.py applies once, and every test name is in the ledger
tests/data/test_names.txt.

A name that only tests reach is API nobody uses: it is deleted, or, when it
states a paper object that an open ROADMAP item will call, listed in KEPT.
Read from the source with `ast`; the import and reach tests run in a fresh
interpreter.
"""

import ast
import subprocess
import sys
import types
from pathlib import Path

import mutants
import pytest
from golden_data import PACKAGE_ALL

import qscheme

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "qscheme").glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "bench").glob("*.py"))

# Paper objects without a caller yet, each with the ROADMAP item that gives
# it one.  A name leaves this list as soon as something calls it.
KEPT = {
    "core.to_newton_coeffs": "items 1 and 5",
    "core.ParameterVector.from_json_dict": "item 5: eval --vector and identify",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names() -> dict[str, str]:
    """module.qualname -> bare name of each public top-level function, class
    and constant, and each public method and property of a public top-level
    class (a private class's methods, such as an argparse override, are no
    API)."""
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in filter(_public, names):
                out[f"{path.stem}.{name}"] = name
            if isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        out[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return out


def loaded_names() -> tuple[set[str], set[str]]:
    """Every name the package (without __init__.py) or the bench loads as a
    Name, and every name it loads as an attribute or states as a string
    constant that is an identifier (bench/spans.py names the methods it
    wraps as strings)."""
    bare, attributes = set(), set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                attributes.add(node.value)
    return bare, attributes


def test_every_public_name_has_a_caller():
    """A top-level name counts as called through any load; a method or
    property only through an attribute or a string, since a local variable
    of the same name calls nothing."""
    names, (bare, attributes) = public_names(), loaded_names()
    uncalled = {
        qualname
        for qualname, name in names.items()
        if name not in attributes and (qualname.count(".") == 2 or name not in bare)
    }
    dead = sorted(uncalled - set(KEPT))
    assert not dead, f"public names that only tests reach: {dead}"
    # KEPT can only shrink: each entry still exists and still has no caller.
    gone = sorted(set(KEPT) - set(names))
    assert not gone, f"KEPT names that no longer exist: {gone}"
    called = sorted(set(KEPT) - uncalled)
    assert not called, f"KEPT names that now have a caller: {called}"


def _imports_qseries(node: ast.AST) -> bool:
    """Whether node is `from .qseries import ...`, `from . import qseries`
    or an absolute import of qscheme.qseries."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.endswith("qseries") or any(alias.name == "qseries" for alias in node.names)
    if isinstance(node, ast.Import):
        return any(alias.name.endswith(".qseries") for alias in node.names)
    return False


def test_only_the_catalog_builds_series():
    """A series is stated once, in the catalog, and read from there by label:
    no other module imports the series primitives."""
    importers = sorted(
        path.name
        for path in MODULES
        if any(_imports_qseries(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert importers == ["catalog.py"]


def test_the_catalog_builds_every_series_in_one_place():
    """catalog.py calls terminating_sum once, in _series, so every
    representation is one _series row and no second way to build a series
    comes back."""
    tree = ast.parse((ROOT / "src" / "qscheme" / "catalog.py").read_text())
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and "terminating_sum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert callers == ["_series"]


def _callers_of(name: str) -> list[str]:
    """module.qualname of the function around each call of `name` in the
    package, one entry per call, in source order."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(scope)
            visit(child, scope)

    for path in MODULES:
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_separation_is_decided_in_one_place():
    """The closed-form repeat test has one caller, the vector's _repeat, and
    each separation error is raised by the vector's check alone, plus
    dualize's guard against constant nodes: no second separation test comes
    back beside them."""
    assert _callers_of("_first_repeat") == ["core.ParameterVector._repeat"]
    assert _callers_of("HSeparationViolated") == ["core.ParameterVector.check_h_separation"]
    assert _callers_of("XSeparationViolated") == ["core.ParameterVector.check_x_separation", "symmetry.dualize"]


def test_the_newton_row_has_one_caller_per_job():
    """The benchmark's row cache, the monic polynomial and the normalized
    polynomial each build their Newton row in one place; the dual family is
    normalized_poly on the dual vector, so no second normalization or
    kernel-level dual comes back beside them."""
    assert _callers_of("_newton_row") == ["core._expansion_rows", "core.monic_poly", "core.normalized_poly"]


def test_each_sequence_is_put_over_one_denominator_in_one_place():
    """The vector's constructor puts its coefficient rows over their lcm and
    _grown extends each sequence row with _extended; the engine's kernels
    read those rows as they stand, so no kernel puts a prefix of the table
    over an lcm of its own again."""
    assert _callers_of("_over_lcm") == [
        "catalog._series", "core.ParameterVector.__post_init__", "qpolynomial.Poly.__new__",
        "qpolynomial.product_of_linear",
    ]
    assert _callers_of("_extended") == ["core.ParameterVector._grown"]


def _names_in(tree: ast.AST) -> set[str]:
    """Every identifier tree names: loaded or bound names, attributes,
    imported names, definitions and string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_only_the_catalog_decides_which_vectors_are_shared():
    """The live table and the function that fills it are the catalog's
    own: another module that wants a shared vector asks a public catalog
    function for it."""
    namers = sorted(
        path.name
        for path in (ROOT / "src" / "qscheme").glob("*.py")
        if _names_in(ast.parse(path.read_text())) & {"_live", "_LIVE"}
    )
    assert namers == ["catalog.py"]


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every module an `import` or absolute `from ... import` in tree names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_no_module_imports_dataclasses():
    """The records are NamedTuples and plain classes: `import dataclasses`
    loads inspect, ast and dis, and each @dataclass generates and execs its
    methods, which once took a third of `import qscheme`."""
    importers = sorted(
        path.name
        for path in MODULES + [ROOT / "src" / "qscheme" / "__init__.py"]
        if any(name.split(".")[0] == "dataclasses" for name in _imported_modules(ast.parse(path.read_text())))
    )
    assert importers == []


# The submodules in qscheme.__all__, sorted.
SUBMODULES = ("catalog", "classifier", "core", "errors", "laurent", "limits", "qpolynomial", "qrational", "qseries", "symmetry")


def _fresh(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter without site hooks
    (-I -S), which could load modules themselves, with src/ first on its
    path.  -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the imports from
    writing a bytecode cache under src/."""
    done = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", "import sys\nsys.path.insert(0, sys.argv[1])\n" + code, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.splitlines()


def test_import_leaves_dataclasses_and_inspect_unloaded():
    """With the CLI and verify loaded, and through verify limits, so the
    check covers the modules that once needed them."""
    code = (
        "import qscheme, qscheme.cli, qscheme.verify\n"
        "print(*(m for m in ('qscheme.limits', 'qscheme.verify') if m in sys.modules))\n"
        "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    assert _fresh(code) == ["qscheme.limits qscheme.verify", ""]


def test_import_leaves_json_unloaded():
    """Only `graph --format json` and the CLI's own JSON need it.  The star
    import loads every submodule the package re-exports, as `import qscheme`
    did before it loaded them lazily."""
    code = (
        "from qscheme import *\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qscheme.')))\n"
        "print('json' in sys.modules)\n"
    )
    assert _fresh(code) == [" ".join(f"qscheme.{name}" for name in SUBMODULES), "False"]


def test_import_loads_no_submodule_until_a_name_is_read():
    """`import qscheme` compiles nothing beyond __init__.py, and reading a
    name from core loads only core and the modules core imports."""
    code = (
        "import qscheme\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qscheme') or m == 'fractions'))\n"
        "from qscheme.core import monic_poly\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qscheme')))\n"
    )
    assert _fresh(code) == [
        "qscheme",
        "qscheme qscheme.core qscheme.errors qscheme.qpolynomial qscheme.qrational",
    ]


def test_package_names_are_pinned_and_held_by_their_home_modules():
    """Each name is the very object its home module holds, read from there
    on each access: the package keeps no copy, so a rebinding in the home
    module is what the package returns."""
    assert qscheme.__all__ == PACKAGE_ALL
    for name in PACKAGE_ALL:
        value = getattr(qscheme, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"qscheme.{name}"], name
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
    copies = [name for name, value in vars(qscheme).items() if name in PACKAGE_ALL and not isinstance(value, types.ModuleType)]
    assert copies == []
    namespace = {}
    exec("from qscheme import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PACKAGE_ALL
    assert all(value is getattr(qscheme, name) for name, value in namespace.items())
    assert set(PACKAGE_ALL) <= set(dir(qscheme))
    with pytest.raises(AttributeError, match=r"^module 'qscheme' has no attribute 'nosuch'$"):
        qscheme.nosuch


# The modules each CLI command loads, beyond qscheme and qscheme.cli, which
# imports the engine (core, errors, qpolynomial, qrational) for every command.
ENGINE = ("core", "errors", "qpolynomial", "qrational")
CATALOG = ("catalog", "classifier", "qseries", "symmetry")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["nosuch"], ENGINE),
        (["graph"], ("classifier", *ENGINE)),
        (["list"], (*CATALOG, *ENGINE)),
        (["eval", "1a"], (*CATALOG, *ENGINE)),
        (["verify", "charts", "--seed", "1"], (*CATALOG, *ENGINE, "laurent", "limits", "verify")),
    ],
    ids=["usage-error", "graph", "list", "eval", "verify"],
)
def test_each_cli_command_loads_only_the_modules_it_runs(argv, loaded):
    """Only `verify` loads verify and limits, and `graph` no catalog: the CLI
    imports each layer inside the command that runs it."""
    code = (
        "import contextlib, io\n"
        "from qscheme import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    cli.main({argv!r})\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qscheme.')))\n"
    )
    assert _fresh(code) == [" ".join(sorted(f"qscheme.{name}" for name in ("cli", *loaded)))]


# Functions of src/ that no command of test_every_function_is_entered_by_a_command_or_listed
# enters, each with why it stays; KEPT's names join them.
UNREACHED = {
    # read by name by the benchmark, until its layer metrics come from the
    # profiler (ROADMAP item 31)
    "core._expansion_rows": "bench: bench/workloads.py clears its cache and reads its hit ratio",
    "core.ParameterVector.x_separation_ok": "bench: bench/spans.py wraps it by name",
    "core.ParameterVector.check_x_separation": "bench: bench/spans.py wraps it by name",
    **{f"qpolynomial.Poly.{name}": "bench: bench/spans.py wraps it by name" for name in (
        "x", "constant", "linear", "__add__", "__neg__", "__sub__", "__rmul__", "__pow__", "deflate")},
    "catalog.hyper_eval": "bench: eval-cap's oracle (bench/workloads.py, EvalCap.oracle)",
    # error paths: only a refusal or a failing check enters them
    "errors.HSeparationViolated.__init__": "error path: an eigenvalue repeat",
    "errors.XSeparationViolated.__init__": "error path: a node repeat",
    "errors.ZeroG.__init__": "error path: a vanishing lowering value",
    "errors.RuleViolation.__init__": "error path: an inadmissible zero pattern",
    "qrational._Value.__setattr__": "error path: refuses an assignment",
    "qrational._Value.__delattr__": "error path: refuses a deletion",
    # the value protocol, for library callers, copies and pickles
    "qrational._Value.__repr__": "repr",
    "qrational._Value.__reduce__": "copy and pickle",
    "qrational._Value.__hash__": "the hash of a value without its own; no command hashes one",
    "qpolynomial.Poly.__repr__": "repr",
    "qpolynomial.Poly.__reduce__": "copy and pickle",
    "qpolynomial.Poly.__new__": "the public constructor Poly(coeffs); the engine builds through Poly._of",
    "laurent.Laurent.__eq__": "== of Laurent polynomials, which the tests compare",
    "__init__.__dir__": "dir(qscheme)",
}


def function_lines() -> dict[tuple[str, int], str]:
    """(file name, first line) -> module.qualname of every function and
    method defined in src/qscheme, nested ones included.  The first line is
    the code object's co_firstlineno: a decorated function's starts at its
    first decorator."""
    out = {}

    def visit(node: ast.AST, scope: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out[path.name, min([child.lineno, *(d.lineno for d in child.decorator_list)])] = name
                visit(child, name, path)
            else:
                visit(child, scope, path)

    for path in (ROOT / "src" / "qscheme").glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, path)
    return out


def test_every_function_is_entered_by_a_command_or_listed(tmp_path):
    """A trimmed command list, run in one fresh interpreter under
    sys.setprofile from before the package is imported, enters every
    function of src/ but those listed in UNREACHED or KEPT, and every listed
    one is still there and still not entered: a function that no command
    reaches fails here until it is deleted or listed with its reason."""
    from qscheme import catalog

    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"q": true}')
    commands = [
        ["verify", "all", "--json", str(tmp_path / "verify.json")],
        ["eval", "1a", "-q", "1/3", "--json", str(tmp_path / "eval.json")],
        *(["eval", key] for key in catalog.FAMILIES),
        ["list"],
        ["list", "--json", str(tmp_path / "list.json")],
        ["graph"],
        ["graph", "--format", "json"],
        ["graph", "--output", str(tmp_path / "scheme.dot")],
        # two refusals: argparse's, and a config value that is no rational
        ["nosuch"],
        ["--config", str(bad_config), "list"],
    ]
    code = (
        "import contextlib, io\n"
        "from pathlib import Path\n"
        "entered = set()\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call' and entered.add(frame.f_code))\n"
        "from qscheme import cli\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    for argv in {commands!r}:\n"
        "        codes.append(cli.main(argv))\n"
        "sys.setprofile(None)\n"
        "print(*codes)\n"
        "home = Path(cli.__file__).parent\n"
        "for c in entered:\n"
        "    if Path(c.co_filename).parent == home:\n"
        "        print(Path(c.co_filename).name, c.co_firstlineno)\n"
    )
    codes, *lines = _fresh(code)
    assert codes.split() == ["0"] * (len(commands) - 2) + ["2", "2"]
    functions = function_lines()
    entered = {functions.get((name, int(line))) for name, line in map(str.split, lines)}
    defined, listed = set(functions.values()), {*UNREACHED, *KEPT}
    assert not defined - entered - listed, f"functions no command enters: {sorted(defined - entered - listed)}"
    assert not listed - defined, f"listed functions that no longer exist: {sorted(listed - defined)}"
    assert not listed & entered, f"listed functions that a command enters now: {sorted(listed & entered)}"


def test_every_mutant_applies_once():
    """Each mutant of tests/mutants.py replaces text that occurs once in its
    file with different text, under a name of its own, and the test it
    names as its only killer is in the ledger: a source edit that moves a
    target fails here, not as a mutant that never applies."""
    names, ledger = [mutant.name for mutant in mutants.MUTANTS], LEDGER.read_text().splitlines()
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1 and mutant.new != mutant.old, mutant.name
        assert mutant.only in (None, *ledger), mutant.name


LEDGER = ROOT / "tests" / "data" / "test_names.txt"


def collected_test_names() -> list[str]:
    """Each test function's node id, tests/test_x.py::test_y, sorted; a
    parametrized test is one name, its function's."""
    return sorted(
        f"tests/{path.name}::{node.name}"
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
    )


def test_every_test_name_is_in_the_ledger():
    """A test removed, renamed or merged, or a new one, fails here by name
    until tests/data/test_names.txt, which no tool regenerates, is edited."""
    ledger, names = LEDGER.read_text().splitlines(), collected_test_names()
    lines = [f"removed or renamed: {name}" for name in sorted(set(ledger) - set(names))]
    lines += [f"added: {name}" for name in sorted(set(names) - set(ledger))]
    assert not lines, "\n".join([*lines, "edit tests/data/test_names.txt and name the change in CHANGES.md"])
    assert ledger == names, "tests/data/test_names.txt must list each name once, sorted"
