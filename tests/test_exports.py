"""Public names: every export resolves, and the README examples run."""

import ast
import importlib
import pkgutil
import re
import tokenize
from pathlib import Path

import bck
import bck.cli

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(bck.__path__):
        module = importlib.import_module(f"bck.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, f"bck.{info.name}.__all__ names missing objects: {missing}"
    tree = ast.parse(Path(bck.__file__).read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported and all(hasattr(bck, name) for name in imported)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", quick_start, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block reuses the first one's names
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["theta"].form.r11.shape == (1, 1, 3, 1, 1)
    one = namespace["theta"].at(0)
    assert isinstance(one, bck.CurvatureField) and one.form.r11.shape == (1, 1, 1, 1)


def test_readme_task_bullets_name_the_run_tasks_and_the_retired_one():
    # the "Config schema" bullets describe exactly the tasks a run has, and
    # the retired `compatibility` task is under "Removed names" with what
    # replaces it: the two tasks that gate it, and the (2,0) norm that was
    # compatibility_field's `structure` residual
    readme = (ROOT / "README.md").read_text()
    tasks = readme.split("\nTasks:\n\n", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"^\* `(\w+)` — ", tasks, flags=re.M)) == sorted(bck.cli.TASK_ORDER)
    removed = re.split(r"\n(?=\* )", readme.split("### Removed names\n", 1)[1].split("\n## ", 1)[0])
    task = next(entry for entry in removed if entry.startswith("* the `compatibility` task"))
    assert "runs `connection` and `curvature`" in task
    structure = next(entry for entry in removed if entry.startswith("* `compatibility_field(conn, structure)`"))
    assert "`np.linalg.norm(nested.form.c20, axis=(-2, -1)).max(axis=(0, 1))`" in structure


# exported names with no use in code, kept for a stated reason
KEPT_WITHOUT_USE = {}


def _code_names(path: Path) -> list[str]:
    """The identifiers of a Python file's code: docstrings and comments are
    string and comment tokens, so they do not count."""
    with path.open("rb") as handle:
        return [tok.string for tok in tokenize.tokenize(handle.readline) if tok.type == tokenize.NAME]


def test_every_exported_name_has_a_use_beyond_its_unit_tests():
    # a name counts as used when it appears in the code of the package
    # outside its own definition, in README.md or in the code of the
    # acceptance suite; `bck/__init__.py`, docstrings, comments and the
    # unit tests do not count
    sources = [p for p in sorted((ROOT / "src" / "bck").glob("*.py")) if p.name != "__init__.py"]
    names = [name for p in sources + [ROOT / "tests" / "test_acceptance.py"] for name in _code_names(p)]
    readme = (ROOT / "README.md").read_text()
    uses = {}
    for info in pkgutil.iter_modules(bck.__path__):
        module = importlib.import_module(f"bck.{info.name}")
        for name in getattr(module, "__all__", []):
            in_readme = len(re.findall(rf"\b{re.escape(name)}\b", readme))
            uses[name] = names.count(name) - 1 + in_readme  # less its definition
    unused = [name for name, count in uses.items() if count <= 0 and name not in KEPT_WITHOUT_USE]
    assert not unused, f"exported names used only by their own unit tests: {unused}"
    stale = [name for name in KEPT_WITHOUT_USE if uses[name] > 0]
    assert not stale, f"names kept without a use have one now: {stale}"


def _source_lines(pattern: re.Pattern, skip: str | None = None) -> list[str]:
    """file:line of every line of the package's modules that matches."""
    return [
        f"{p.name}:{i}"
        for p in sorted((ROOT / "src" / "bck").glob("*.py"))
        if p.name != skip
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_lapack_solves_inverses_and_svds_only_in_linalg():
    # every stack goes through the small-matrix kernels of bck.linalg, which
    # alone decide when a stack needs LAPACK
    found = _source_lines(re.compile(r"np\.linalg\.(?:solve|inv|svd)\b"), skip="linalg.py")
    assert not found, found


def test_stack_adjoints_norms_and_eigenvectors_only_in_linalg():
    # bck.linalg owns the algebra of small-matrix stacks: its `adjoint` is
    # the one conjugate transpose, its `norms` the one per-matrix Frobenius
    # norm, and its `eigvalsh` takes every spectrum of a stack; no module
    # asks LAPACK for eigenvectors.  Vector norms are not matrix norms.
    pattern = re.compile(
        r"np\.linalg\.eigh\b"
        r"|\.conj\(\)\.T\b"
        r"|^(?=.*\bconj\b)(?=.*\bswapaxes\b).*(?:-1, -2|-2, -1)"
        r"|np\.linalg\.norm\(.*axis=\((?:-2, -1|-1, -2)\)"
    )
    found = _source_lines(pattern, skip="linalg.py")
    assert not found, found


def test_the_environment_sets_nothing():
    # the config alone says what a run computes and the command line where
    # it writes; no module reads an environment variable
    found = _source_lines(re.compile(r"\bos\.(?:environ|getenv)\b|\bgetenv\("))
    assert not found, found


def test_complex_normal_draws_only_in_linalg():
    # one rule draws complex normals, real parts first: linalg.complex_normal
    found = _source_lines(re.compile(r"standard_normal\(.*\)\s*\+\s*1j\s*\*"), skip="linalg.py")
    assert not found, found


def test_sampled_bilinear_maps_have_one_class():
    # forms.BilinearSamples holds the probe tensor; no module keeps a copy
    found = _source_lines(re.compile(r"^class BilinearSamples\b"))
    assert [f.split(":")[0] for f in found] == ["forms.py"], found
    assert not _source_lines(re.compile(r"\bdef probe_tensor\b"))


def _raises_structural_error(statements) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "StructuralError"
        for statement in statements
        for node in ast.walk(statement)
    )


def test_no_gate_compares_before_it_raises():
    # `if residual > tol: raise` lets a NaN residual through; a tolerance
    # gate is `errors.require(residual <= tol, ...)`, which a NaN fails
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "bck").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and any(isinstance(op, ordering) for op in node.test.ops)
        and _raises_structural_error(node.body)
    ]
    assert not found, found


# the builtin max and min calls of src/bck, none of which reduces residuals:
# the builtin drops a NaN (max(0.0, nan) is 0.0), so a reported or gated
# maximum is one numpy reduction, which carries it
BUILTIN_MAX_MIN = sorted([
    # integer arithmetic: chunk sizes, exit codes, ndims, sample counts, widths
    ("chern", "max(1, _ROWS // rows_per_point)"),
    ("chern", "max(count, 1)"),
    ("cli", "max(exit_code, code)"),
    ("cli", "max(exit_code, int(not passed))"),
    ("cli", "min(wanted - len(pts), 1000 * wanted - drawn)"),
    ("kernels", "max(1, _GRAM_TILE // n)"),
    ("kernels", "max(z.ndim, w.ndim)"),
    ("kernels", "max(4, n + 2)"),
    ("linalg", "max(count, self._NORMALS)"),
    # step sizes: FdSteps.max_step and the Stencil radius
    ("chern", "max(self.first, self.second)"),
    ("forms", "max(self.radius, 2.0 * float(max(steps[k], steps[j])))"),
    ("forms", "max(steps[k], steps[j])"),
    # scale floors
    ("forms", "max(1.0, samples.norm())"),
    ("kernels", "max(1.0, np.sqrt(norm))"),
    ("positivity", "max(1.0, psi.norm())"),
    ("positivity", "max(1.0, skew.norm())"),
    ("positivity", "max(1.0, frob(theta.form.r11))"),
])


def test_builtin_max_and_min_reduce_no_residual():
    found = sorted(
        (path.stem, ast.unparse(node))
        for path in sorted((ROOT / "src" / "bck").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("max", "min")
    )
    assert found == BUILTIN_MAX_MIN


def test_tasks_reduce_grid_fields_only_through_extremes():
    # a task reports a maximum or minimum over grid points through
    # cli._extremes, which names the point that holds it; a per-point
    # `.max(axis=...)` over form indices is not such a reduction
    tree = ast.parse((ROOT / "src" / "bck" / "cli.py").read_text())
    found = [
        f"{task.name}: {ast.unparse(node)}"
        for task in tree.body
        if isinstance(task, ast.FunctionDef) and task.name.startswith("_task_")
        for node in ast.walk(task)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "np" and node.func.attr in ("max", "min", "argmax", "argmin")
    ]
    assert not found, found


def test_tasks_compare_with_a_tolerance_only_through_the_gate_rule():
    # every task decision is a row of cli._GATES, which cli._decide alone
    # compares with the run's tolerance and records under the task's
    # `gates`; a comparison with a tolerance anywhere else in cli.py is a
    # decision the gate records would miss
    tree = ast.parse((ROOT / "src" / "bck" / "cli.py").read_text())
    inside = {id(node) for rule in tree.body if isinstance(rule, ast.FunctionDef) and rule.name == "_decide"
              for node in ast.walk(rule)}
    found = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in inside
        and any("tol" in ast.unparse(operand) for operand in (node.left, *node.comparators))
    ]
    assert not found, found


def test_csv_cells_are_not_formatted_one_by_one():
    # the tables are written from the converted report, a column at a time
    assert "repr(float(" not in (ROOT / "src" / "bck" / "cli.py").read_text()


# record fields with no reader, kept for a stated reason
KEPT_UNREAD = {
    "Lemma51Report.details": "the measured margins behind its four flags, shown by the record's "
    "repr when test_lemma51_seeded_agreement fails",
}


def _attribute_reads(path: Path) -> set[str]:
    """The names read as attributes, `.name`, in the code of a Python file;
    docstrings and comments do not count."""
    with path.open("rb") as handle:
        tokens = [tok for tok in tokenize.tokenize(handle.readline) if tok.type in (tokenize.OP, tokenize.NAME)]
    return {name.string for dot, name in zip(tokens, tokens[1:]) if dot.string == "." and name.type == tokenize.NAME}


def test_every_record_field_is_read():
    # each field of each result class is read as an attribute, `.field`, in
    # the package, the tests or README: a field that nothing reads restates
    # or hides a result
    code = sorted((ROOT / "src" / "bck").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    reads = set().union(*map(_attribute_reads, code))
    readme = (ROOT / "README.md").read_text()
    unread = {
        f"{cls.__name__}.{name}"
        for info in pkgutil.iter_modules(bck.__path__)
        for cls in vars(importlib.import_module(f"bck.{info.name}")).values()
        if isinstance(cls, type) and issubclass(cls, bck.forms.Record) and cls.__module__ == f"bck.{info.name}"
        for name in cls.__dict__.get("__annotations__", {})
        if name not in reads and not re.search(rf"\.{name}\b", readme)
    }
    assert sorted(unread - set(KEPT_UNREAD)) == []
    stale = sorted(set(KEPT_UNREAD) - unread)
    assert not stale, f"fields kept unread have a reader now: {stale}"
