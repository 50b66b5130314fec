"""Public names: every export resolves, and the README examples run."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import bck

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


def test_every_exported_name_has_a_use_beyond_its_unit_tests():
    # a name counts as used when it appears in the package outside its own
    # definition and `__all__` entry, in README.md or in the acceptance
    # suite; `bck/__init__.py` and the unit tests do not count
    sources = [p for p in sorted((ROOT / "src" / "bck").glob("*.py")) if p.name != "__init__.py"]
    texts = {p: p.read_text() for p in sources + [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]}
    unused = []
    for info in pkgutil.iter_modules(bck.__path__):
        module = importlib.import_module(f"bck.{info.name}")
        home = Path(module.__file__)
        for name in getattr(module, "__all__", []):
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            own = len(re.findall(rf"^(?:def|class) {re.escape(name)}\b|\"{re.escape(name)}\"", texts[home], re.M))
            if sum(len(pattern.findall(text)) for text in texts.values()) <= own:
                unused.append(f"bck.{info.name}.{name}")
    assert not unused, f"exported names used only by their own unit tests: {unused}"


def test_lapack_solves_inverses_and_svds_only_in_linalg():
    # every stack goes through the small-matrix kernels of bck.linalg, which
    # alone decide when a stack needs LAPACK
    pattern = re.compile(r"np\.linalg\.(?:solve|inv|svd)\b")
    found = [
        f"{p.name}:{i}"
        for p in sorted((ROOT / "src" / "bck").glob("*.py"))
        if p.name != "linalg.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, found
