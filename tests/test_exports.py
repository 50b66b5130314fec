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
