"""The package root exports exactly what README documents."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import obameter

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```.*?^```", re.M | re.S)


def _inline_spans() -> list[str]:
    """README's inline code spans; fenced blocks go first, as their
    backticks would pair with the spans around them."""
    return re.findall(r"`([^`]+)`", FENCED.sub("", README))


def _traced_modules() -> set[str]:
    """The modules whose functions benchmarks/spans.py wraps, reached there
    as attributes of the package."""
    tree = ast.parse((ROOT / "benchmarks" / "spans.py").read_text(encoding="utf-8"))
    modules = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED") for t in node.targets
        ):
            for targets in ast.literal_eval(node.value).values():
                modules |= {module for module, _ in targets}
    return modules


def test_all_is_every_public_name_the_package_binds():
    assert len(obameter.__all__) == len(set(obameter.__all__))
    bound = {
        name for name, value in vars(obameter).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound ^ set(obameter.__all__)) == []


def test_every_export_is_documented_in_an_inline_span():
    words = {w for span in _inline_spans() for w in re.findall(r"[A-Za-z_]\w*", span)}
    assert sorted(set(obameter.__all__) - words) == []


def test_every_readme_import_and_dotted_name_resolves():
    imports = [
        (module, name.split(" as ")[0].strip())
        for block in FENCED.findall(README)
        for module, names in re.findall(r"^from (obameter[\w.]*) import ([^\n]+)$", block, re.M)
        for name in names.strip("()").split(",") if name.strip()
    ]
    assert imports, "README shows no import from the package"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"from {module} import {name}"
    dotted = {d for span in _inline_spans() for d in re.findall(r"\bobameter(?:\.\w+)+", span)}
    assert {"obameter.cli.main", "obameter.errors", "obameter.seeding"} <= dotted
    for name in sorted(dotted):
        pkgutil.resolve_name(name)


def test_import_binds_every_module_the_benchmark_traces():
    # a fresh interpreter, so no other test's imports bind a module first
    code = (
        "import types, obameter; "
        "print(*(n for n, v in vars(obameter).items() if isinstance(v, types.ModuleType)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(obameter.__file__).parents[1])}
    bound = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    traced = _traced_modules()
    assert traced >= {"adsim", "corpus", "experiment", "metrics", "persona",
                      "pipeline", "seeding", "session", "taxonomy"}
    assert sorted(traced - set(bound)) == []
