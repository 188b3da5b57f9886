"""reference.py stays outside obameter: it imports and calls nothing that
computes what it defines, so a fault in the package cannot hide in its
own oracle."""

import ast
import importlib
from pathlib import Path

import pytest

REFERENCE = Path(__file__).with_name("reference.py")

# modules whose every name computes part of the chain
BARRED_MODULES = {"pipeline", "metrics"}
# functions, classes and methods elsewhere that compute it
BARRED_NAMES = {
    "consensus_training_keywords", "tag_pages", "WorldTagSource",
    "_filtered_sessions", "_matches", "_consensus_keywords",
    "score", "lc_similarity", "similar_or_exact", "neighbours", "_pair_pathlen",
    "hash_uniform", "draws_below",
}


def _barred_module(name):
    return bool(BARRED_MODULES & set(name.split(".")))


def _uses(source):
    """Each import or attribute of `source` that reaches a barred module or name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if _barred_module(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                # a name the package root re-exports counts by its home module
                home = getattr(getattr(importlib.import_module(node.module), alias.name, None),
                               "__module__", None) or ""
                if _barred_module(name) or _barred_module(home) or alias.name in BARRED_NAMES:
                    found.append(name)
        elif isinstance(node, ast.Attribute):
            if node.attr in BARRED_NAMES or node.attr in BARRED_MODULES:
                found.append(node.attr)
    return found


def test_the_reference_uses_nothing_that_computes_the_chain():
    assert _uses(REFERENCE.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("line", [
    "from obameter.pipeline import filter_retargeting",
    "import obameter.metrics",
    "from obameter import pipeline",
    "from obameter import build_audience",
    "from obameter import ttk",
    "from obameter.persona import consensus_training_keywords",
    "from obameter.corpus import tag_pages",
    "taxonomy.score(a, b)",
    "taxonomy.lc_similarity(a, b)",
    "taxonomy._pair_pathlen(a, b)",
    "experiment._filtered_sessions(corpus, filters)",
    "experiment._matches(imps, tags, k_t)",
    "obameter.metrics.quartiles(values)",
    "from obameter.seeding import derive_seed, hash_uniform",
    "seeding.hash_uniform(salt, 'spur', url, k)",
    "from obameter.seeding import draws_below",
    "seeding.draws_below(prefix, labels, bound)",
])
def test_the_check_finds_each_barred_use(line):
    assert _uses(line)
