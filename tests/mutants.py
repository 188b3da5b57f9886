"""A standing mutation check: each mutant in MUTANTS must make its tests fail.

    python tests/mutants.py

A mutant is one edit of one file under `src/obameter`: its old text, which
must occur there exactly once, replaced by its new text. For each mutant
the runner copies `src` to a temporary directory, applies the edit to the
copy and runs pytest on the mutant's tests with the copy first on
PYTHONPATH. The mutant is killed when pytest reports a failed test, and
the runner prints the first one. First it runs every mutant's tests once
on an unedited copy, which must pass, so that a kill means the edit, not
a test that fails anyway.

The runner exits 1 when a mutant survives, when its old text no longer
occurs exactly once (so the table cannot rot unseen), or when pytest ends
any other way than pass or fail, such as on a collection error. It uses
only the standard library and pytest, and pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str            # under src/obameter
    old: str
    new: str
    tests: tuple[str, ...]   # pytest arguments, relative to the checkout


MUTANTS = (
    # reading a corpus file: the field tests over all records
    Mutant(
        "float-column-without-isfinite", "corpus.py",
        "return lambda col: set(map(type, col)) <= {float} and all(map(math.isfinite, col))",
        "return lambda col: set(map(type, col)) <= {float}",
        ("tests/test_cli.py::TestStrictJson",),
    ),
    Mutant(
        "str-column-also-accepts-int", "corpus.py",
        "        kinds = {hint}\n",
        "        kinds = {hint, int}\n",
        ("tests/test_cli.py::TestAnalyze",),
    ),
    Mutant(
        "column-test-skips-the-last-record", "corpus.py",
        "list(map(operator.itemgetter(key), records))",
        "list(map(operator.itemgetter(key), records[:-1]))",
        ("tests/test_cli.py::TestAnalyze",),
    ),
    Mutant(
        "fast-path-on-a-failed-column", "corpus.py",
        "    if check and not _columns_hold(cls, records):\n"
        "        of_record = functools.partial(_record_fields, cls)\n",
        "    _columns_hold(cls, records)\n",
        ("tests/test_cli.py::TestAnalyze",),
    ),
    Mutant(
        "keyword-cache-without-the-string-check", "taxonomy.py",
        "return _normalize(text) if type(text) is str else _normalize.__wrapped__(text)",
        "return _normalize(text)",
        ("tests/test_taxonomy.py::TestNormalization",),
    ),
    # the tag draw
    Mutant(
        "uniform-over-two-to-the-64", "seeding.py",
        "    return (n >> 11) * 2.0**-53\n",
        "    return n / 2.0**64\n",
        ("tests/test_seeding.py", "tests/test_adsim.py::TestTagSources"),
    ),
    Mutant(
        "draw-at-the-bound-counts-as-below", "seeding.py",
        "        if n < bound:\n",
        "        if n <= bound:\n",
        ("tests/test_seeding.py", "tests/test_adsim.py::TestTagSources"),
    ),
    Mutant(
        "draws-read-big-endian", "seeding.py",
        'n = from_bytes(h.digest(), "little")',
        'n = from_bytes(h.digest(), "big")',
        ("tests/test_seeding.py",),
    ),
    Mutant(
        "drop-draws-under-the-spur-prefix", "adsim.py",
        'with_labels(self._hasher, "drop", url)',
        'with_labels(self._hasher, "spur", url)',
        ("tests/test_adsim.py::TestTagSources",),
    ),
    Mutant(
        "dropout-keeps-the-dropped-keywords", "adsim.py",
        "kept = [k for k in kept if k not in dropped]",
        "kept = [k for k in kept if k in dropped]",
        ("tests/test_adsim.py::TestTagSources",),
    ),
    # consensus's tree walk and its memo
    Mutant(
        "walk-memo-keyed-by-form-alone", "taxonomy.py",
        "        reached = self._reached.setdefault(reach, {})\n",
        "        reached = self._reached\n",
        ("tests/test_taxonomy.py::TestNeighbours",),
    ),
    Mutant(
        "walk-to-the-full-tree-length", "taxonomy.py",
        "forms = reached[form] = tuple(self._lengths(nodes, reach))",
        "forms = reached[form] = tuple(self._lengths(nodes, two_d))",
        ("tests/test_experiment.py::TestConsensusWork", "tests/test_taxonomy.py::TestNeighbours"),
    ),
    # the pages validate tags
    Mutant(
        "read-set-without-the-survivors-landing-pages", "experiment.py",
        "    read.update(imp.landing_page for pool in survivors.values() for imp in pool)\n",
        "",
        ("tests/test_experiment.py::TestValidate",),
    ),
    Mutant(
        "read-set-from-the-sc-survivors", "experiment.py",
        "    read.update(imp.landing_page for pool in survivors.values() for imp in pool)\n",
        "    read.update(imp.landing_page for _, _, result in\n"
        "                _filtered_sessions(corpus, filter_config)"
        ' for imp in result.by_stage["sc"])\n',
        ("tests/test_experiment.py::TestValidate",),
    ),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, tests, cwd: Path) -> subprocess.CompletedProcess:
    """pytest on `tests` from the checkout, importing obameter from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [f"{ROOT}/{test}" for test in tests]
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def _first_failure(out: str, cwd: Path) -> str:
    """The first failed test of pytest's summary `out`, as run from `cwd`,
    named from the checkout."""
    for line in out.splitlines():
        if line.startswith("FAILED "):
            path, sep, rest = line.removeprefix("FAILED ").split(" - ")[0].partition("::")
            return f"{(cwd / path).resolve().relative_to(ROOT)}{sep}{rest}"
    return "?"


def _apply(src: Path, mutant: Mutant) -> bool:
    """Edit the copy at `src`; False when the old text is not there exactly once."""
    path = src / "obameter" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def check(mutants) -> bool:
    """Whether every mutant is killed; prints one line per mutant."""
    ok = True
    with tempfile.TemporaryDirectory(prefix="obameter-mutants-") as tmp:
        base = Path(tmp)
        src = _copy_src(base / "unedited")
        found = subprocess.run(
            [sys.executable, "-c", "import obameter; print(obameter.__file__)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        ).stdout.strip()
        if not found.startswith(str(src)):
            print(f"error: obameter imports from {found or '?'}, not the copy {src}")
            return False
        tests = sorted({test for m in mutants for test in m.tests})
        result = _pytest(src, tests, base)
        if result.returncode != 0:
            print(f"error: the tests fail on the unedited source (pytest exit {result.returncode})")
            print(result.stdout[-3000:])
            return False
        for i, mutant in enumerate(mutants):
            src = _copy_src(base / f"m{i}")
            if not _apply(src, mutant):
                print(f"STALE     {mutant.name}: its old text is not once in {mutant.file}")
                ok = False
                continue
            result = _pytest(src, mutant.tests, base)
            if result.returncode == 1:
                print(f"killed    {mutant.name} by {_first_failure(result.stdout, base)}")
            elif result.returncode == 0:
                print(f"SURVIVED  {mutant.name}: {' '.join(mutant.tests)} pass")
                ok = False
            else:
                print(f"ERROR     {mutant.name}: pytest exit {result.returncode}")
                print(result.stdout[-3000:])
                ok = False
    return ok


def main() -> int:
    return 0 if check(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
