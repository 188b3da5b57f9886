"""One benchmark process: set up, then repeat rounds until a deadline.

Usage: worker.py '{"workload": ..., "seed": ..., "out": ..., "trace": 0|1,
"spawned_ns": ..., "deadline_ns": ..., "min_rounds": ...}'

`spawned_ns` is the parent's time.monotonic_ns() just before it started
this process, so `setup_s` runs from process start until the first
command can run. Without `deadline_ns` the process only sets up. With it,
the process repeats rounds until the next round would end after
`deadline_ns` (and at least `min_rounds` times). A round runs `simulate`
into a fresh empty directory, the workload's `analyze` calls and
`validate`, checks their outputs and removes the directory. With `trace`
1, untraced and traced rounds alternate.

A fixed reference loop (`Pace`) runs just before and just after every
command, and twice just after the set-up, so run.py can tell how fast
the shared machine ran at that moment. The last line of standard output
is one JSON object with the set-up time and its pace, peak RSS, the
fastest reference-loop time and, per round,
the command times and paces, the sha256 of every file the round wrote,
the output checks that failed and, when traced, the per-layer metrics.
"""

import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans


class Pace:
    """A fixed loop of the kind of work obameter does: JSON, dicts, strings.

    Its time is only a gauge of how fast the machine runs at the moment;
    it never touches obameter. `fastest` is its smallest time so far.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.records = [
            {
                "url": f"http://site{rng.randrange(400)}.example/page/{i}",
                "keywords": [f"kw{rng.randrange(300)}" for _ in range(4)],
                "n": i,
            }
            for i in range(1200)
        ]
        self.fastest = float("inf")
        self._loop()    # the first call is slower: its caches are cold

    def _loop(self) -> int:
        hosts: dict[str, set[str]] = {}
        for rec in json.loads(json.dumps(self.records)):
            host = rec["url"].split("/")[2]
            for kw in rec["keywords"]:
                hosts.setdefault(kw, set()).add(host)
        return len(sorted(hosts, key=lambda kw: (len(hosts[kw]), kw)))

    def seconds(self) -> float:
        start = time.perf_counter()
        self._loop()
        elapsed = time.perf_counter() - start
        self.fastest = min(self.fastest, elapsed)
        return elapsed


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_files(root: Path, names, prefix: str) -> dict[str, str]:
    return {f"{prefix}/{name}": sha256(root / name) for name in sorted(names)}


def check_simulate(root: Path) -> list[str]:
    """Each session's summed ntimes equals its raw_served count."""
    sessions = json.loads((root / "sessions.json").read_text(encoding="utf-8"))["sessions"]
    served: dict[str, int] = {}
    with (root / "impressions.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            served[rec["session"]] = served.get(rec["session"], 0) + rec["ntimes"]
    errors = [
        f"{row['session']}: ntimes {served.get(row['session'], 0)} != raw_served {row['raw_served']}"
        for row in sessions
        if served.get(row["session"], 0) != row["raw_served"]
    ]
    if not sessions:
        errors.append("no sessions")
    return errors


_STAGES = ("input", "after_retargeting", "after_static_contextual", "after_demo_geo")


def check_analyze(report: dict) -> list[str]:
    """Stage attrition never increases."""
    errors = []
    for entry in report["attrition"]:
        counts = [entry["attrition"][s] for s in _STAGES if s in entry["attrition"]]
        if any(b > a for a, b in zip(counts, counts[1:])):
            errors.append(f"{entry['session']}: attrition grows {counts}")
    if not report["cells"]:
        errors.append("no cells scored")
    return errors


def check_validate(result: dict) -> list[str]:
    """Zero noise is exact and the clean profile is pure."""
    errors = []
    if not result["clean_profile_pure"]:
        errors.append("clean profile received oba or retargeting ads")
    for level in result["levels"]:
        if level["spurious"] == 0.0 and level["dropout"] == 0.0:
            agg = level["aggregate"]
            if (agg["recall"], agg["fpr"], agg["accuracy"]) != (1.0, 0.0, 1.0):
                errors.append(f"zero-noise detection not exact: {agg}")
            break
    else:
        errors.append("no zero-noise level")
    return errors


def run_round(workload, manifest, root: Path, tracer, pace: Pace) -> dict:
    """simulate, analyze and validate once into `root`; times, digests, failures.

    `pace[command]` is the mean reference-loop time just before and just
    after the command.
    """
    import obameter
    from obameter import ConsensusConfig, FilterConfig

    seconds: dict[str, float] = {}     # command -> wall time, in call order
    paces: dict[str, float] = {}
    digests: dict[str, str] = {}
    failures: dict[str, list[str]] = {}

    def run(command: str, call, check):
        before = pace.seconds()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising command counts as failed
            failures[command] = [f"{type(exc).__name__}: {exc}"]
            return None
        finally:
            seconds[command] = time.perf_counter() - start
            paces[command] = (before + pace.seconds()) / 2
        errors = check(result)
        if errors:
            failures[command] = errors
        return result

    if run("simulate", lambda: obameter.simulate(manifest, root), lambda r: check_simulate(root)):
        digests.update(digest_files(root, [p.name for p in root.iterdir()], "simulate"))
        for i, analysis in enumerate(workload.analyses):
            kwargs = {}
            if analysis.filters is not None:
                kwargs = {
                    "filters": FilterConfig(filters=analysis.filters, t_prime=analysis.t_prime),
                    "consensus": ConsensusConfig(n=analysis.consensus_n),
                }
            command = f"analyze.{i:02d}"
            if run(command, lambda: obameter.analyze(root, **kwargs), check_analyze):
                digests.update(digest_files(root, ["report.json", "report.csv"], command))
        levels = list(workload.spurious_levels)
        if run("validate", lambda: obameter.validate(root, spurious_levels=levels), check_validate):
            digests.update(digest_files(root, ["performance.json"], "validate"))
    out = {
        "trace": int(tracer is not None),
        "seconds": seconds,
        "pace": paces,
        "failures": failures,
        "digests": digests,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    import obameter
    from obameter import ExperimentManifest

    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    taxonomy = obameter.demo_taxonomy()
    manifest = ExperimentManifest.from_dict(workload.manifest(spec["seed"], taxonomy))
    setup_s = (time.monotonic_ns() - spec["spawned_ns"]) / 1e9
    pace = Pace()
    setup_pace = (pace.seconds() + pace.seconds()) / 2

    rounds: list[dict] = []
    round_ns: list[int] = []
    deadline = spec.get("deadline_ns")
    while deadline is not None:
        # every round starts from a collected heap, as the first one does
        gc.collect()
        began = time.monotonic_ns()
        tracer = spans.Tracer() if spec["trace"] and len(rounds) % 2 else None
        restore = spans.install(tracer) if tracer is not None else None
        root = Path(spec["out"]) / f"round-{len(rounds):03d}" / "corpus"
        try:
            rounds.append(run_round(workload, manifest, root, tracer, pace))
        finally:
            if restore is not None:
                restore()
            shutil.rmtree(root.parent, ignore_errors=True)
        now = time.monotonic_ns()
        round_ns.append(now - began)
        pairs = len(rounds) // (2 if spec["trace"] else 1)
        if pairs >= spec["min_rounds"] and now + statistics.median(round_ns) > deadline:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(
        {
            "setup_s": setup_s,
            "setup_pace": setup_pace,
            "fastest_pace": pace.fastest if rounds else None,
            "peak_rss_mb": peak_kb / 1024,
            "rounds": rounds,
        },
        sort_keys=True,
    ))


if __name__ == "__main__":
    main()
