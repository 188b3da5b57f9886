"""Run one obameter benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload harvest --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all

A run starts a few fresh single-threaded Python processes (worker.py) that
only set up, to time the set-up, and then one more that sets up and repeats
rounds until `--seconds` is used up. A round runs `simulate` into a fresh
empty directory, `analyze` once per grid entry and `validate` once,
through the public obameter API. A fixed reference loop is timed just
before and just after every command. Each command counts with the median
over the rounds of its contention-corrected time (see command_metrics),
so `analyze_s` is the sum of that of each `analyze` call; `setup_s` is
the median corrected time over the set-ups. stderr also shows per-round
quartiles, the uncorrected medians and the reference-loop times. The seed
goes only into the generated manifest.

With `--trace 0` the metrics are the end-to-end command times, set-up
time and peak RSS. With `--trace 1` untraced and traced rounds alternate:
the metrics are the per-layer spans and counts of the traced rounds plus
the tracing overhead (traced minus untraced command time).

Every round's outputs are checked (see worker.py); at a workload's default
seed the sha256 of every file it writes must also match digests.json, and
all rounds of a run, traced or not, must write identical files. A
human-readable summary goes to stderr. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; `failed` counts commands
that raised or failed a check, so error_rate = failed / attempted. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "validate_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("simulate_s", "analyze_s", "validate_s")
SETUP_PROBES = 3               # set-up-only processes before the round process
MIN_ROUNDS = 3                 # rounds, or untraced+traced pairs with --trace 1
HARD_LIMIT_S = 150.0           # a run measures for at most this long
# The reference loop's time when nothing else slows it down: its fastest
# over all runs on the 2-vCPU Xeon (family 6, model 207) KVM machine the
# benchmark was built on. Corrected times are in seconds at that speed.
REFERENCE_PACE_S = 3.3e-3


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("corpus.bytes_"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # outputs never depend on string hashing, but set iteration order decides
    # how many similarity tests consensus makes before it stops early
    env["PYTHONHASHSEED"] = "0"
    return env


def warm_up(env: dict[str, str]) -> None:
    """Import once untimed so bytecode and the file cache are warm."""
    if not (SOURCE / "obameter" / "__init__.py").is_file():
        sys.exit(f"benchmark: no obameter sources under {SOURCE}")
    proc = subprocess.run(
        [sys.executable, "-c", "import obameter; print(obameter.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    found = proc.stdout.strip()
    if proc.returncode != 0 or Path(found).resolve().parent != SOURCE / "obameter":
        sys.exit(f"benchmark: cannot import obameter from {SOURCE}: {proc.stderr.strip()}")


class WorkerFailed(Exception):
    pass


def start_worker(spec: dict, env: dict[str, str], timeout: float) -> dict:
    """Run worker.py on `spec` and return its result line."""
    spec = dict(spec, spawned_ns=time.monotonic_ns())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, trace: int, seconds: int) -> dict:
    """Set-up probes, then one process that repeats rounds until `seconds` is spent.

    Returns the set-up times, the round process's peak RSS and its rounds;
    a process that crashed becomes a round that failed every command it
    would have run.
    """
    env = worker_env()
    warm_up(env)
    start = time.monotonic()
    budget = min(seconds, HARD_LIMIT_S)

    def timeout() -> float:
        return max(1.0, start + HARD_LIMIT_S + 20 - time.monotonic())

    spec = {"workload": name, "seed": seed, "trace": trace}
    setups: list[dict] = []
    failed: list[dict] = []
    for _ in range(SETUP_PROBES):
        try:
            setups.append(start_worker(spec, env, timeout()))
        except WorkerFailed as exc:
            failed.append({"failures": {"setup": [str(exc)]}})
    workload = WORKLOADS[name]
    planned = ["simulate"] + [f"analyze.{i:02d}" for i in range(len(workload.analyses))]
    planned.append("validate")
    WORK.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    spec.update(out=out, min_rounds=MIN_ROUNDS, deadline_ns=int((start + budget) * 1e9))
    result = {"peak_rss_mb": None, "fastest_pace": None, "rounds": []}
    try:
        result = start_worker(spec, env, timeout())
        setups.append(result)
    except WorkerFailed as exc:
        failed.append({"failures": {command: [str(exc)] for command in planned}})
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for record in failed:
        record.update(crashed=True, trace=trace, seconds={}, digests={})
    return {
        "setup": [(r["setup_s"], r["setup_pace"]) for r in setups],
        "fastest_pace": result["fastest_pace"],
        "peak_rss_mb": result["peak_rss_mb"],
        "rounds": result["rounds"] + failed,
    }


def check_digests(name: str, seed: int, rounds: list[dict], record: bool) -> None:
    """Add a failure for every output file that differs from the reference."""
    golden = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entry = golden.get(name)
    intact = [r for r in rounds if not r.get("crashed")]
    if not intact:
        return
    reference, origin = intact[0]["digests"], "the run's first round"
    if record:
        if any(r["failures"] for r in rounds):
            sys.exit("benchmark: not recording digests from a run with failures")
        golden[name] = {"seed": seed, "files": reference}
        DIGESTS.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    elif entry is not None and entry["seed"] == seed:
        reference, origin = entry["files"], "digests.json"
    for round_ in intact:
        got = round_["digests"]
        for key in sorted(set(reference) | set(got)):
            if reference.get(key) != got.get(key):
                command = key.split("/")[0]
                round_["failures"].setdefault(command, []).append(
                    f"{key} differs from {origin}"
                )


def layer_value(round_: dict, metric: str) -> float:
    """A traced round's layer metric; times are corrected like command times."""
    value = round_["layers"][metric]
    if layer_unit(metric) != "s":
        return value
    return value * REFERENCE_PACE_S / statistics.mean(round_["pace"].values())


def command_metrics(rounds: list[dict], corrected: bool = True) -> dict[str, float]:
    """`simulate_s`, `analyze_s`, `validate_s` and `total_s` over the rounds.

    Each command (`simulate`, every `analyze.NN` call, `validate`) counts
    with the median over the rounds of its contention-corrected time:
    its wall time times `REFERENCE_PACE_S / pace`, where `pace` is the
    mean reference-loop time just before and just after the command.
    Other tenants of a shared machine slow the whole process down, the
    reference loop with it, in phases that can outlast a run; the
    correction takes most of that out, so runs made at busy and quiet
    times agree.
    """
    times: dict[str, list[float]] = {}
    for round_ in rounds:
        for command, seconds in round_["seconds"].items():
            scale = REFERENCE_PACE_S / round_["pace"][command] if corrected else 1.0
            times.setdefault(command, []).append(seconds * scale)
    out = dict.fromkeys(COMMANDS, 0.0)
    for command, seconds in times.items():
        out[command.split(".")[0] + "_s"] += statistics.median(seconds)
    out["total_s"] = sum(out.values())
    return out


def summarize(name: str, seed: int, trace: int, run: dict) -> dict:
    rounds = run["rounds"]
    attempted = sum(len(r["seconds"].keys() | r["failures"].keys()) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    plain = [r for r in rounds if not r.get("crashed") and not r["trace"]]
    traced = [r for r in rounds if not r.get("crashed") and r["trace"]]
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    samples: dict[str, list[float]] = {}    # per round, for the stderr summary
    raw: dict[str, float] = {}              # the same statistic, uncorrected
    if not trace and plain and run["setup"]:
        values.update(command_metrics(plain))
        raw.update(command_metrics(plain, corrected=False))
        for round_ in plain:
            for metric, value in command_metrics([round_]).items():
                samples.setdefault(metric, []).append(value)
        samples["setup_s"] = [s * REFERENCE_PACE_S / pace for s, pace in run["setup"]]
        values["setup_s"] = statistics.median(samples["setup_s"])
        raw["setup_s"] = statistics.median(s for s, _ in run["setup"])
        values["peak_rss_mb"] = run["peak_rss_mb"]
        units = dict(END_TO_END)
    elif trace and traced:
        for metric in traced[0]["layers"]:
            samples[metric] = [layer_value(r, metric) for r in traced]
            values[metric] = statistics.median(samples[metric])
            units[metric] = layer_unit(metric)
        if plain:
            with_trace = command_metrics(traced)
            without = command_metrics(plain)
            for metric in (*COMMANDS, "total_s"):
                values["trace.overhead_" + metric] = with_trace[metric] - without[metric]
                units["trace.overhead_" + metric] = "s"

    paces = [pace for r in plain + traced for pace in r["pace"].values()]
    print(
        f"workload {name}  seed {seed}  trace {trace}  rounds {len(plain)} untraced, "
        f"{len(traced)} traced; {len(run['setup'])} set-ups",
        file=sys.stderr,
    )
    if paces:
        print(
            f"  reference loop: fastest {run['fastest_pace'] * 1e3:.3f} ms, median "
            f"around commands {statistics.median(paces) * 1e3:.3f} ms, "
            f"reference {REFERENCE_PACE_S * 1e3:.3f} ms",
            file=sys.stderr,
        )
    for metric in units:
        value = values[metric]
        spread = ""
        if len(samples.get(metric, ())) > 1:
            q1, q2, q3 = statistics.quantiles(samples[metric], n=4)
            spread = f"median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples[metric])}"
        if metric in raw:
            spread += f"  uncorrected {raw[metric]:.6g}"
        print(f"  {metric:<30} {value:>14.6g} {units[metric]:<6} {spread}", file=sys.stderr)
    print(
        f"  {'error_rate':<30} {failed / attempted:>14.6g} ratio  "
        f"({failed} of {attempted} commands failed)",
        file=sys.stderr,
    )
    reports = [
        f"  FAIL round {i} {command}: {reason}"
        for i, round_ in enumerate(rounds)
        for command, reasons in sorted(round_["failures"].items())
        for reason in reasons
    ]
    for line in reports[:10]:
        print(line, file=sys.stderr)
    if len(reports) > 10:
        print(f"  ... {len(reports) - 10} more failures", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help=f"default {DEFAULT_SEED}")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's output digests as the workload's reference",
    )
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so the running worker is killed and its
    # directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        if args.record_digests and seed != DEFAULT_SEED:
            parser.error("--record-digests needs the workload's default seed")
        run = run_workload(name, seed, args.trace, args.seconds)
        check_digests(name, seed, run["rounds"], args.record_digests)
        results[name] = summarize(name, seed, args.trace, run)

    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
