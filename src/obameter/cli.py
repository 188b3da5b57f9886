"""Command line front end.

    obameter simulate --out DIR [--manifest FILE] [overrides]
    obameter analyze DIR [--consensus-n N] [--consensus-t T]
                         [--filters SET] [--tprime T] [--cpc FILE]
    obameter filter DIR [--filters SET] [--tprime T]
    obameter validate DIR [--spurious-levels L ...] [--dropout D]
    obameter report DIR

Exit codes: 0 success, 2 configuration problems, 3 corpus data problems,
1 any other tool error. Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, CorpusDataError, ObameterError
from .experiment import (
    DEFAULT_SPURIOUS_LEVELS,
    ExperimentManifest,
    analyze,
    digest,
    filter_attrition,
    fmt,
    load_manifest,
    simulate,
    validate,
)
from .pipeline import FILTER_SETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obameter",
        description="Detect and quantify behaviourally targeted ads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="build a world and run all sessions")
    sim.add_argument("--out", required=True, help="corpus directory to write")
    sim.add_argument("--manifest", help="manifest JSON (default: built-in)")
    sim.add_argument("--seed", type=int, help="override the manifest seed")
    sim.add_argument("--budget", type=int, help="override the visit budget")
    sim.add_argument("--mean-interval", type=float, help="override the mean gap (s)")
    sim.add_argument("--repetitions", type=int, help="override the repetitions")
    sim.add_argument("--personas", type=int, help="override the default roster size")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="score a corpus into report.json/csv")
    ana.add_argument("dir", help="corpus directory")
    ana.add_argument("--consensus-n", type=int, help="corroborating sources required")
    ana.add_argument("--consensus-t", type=float, help="consensus similarity threshold")
    ana.add_argument("--filters", choices=sorted(FILTER_SETS), help="filter set to apply")
    ana.add_argument("--tprime", type=float, help="audience similarity threshold")
    ana.add_argument("--cpc", help="JSON file mapping persona id to ad price")
    ana.set_defaults(func=_cmd_analyze)

    fil = sub.add_parser("filter", help="print per-session filter attrition")
    fil.add_argument("dir", help="corpus directory")
    fil.add_argument("--filters", choices=sorted(FILTER_SETS))
    fil.add_argument("--tprime", type=float)
    fil.set_defaults(func=_cmd_filter)

    val = sub.add_parser("validate", help="score detection against ground truth")
    val.add_argument("dir", help="corpus directory (needs world.json)")
    val.add_argument(
        "--spurious-levels", type=float, nargs="+",
        default=list(DEFAULT_SPURIOUS_LEVELS),
        help="spurious tag rates to sweep",
    )
    val.add_argument("--dropout", type=float, help="fixed dropout rate")
    val.set_defaults(func=_cmd_validate)

    rep = sub.add_parser("report", help="print a digest of the stored reports")
    rep.add_argument("dir", help="corpus directory")
    rep.set_defaults(func=_cmd_report)
    return parser


def _given(**flags) -> dict:
    """The flags that were given (not None), by the key each one sets."""
    return {name: value for name, value in flags.items() if value is not None}


def _cmd_simulate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest) if args.manifest else ExperimentManifest()
    if args.personas is not None and manifest.personas:
        raise ConfigurationError(
            "--personas sets the default roster size, but the manifest "
            "lists its personas explicitly"
        )
    session = dataclasses.replace(manifest.session, **_given(
        visit_budget=args.budget, mean_interval=args.mean_interval,
    ))
    manifest = dataclasses.replace(manifest, session=session, **_given(
        seed=args.seed, repetitions=args.repetitions, n_personas=args.personas,
    ))
    summary = simulate(manifest, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(
        args.dir,
        consensus=_given(n=args.consensus_n, threshold=args.consensus_t),
        filters=_given(enabled=args.filters, t_prime=args.tprime),
        cpc_path=args.cpc,
    )
    root = Path(args.dir)
    print(f"scored {len(report['cells'])} cells "
          f"({len(report['personas'])} personas, {len(report['sources'])} sources)")
    print(f"wrote {root / 'report.json'} and {root / 'report.csv'}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    rows = filter_attrition(
        args.dir, filters=_given(enabled=args.filters, t_prime=args.tprime)
    )
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    result = validate(
        args.dir, spurious_levels=args.spurious_levels, dropout=args.dropout
    )
    for level in result["levels"]:
        agg = level["aggregate"]
        print(
            f"spurious {level['spurious']:<6} recall {fmt(agg['recall'], 4)} "
            f"accuracy {fmt(agg['accuracy'], 4)} fpr {fmt(agg['fpr'], 4)}"
        )
    print("clean profile pure: " + ("yes" if result["clean_profile_pure"] else "NO"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    sys.stdout.write(digest(args.dir))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CorpusDataError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 3
    except ObameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
