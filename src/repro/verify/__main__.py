"""CLI for the differential harness.

Subcommands::

    python -m repro.verify fuzz --trials 100 --seed 0 [--engines a,b]
        [--artifact-dir DIR] [--no-shrink]
    python -m repro.verify replay ARTIFACT.json
    python -m repro.verify list

``fuzz`` exits 0 iff every trial passed every invariant; failures are shrunk
and written as replayable artifacts.  ``replay`` exits 0 iff the artifact's
violation reproduces (so a fixed bug makes the replay *fail*, flagging the
artifact as stale).  ``list`` prints the invariant catalogue and the trial
axes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifact import ReproArtifact, replay
from .fuzz import fuzz
from .generators import DEPLOYMENTS, ENGINES, LARGE_NODE_LADDER, NODE_LADDER
from .invariants import INVARIANTS


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.engines:
        engines = tuple(e.strip() for e in args.engines.split(","))
    elif args.churn is not None:
        # Churn is replayed in-flight by the DES engine only; a churn smoke
        # without an explicit engine list drives just that engine.
        engines = ("des-sensjoin",)
    else:
        engines = ENGINES
    for engine in engines:
        if engine not in ENGINES:
            print(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}", file=sys.stderr)
            return 2
    artifact_dir = Path(args.artifact_dir) if args.artifact_dir else None
    report = fuzz(
        trials=args.trials,
        seed=args.seed,
        engines=engines,
        artifact_dir=artifact_dir,
        shrink_failures=not args.no_shrink,
        progress=print,
        churn_rate=args.churn,
        large=args.large,
    )
    print(
        f"\n{report.passed}/{report.trials} trial(s) passed, "
        f"{len(report.failures)} failure(s) "
        f"(seed {report.seed}, engines {', '.join(report.engines)})"
    )
    for failure in report.failures:
        print(f"  trial {failure.trial_index}: {failure.violation}")
        if failure.artifact_path is not None:
            print(f"    artifact: {failure.artifact_path}")
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    artifact = ReproArtifact.load(Path(args.artifact))
    print(f"replaying {args.artifact}")
    print(f"  invariant: {artifact.invariant}")
    print(f"  spec:      {artifact.spec.describe()}")
    if artifact.shrink_steps:
        print(f"  shrunk via: {'; '.join(artifact.shrink_steps)}")
    outcome = replay(artifact)
    if outcome.reproduced:
        print(f"REPRODUCED: {outcome.violation}")
        return 0
    if outcome.report.violations:
        print("did not reproduce the recorded invariant, but others failed:")
        for violation in outcome.report.violations:
            print(f"  {violation}")
    else:
        print("did not reproduce — every invariant passed (artifact is stale)")
    return 1


def _cmd_list(_args: argparse.Namespace) -> int:
    print("invariants (catalogue order):")
    for invariant in INVARIANTS.values():
        print(f"  {invariant.name}")
        print(f"      {invariant.description}")
    print("\ntrial axes:")
    print(f"  engines:     {', '.join(ENGINES)}")
    print(f"  deployments: {', '.join(DEPLOYMENTS)}")
    print(f"  node counts: {', '.join(str(n) for n in NODE_LADDER)}")
    print(
        "  large ladder: "
        + ", ".join(str(n) for n in LARGE_NODE_LADDER)
        + " (--large)"
    )
    print("  relations:   self (sensors x sensors), two (rel_a x rel_b)")
    print("  faults:      node-crash, link-drop, loss-burst (des-sensjoin only)")
    print("  churn:       seeded departure/rejoin churn rate (des-sensjoin only)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential correctness harness: fuzz, replay, list.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzz = sub.add_parser("fuzz", help="run seeded trials across the matrix")
    p_fuzz.add_argument("--trials", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--engines", default="", help="comma-separated subset (default: all)"
    )
    p_fuzz.add_argument(
        "--artifact-dir", default="", help="write repro artifacts for failures here"
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failing trials"
    )
    p_fuzz.add_argument(
        "--churn",
        type=float,
        default=None,
        metavar="RATE",
        help="pin the churn departure fraction of des-sensjoin trials "
        "(restricts the engine list to des-sensjoin unless --engines is given)",
    )
    p_fuzz.add_argument(
        "--large",
        action="store_true",
        help="plan trials on the large-deployment ladder (128..2048 nodes)",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_replay = sub.add_parser("replay", help="re-run a saved repro artifact")
    p_replay.add_argument("artifact")
    p_replay.set_defaults(func=_cmd_replay)

    p_list = sub.add_parser("list", help="print the invariant catalogue")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
