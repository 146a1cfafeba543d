"""The fuzz loop: plan trials, execute, check invariants, shrink failures.

Deterministic end to end — ``fuzz(trials, seed)`` derives the same trial
matrix, the same worlds and the same verdicts on every run (that determinism
is itself one of the invariants under test).  Failures are shrunk to minimal
specs and written as replayable JSON artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from .artifact import ReproArtifact
from .generators import ENGINES, TrialSpec, plan_trials
from .invariants import Violation
from .runner import TrialReport, run_trial
from .shrink import ShrinkResult, shrink

__all__ = ["FuzzFailure", "FuzzReport", "fuzz"]


@dataclass
class FuzzFailure:
    """One failing trial, after shrinking."""

    trial_index: int
    spec: TrialSpec
    violation: Violation
    shrunk: Optional[ShrinkResult] = None
    artifact_path: Optional[Path] = None

    @property
    def minimal_spec(self) -> TrialSpec:
        return self.shrunk.spec if self.shrunk is not None else self.spec


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    trials: int
    seed: int
    engines: Sequence[str]
    passed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    trials: int,
    seed: int,
    engines: Sequence[str] = ENGINES,
    artifact_dir: Optional[Path] = None,
    shrink_failures: bool = True,
    execute: Callable[[TrialSpec], TrialReport] = run_trial,
    progress: Optional[Callable[[str], None]] = None,
    churn_rate: Optional[float] = None,
    large: bool = False,
) -> FuzzReport:
    """Run ``trials`` seeded trials; shrink and save every failure.

    ``execute`` is injectable for tests (e.g. to count executions); the
    default runs real trials.  ``progress`` receives one line per trial.
    ``churn_rate`` pins the churn axis of every ``des-sensjoin`` trial
    (``None`` leaves it to the planner's random draw), and ``large=True``
    plans trials on the 2k-node large-deployment ladder.
    """
    say = progress if progress is not None else lambda line: None
    report = FuzzReport(trials=trials, seed=seed, engines=tuple(engines))
    specs = plan_trials(trials, seed, engines, churn_rate=churn_rate, large=large)
    for index, spec in enumerate(specs):
        trial_report = execute(spec)
        if trial_report.passed:
            report.passed += 1
            say(f"trial {index:3d} ok    {spec.describe()}")
            continue
        violation = trial_report.first
        say(f"trial {index:3d} FAIL  {spec.describe()}")
        say(f"          {violation}")
        failure = FuzzFailure(trial_index=index, spec=spec, violation=violation)
        if shrink_failures:
            failure.shrunk = shrink(trial_report, execute=execute)
            if failure.shrunk.steps:
                say(
                    f"          shrunk in {failure.shrunk.attempts} attempt(s): "
                    f"{failure.shrunk.spec.describe()}"
                )
        if artifact_dir is not None:
            artifact = ReproArtifact(
                invariant=violation.invariant,
                message=failure.shrunk.message if failure.shrunk else violation.message,
                spec=failure.minimal_spec,
                original_spec=spec if failure.shrunk else None,
                shrink_steps=list(failure.shrunk.steps) if failure.shrunk else [],
                meta={
                    "master_seed": seed,
                    "trial_index": index,
                    "trials": trials,
                    "engines": list(engines),
                },
            )
            name = f"repro-trial{index:03d}-{violation.invariant}.json"
            failure.artifact_path = artifact.save(Path(artifact_dir) / name)
            say(f"          artifact: {failure.artifact_path}")
        report.failures.append(failure)
    return report
