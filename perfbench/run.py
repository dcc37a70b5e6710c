"""The exploration benchmark: fixed-budget explore runs, end to end and per layer.

One run of a workload (``--workload NAME --seed N --seconds S --trace
0|1``) launches repetitions of the workload, each in a fresh process
(``child.py``) with a private, emptied ``REPRO_CACHE_DIR`` and one BLAS
thread, and checks every repetition's outputs:

* ``--trace 0`` runs untraced repetitions while ``--seconds`` allow (at
  least two), each on its own sub-seed of ``--seed``, and reports the
  median of each end-to-end metric;
* ``--trace 1`` makes one untraced and one traced run of the seed and
  reports the per-layer split of the traced one, its tracing overhead
  and the seed's model quality; the two trajectories must be equal.

The last line of standard output is one JSON object: ``correct``,
``attempted`` / ``failed`` (simulations, trained folds and output checks;
NaN-marked simulations, quarantined folds and failed checks) and
``metrics``.  The Chrome trace of a traced run and every repetition's
full record are kept under ``.perfbench_out/``.

``--all`` runs every workload (``--runs`` seeds untraced, then one
traced run) and prints each metric with its median, quartiles and
sample count.  Run from the repository root::

    python3 perfbench/run.py --workload memsys-mcf-serial --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --runs 3
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, account, quartiles  # noqa: E402
from workloads import THREAD_VARS, WORKLOADS  # noqa: E402

#: a run must end well inside 180 s, whatever the repetitions do
HARD_LIMIT_S = 165.0
#: at least two set-ups per run, so every reported time is a median
MIN_REPS = 2
MAX_REPS = 12


class BenchmarkError(RuntimeError):
    """A repetition crashed or timed out; the run has no result."""


class Bench:
    """Launches repetitions, keeping their files under ``out``.

    ``child_args`` are passed on to every repetition.
    """

    def __init__(
        self,
        root: Path,
        out: Optional[Path] = None,
        child_args: Sequence[str] = (),
    ):
        self.root = root
        self.out = out if out is not None else root / ".perfbench_out"
        self.child_args = list(child_args)
        #: the current repetition's files; kept after a failed one
        self.rep_dir = self.out / f"rep-{os.getpid()}"

    def prepare(self) -> None:
        """Check the program is present and byte-compile it (the build)."""
        if not (self.root / "src" / "repro" / "__init__.py").is_file():
            raise BenchmarkError(
                f"no program to measure: {self.root / 'src' / 'repro'} is "
                "missing (run from the root of a repository checkout)"
            )
        compileall.compile_dir(self.root / "src", quiet=1)
        self.out.mkdir(parents=True, exist_ok=True)

    def repetition(
        self, workload: str, seed: int, traced: bool, deadline: float
    ) -> Dict[str, object]:
        """One fresh-process repetition, killed if it is still running at
        ``deadline`` (monotonic); returns its result record."""
        rep = self.rep_dir
        shutil.rmtree(rep, ignore_errors=True)
        (rep / "cache").mkdir(parents=True)
        env = dict(os.environ)
        env.pop("REPRO_N_JOBS", None)
        env["REPRO_CACHE_DIR"] = str(rep / "cache")
        env["PYTHONPATH"] = str(self.root / "src")
        env.update({var: "1" for var in THREAD_VARS})
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--dir", str(rep),
            "--reference-dir", str(self.out / "reference"),
            *self.child_args,
        ]
        if traced:
            command.append("--trace")
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("no time left for a repetition")
        with open(rep / "child.log", "wb") as log:
            launch = time.monotonic()
            process = subprocess.Popen(
                command + ["--launch", repr(launch)],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # the repetition's pool workers share its process group
                _kill_group(process)
        if code != 0:
            tail = (rep / "child.log").read_text(errors="replace")[-3000:]
            raise BenchmarkError(
                f"{workload} seed {seed} repetition "
                + ("timed out" if code is None else f"exited with {code}")
                + f":\n{tail}"
            )
        with open(rep / "result.json") as handle:
            result = json.load(handle)
        result["wall_s"] = time.monotonic() - launch
        if traced:
            traces = self.out / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copy(rep / "trace.json", traces / f"{workload}-seed{seed}.json")
        return result


def _kill_group(process: subprocess.Popen) -> None:
    """Stop the repetition and anything it started, and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def sub_seed(seed: int, rep: int) -> int:
    """The exploration seed of repetition ``rep`` of a run of ``seed``.

    Untraced repetitions explore different seeds, so a run's median
    averages over the seed-to-seed spread of the work (the early-stopping
    epochs) as well as over host noise; repetition 0 uses ``seed``.
    """
    return seed + 1000 * rep


def same_outputs(first: Mapping, second: Mapping) -> bool:
    """Whether two repetitions of one seed produced the same model:
    equal per-round trajectories, CV error and true error."""
    return all(
        first[key] == second[key]
        for key in ("trajectory", "cv_error_pct", "true_error_pct")
    )


def run_workload(
    bench: Bench, workload: str, seed: int, seconds: float, traced: bool
) -> Dict[str, object]:
    """One benchmark run; returns the record whose summary is printed."""
    deadline = time.monotonic() + seconds
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    results: List[Dict[str, object]] = []
    checks: Dict[str, bool] = {}
    if traced:
        for traced_rep in (False, True):
            results.append(
                bench.repetition(workload, seed, traced_rep, hard_deadline)
            )
        # the trace measured the same program
        checks["trace_repeats_outputs"] = same_outputs(*results)
    else:
        while len(results) < MAX_REPS:
            if len(results) >= MIN_REPS:
                longest = max(r["wall_s"] for r in results)
                if time.monotonic() + longest > deadline:
                    break
            results.append(bench.repetition(
                workload, sub_seed(seed, len(results)), False, hard_deadline
            ))
    metrics: Dict[str, float] = {}
    if traced:
        untraced, traced_run = results
        layers = dict(traced_run["layers"])
        own = sum(v for k, v in layers.items() if k.startswith("self."))
        # the layer self times partition the traced run, which spans its
        # set-up, exploration and full-space predict
        checks["self_times_add_up"] = (
            abs(own - layers["trace.run_s"]) < 1e-6
            and abs(layers["trace.run_s"] - traced_run["time_to_model_s"]) < 1e-3
        )
        layers["trace.overhead_frac"] = (
            traced_run["explore_s"] - untraced["explore_s"]
        ) / untraced["explore_s"]
        layers["cv_error_pct"] = untraced["cv_error_pct"]
        layers["true_error_pct"] = untraced["true_error_pct"]
        layers["backend.failed"] = float(untraced["nan_simulations"])
        metrics.update(layers)
    else:
        for metric in END_TO_END:
            metrics[metric.name] = statistics.median(
                r[metric.name] for r in results
            )
    accounting = account(results, checks)
    if traced:
        metrics["failed_frac"] = accounting.failed_frac
    correct = all(checks.values()) and all(
        all(r["checks"].values()) for r in results
    )
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "correct": correct,
        "attempted": accounting.attempted,
        "failed": accounting.failed,
        "checks": checks,
        "metrics": metrics,
        "repetitions": results,
    }
    shutil.rmtree(bench.rep_dir)
    runs = bench.out / "runs"
    runs.mkdir(exist_ok=True)
    with open(runs / f"{workload}-seed{seed}-trace{int(traced)}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def summary_line(record: Mapping, declared) -> str:
    """The run's result line: exactly the declared metrics."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m.name: {"value": record["metrics"][m.name], "unit": m.unit}
                for m in declared
            },
        }
    )


def report_all(bench: Bench, runs: int, seconds: float) -> bool:
    """Every workload: ``runs`` untraced seeds, then one traced run."""
    ok = True
    for name, workload in WORKLOADS.items():
        reps: List[Mapping] = []
        for seed in range(1, runs + 1):
            record = run_workload(bench, name, seed, seconds, traced=False)
            ok &= record["correct"]
            reps.extend(record["repetitions"])
        traced = run_workload(bench, name, 1, seconds, traced=True)
        ok &= traced["correct"]
        print(f"\n== {name} ({workload.study}/{workload.trace}, "
              f"{workload.agent}, {workload.budget} sims, n_jobs="
              f"{workload.n_jobs}) ==")
        print(f"   {workload.why}")
        print(f"   threads: {reps[0]['threads']}")
        print(f"   {'metric':<30}{'unit':>6}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'n':>4}")
        for metric in END_TO_END:
            q1, median, q3 = quartiles(r[metric.name] for r in reps)
            print(f"   {metric.name:<30}{metric.unit:>6}{median:>12.4f}"
                  f"{q1:>12.4f}{q3:>12.4f}{len(reps):>4}")
        accounting = account(reps, {})
        print(f"   {'failed_frac':<30}{'frac':>6}"
              f"{accounting.failed_frac:>12.4f}   "
              f"({accounting.failed} of {accounting.attempted})")
        print("   per layer (traced run, seed 1):")
        for metric in PER_LAYER:
            value = traced["metrics"][metric.name]
            print(f"   {metric.name:<30}{metric.unit:>6}{value:>12.4f}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run and report every workload")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced seeds per workload with --all")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("pass --workload NAME or --all")
    bench = Bench(ROOT)
    try:
        bench.prepare()
        if args.all:
            return 0 if report_all(bench, args.runs, args.seconds) else 1
        record = run_workload(
            bench, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(summary_line(record, PER_LAYER if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
