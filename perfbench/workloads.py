"""The benchmark's three fixed-budget exploration workloads.

Every workload sets its target error below anything reachable, so each
run spends its whole simulation budget: the work per run is fixed, and
model quality is reported separately by the error metrics.  Each layer
the ROADMAP means to change carries most of the work in one workload
and little in another:

* ``memsys-mcf-serial`` -- the paper's own loop (uniform random
  sampling) on the memory-system study with the ``mcf`` trace, serial,
  no checkpoint.  CV fitting on the in-process stacked ensemble kernel
  is ~99% of exploration; the cold ``mcf`` workload profile is ~90% of
  set-up.  Simulation, the pool, search and checkpoints are bypassed.
* ``cachepolicy-osc-ckpt`` -- the multi-target cache-policy study on the
  ``osc-tight`` phased workload, serial, checkpoint every round.  Folds
  train one at a time through the per-fold ``TrainingKernel`` (not the
  stacked kernel); simulation is ~10% of exploration, the only workload
  where it shows.  There is no SPEC profile, so set-up is imports.
* ``processor-committee-jobs2`` -- the processor study (constrained
  20,736-point space) on ``gzip``, committee search, ``n_jobs=2``: a
  process-pool evaluation backend behind a 2-retry resilient backend,
  the per-fold process-pool fit engine ``n_jobs > 1`` selects, and a
  checkpoint every round.  It is the only workload where search
  (committee variance over a 2,000-point pool) and pool dispatch show.

The interval and cache-policy simulators are not validated against
hardware: the true error measures the predictor against the study's own
simulator only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: below anything reachable, so every run spends its whole budget
UNREACHABLE_TARGET_ERROR = 1e-6

#: BLAS / OpenMP thread-pool sizes; every repetition runs with each set
#: to 1, so the main process and the pool workers stay within the two cores
#: the workloads are sized for
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    trace: str
    agent: str
    budget: int
    batch_size: int = 50
    n_jobs: int = 1
    max_retries: int = 0
    checkpoint: bool = False
    why: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "memsys-mcf-serial", "memory-system", "mcf", "random", budget=200,
            why="Paper's loop. Stresses: stacked-kernel CV fit (~99% of "
            "explore), cold mcf profile (~90% of setup). Bypasses: pool, "
            "search, checkpoint; simulation ~0.2%",
        ),
        Workload(
            "cachepolicy-osc-ckpt", "cache-policy", "osc-tight", "random",
            budget=100, checkpoint=True,
            why="Stresses: per-fold multi-target fit, simulation (~10%), "
            "checkpoint per round. Bypasses: profile, stacked kernel, pool. "
            "Simulators not hardware-validated: true error is vs simulator",
        ),
        Workload(
            "processor-committee-jobs2", "processor", "gzip", "committee",
            budget=150, n_jobs=2, max_retries=2, checkpoint=True,
            why="Stresses: committee search, 2-worker eval pool with retries, "
            "per-fold fit pool, checkpoints, 20,736-point design matrix. "
            "Bypasses: in-process kernels (fits run in workers)",
        ),
    )
}
