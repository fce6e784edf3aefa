"""Workload sizes. Standard library only: the entry point reads this table
before it imports numpy or umod, so that import time is measured cold.

Every workload runs the same cycle (one ``umod ingest``, one ``umod train``,
one ``umod eval``), so every end-to-end metric exists on every workload. The
sizes decide which part dominates:

* ``train-n8`` is the paper's criterion-6 data (8 stations, 14 days, batch
  16, H = P = 2). Arrays are tiny, so per-op and per-step fixed costs (tape
  nodes, closures, ``stack_batch``, Adam, per-epoch validation) set the step
  time. The ingest and eval steps are small.
* ``ingest-eval-n288`` is SHMetro size. Its training is the smallest budget
  that still splits at this size (3 days of hourly bins, 1 epoch, 2 steps),
  and array work dominates it, mostly the matmul adjoints of backward. Its
  ingest and eval are a 288-station container write and read, windowing and
  forward-only scoring, with no backward pass.

Every operation runs on the program and on the frozen reference copy in turn,
so a cycle is short: a run measures many pairs of the same operation.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
KEEP_FREED_BYTES = 2**31 - 1  # the largest value mallopt takes


def pin_environment() -> str:
    """Fix what would otherwise differ between runs and between processes.

    Call first thing in a process, before numpy loads. Returns the settings
    as ``key=value`` words for the run's environment line.

    * BLAS runs one thread. On a 2-vCPU VM, two OpenBLAS threads ran no
      faster than one at N = 8 and N = 80, and when another process took a
      CPU their spin-waits made a step several times slower.
    * Freed memory stays in the process: glibc's malloc gets no block by
      mmap and trims the heap only above 2 GiB free. By default every large
      array is mapped and unmapped, so each N = 288 training step faulted in
      its arrays afresh; the faults were 30-40% of the step, and because
      the kernel backs a fault with a huge page only when it has one free,
      the same op's time moved by up to 30% from one run of it to the next,
      and by 25% between two processes. After the warm-up cycle an op now
      reuses pages that are already mapped, as in a long-lived process.
      Without glibc this step is skipped.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        kept = False
    else:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        kept = bool(mallopt(M_MMAP_MAX, 0) and mallopt(M_TRIM_THRESHOLD, KEEP_FREED_BYTES))
    return f"blas_threads={threads} malloc_keeps_freed={int(kept)} numpy_hugepages=0"


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; every cycle runs ingest, train and eval."""

    name: str
    stations: int
    train_days: int  # synthetic training series from the criterion-6 generator
    train_granularity: int  # seconds per bin of that series
    epochs: int  # fixed epoch budget
    trip_days: int  # span of the seeded trip log that ingest bins and eval scores
    trip_rows: int
    repeats: tuple = (1, 1, 1)  # runs of ingest, train and eval per measured cycle


WORKLOADS = {wl.name: wl for wl in (
    Workload("train-n8", stations=8, train_days=14, train_granularity=1800, epochs=1,
             trip_days=60, trip_rows=20_000),
    Workload("ingest-eval-n288", stations=288, train_days=3, train_granularity=3600,
             epochs=1, trip_days=2, trip_rows=30_000, repeats=(4, 1, 2)),
)}
