"""Benchmark entry point: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload train-n8 --seed 0 --seconds 50 --trace 0

Run from the repository root. The program is imported from ``src/`` next to
this directory; no install is needed. Steps:

1. A child process writes the seeded trip log (``gen_inputs.py``), so input
   generation sets neither this process's peak memory nor its warm caches.
2. numpy and umod are imported and the import is timed.
3. Untraced runs start ``reference_worker.py``: the frozen copy of umod in
   ``reference/`` in a child process, on the same CPU as this one.
4. One untimed warm-up cycle lets lazy set-up finish.
5. Cycles of ``ingest -> train -> eval`` run until the next cycle would pass
   ``--seconds``. Each operation runs on the program and then on the
   reference, or the other way round in odd cycles; one process waits while
   the other works. With ``--trace 1`` there is no reference, and the span
   recorder is installed instead.
6. Every op's outputs are checked (see ``ops.py``); every cycle must
   reproduce the first cycle's outputs bit for bit.

The shared machine's speed drifts by tens of percent over minutes, so a
throughput in windows or rows per second differs from one run to the next
more than any change worth measuring. The end-to-end speed metrics are
therefore the reference's time over the program's for the same operation on
the same input, as the median over the run's cycles; the raw throughputs
are printed on ``#`` lines.

Stdout ends with one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics untraced, the per-layer metrics traced.
The exit code is 0 only when every op succeeded and every check held.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Recorder
from workloads import WORKLOADS, pin_environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
# End-to-end speed metrics: the reference's time over the program's, per op.
SPEEDUPS = (("ingest_speedup", "ingest", "rows/s"),
            ("train_speedup", "train", "windows/s"),
            ("eval_speedup", "eval", "windows/s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description="umod benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(np, pinned: str) -> str:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']}-{dep['version']}"
    except (TypeError, KeyError):
        pass
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas} {pinned} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))}")


class ReferenceWorker:
    """The frozen reference umod in a child process (``reference_worker.py``).

    ``run_op`` blocks until the child has finished, so the two processes
    never run at the same time.
    """

    def __init__(self, wl, inputs: Path, out: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference_worker.py"), "--workload", wl.name,
             "--inputs", str(inputs), "--out", str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run_op(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker exited with {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"reference {name} failed:\n{reply['error']}")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cycle(ops, loop, ref, rec, repeats) -> dict:
    """One cycle: ``{op: [(program OpResult, reference reply or None), ...]}``.

    ``repeats`` says how often each op of ``ops.OPS`` runs in the cycle.
    With a reference, every run of an op is a pair: the op on both copies,
    back to back, the reference first in every other pair, so that a drift
    within a pair weighs on both alike.
    """
    out = {}
    with rec.span("cycle"):
        for name, times in zip(ops.OPS, repeats):
            out[name] = []
            for _ in range(times):
                if ref is None:
                    out[name].append((loop.run_op(name), None))
                    continue
                if loop.attempted % 2:
                    r = ref.run_op(name)
                    p = loop.run_op(name)
                else:
                    p = loop.run_op(name)
                    r = ref.run_op(name)
                ops.check(r["units"] == p.units,
                          f"{name}: reference did {r['units']} units, program {p.units}")
                out[name].append((p, r))
    return out


def print_table(rows) -> None:
    print(f"# {'per run of an op':34s} {'median':>14s} {'p25':>12s} {'p75':>12s} {'n':>4s}")
    for name, values, unit in rows:
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"# {name:34s} {statistics.median(values):14.6g} {q[0]:12.6g} "
              f"{q[2]:12.6g} {len(values):4d} {unit}")


def pairs(cycles, op: str) -> list:
    return [pair for c in cycles for pair in c[op]]


def rate(cycles, op: str) -> float:
    """The program's units over seconds, both summed over the run."""
    done = pairs(cycles, op)
    return sum(p.units for p, _ in done) / sum(p.work_s for p, _ in done)


def run(args, wl, pinned: str, work: Path) -> int:
    subprocess.run(
        [sys.executable, str(HERE / "gen_inputs.py"), "--out", str(work),
         "--stations", str(wl.stations), "--days", str(wl.trip_days),
         "--rows", str(wl.trip_rows), "--seed", str(args.seed)],
        check=True, timeout=150)
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    import numpy as np
    from umod import data, diffmath, evaluation, model, training
    import ops
    import_s = time.perf_counter() - t0

    print(f"# env {environment(np, pinned)}")
    rec = Recorder(enabled=False)
    (work / "program").mkdir()
    loop = ops.Loop(wl, ops.Paths.under(work, work / "program"), expected, rec)
    # A traced run reports per-layer metrics alone and needs no reference.
    ref = None if args.trace else ReferenceWorker(wl, work, work / "reference")
    # Noisier ops run more often per cycle, so that each op gets enough
    # pairs. A traced run runs each op once a cycle.
    repeats = (1, 1, 1) if args.trace else wl.repeats
    cycles = []
    ok = False
    try:
        cycle(ops, loop, ref, rec, (1, 1, 1))  # warm-up of both copies, not measured
        if args.trace:
            rec.enabled = rec.memory = True
            rec.install(diffmath, (data, model, training, evaluation))
        start = time.perf_counter()
        last = 0.0
        # A traced run needs its memory cycle plus at least one timed cycle.
        while (len(cycles) < 1 + args.trace
               or time.perf_counter() - start + last <= args.seconds):
            c0 = time.perf_counter()
            cycles.append(cycle(ops, loop, ref, rec, repeats))
            rec.memory = False
            last = time.perf_counter() - c0
        measured_s = time.perf_counter() - start
        ok = True
    except Exception:  # a failed op or check; the run exits 1
        traceback.print_exc()
    finally:
        rec.uninstall()
        if ref is not None:
            ref.close()

    metrics = {}
    cycles = cycles[args.trace:]  # a traced run's memory cycle gives no timings
    failed = loop.failed if loop.failed or ok else 1
    if not failed:
        print(f"# workload={wl.name} seed={args.seed} trace={args.trace} "
              f"cycles={len(cycles)} (+{1 + args.trace} untimed) measured_s={measured_s:.3f} "
              f"import_s={import_s:.4f}")
        setup = {op: [p.setup_s for p, _ in pairs(cycles, op)] for op in ("train", "eval")}
        table = [(f"{op} setup_s", values, "s") for op, values in setup.items()]
        for name, op, unit in SPEEDUPS:
            done = pairs(cycles, op)
            table.append((f"program {op} {unit}", [p.units / p.work_s for p, _ in done], unit))
            if ref is not None:
                table.append((f"reference {op} {unit}",
                              [r["units"] / r["work_s"] for _, r in done], unit))
                table.append((name, [r["work_s"] / p.work_s for p, r in done], "x"))
        print_table(table)
        e2e = {
            "setup_s": (import_s + sum(statistics.median(v) for v in setup.values()), "s"),
            "test_mae": (cycles[0]["train"][0][0].rows[0][1], "trips"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "success_rate": (1.0 - loop.failed / loop.attempted, "ratio"),
        }
        if args.trace:
            metrics, steps = rec.layer_metrics(rate(cycles, "train"))
            n_train = cycles[0]["train"][0][0].units // wl.epochs
            budget = wl.epochs * math.ceil(n_train / ops.train_config(wl).batch_size)
            if any(s != budget for s in steps):
                failed = 1
                print(f"error: training steps per cycle {steps}, budget {budget}",
                      file=sys.stderr)
            spans_dir = WORK_ROOT / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            rec.dump(spans_dir / f"{wl.name}-seed{args.seed}.jsonl")
        else:
            for name, op, unit in SPEEDUPS:
                done = pairs(cycles, op)
                print(f"# program {op}: {rate(cycles, op):.6g} {unit} "
                      f"over {len(done)} runs")
                e2e[name] = (statistics.median(r["work_s"] / p.work_s for p, r in done), "x")
            metrics = e2e
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit}")
    else:
        metrics = {"success_rate": (1.0 - failed / max(loop.attempted, 1), "ratio")}
    result = {
        "correct": not failed,
        "attempted": max(loop.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "umod" / "__init__.py").is_file():
        print(f"error: no umod sources at {ROOT / 'src' / 'umod'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pinned = pin_environment()
    # One CPU for this process and the reference worker, which inherits it:
    # the two vCPUs of a shared host run at different speeds, and the
    # reference can only cancel the machine's drift on the CPU it shares.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, wl, pinned, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
