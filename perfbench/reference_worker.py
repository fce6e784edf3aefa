"""Runs the benchmark's operations on the frozen reference copy of umod.

``reference/umod`` is a verbatim copy of umod as it was when this benchmark
was defined; it is never edited. ``run.py`` starts this file as a child
process and, next to each of the program's own operations, asks it to run the
same operation on the same inputs. The two processes take turns, so only one
of them runs at any time. The shared machine's speed drifts by tens of percent
over minutes, and it slows both copies alike; the ratio of their times is the
program's speed with that drift taken out.

Protocol: one operation name (``ingest``, ``train`` or ``eval``) per line on
stdin; one JSON object per line on stdout, ``{"setup_s", "work_s", "units"}``
or ``{"error": traceback}``. The worker exits when stdin closes.

    python3 perfbench/reference_worker.py --workload train-n8 --inputs DIR --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from workloads import WORKLOADS, pin_environment

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="umod benchmark reference worker")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    a = p.parse_args(argv)
    pin_environment()
    sys.path.insert(0, str(HERE / "reference"))  # the frozen umod, never src/
    import ops
    from tracer import Recorder

    expected = json.loads(Path(a.inputs, "expected.json").read_text(encoding="utf-8"))
    os.makedirs(a.out, exist_ok=True)
    loop = ops.Loop(WORKLOADS[a.workload], ops.Paths.under(a.inputs, a.out), expected,
                    Recorder(enabled=False))
    replies = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints may reach the replies
    for line in sys.stdin:
        try:
            res = loop.run_op(line.strip())
            reply = {"setup_s": res.setup_s, "work_s": res.work_s, "units": res.units}
        except Exception:  # reported to run.py, which ends the run
            reply = {"error": traceback.format_exc()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
