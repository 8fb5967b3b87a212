"""The repository's benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-github --seed 1 --seconds 10 --trace 0

It generates (or reuses) the workload's seeded input and its census in
``.perfbench_cache/``, starts the measured process (``job.py``) in a
session of its own, times that process's set-up from ``Popen`` until it
reports ready, waits for it, makes sure no process of the session is
left, and prints one JSON object as its last line::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace
1`` they are the per-layer ones, and the run also writes a Chrome
trace-event file and a per-layer report under
``.perfbench_cache/traces/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = ".perfbench_cache"

#: A run, generation included, must end well inside 180 seconds.
RUN_BUDGET_S = 170.0


def spawn(cmd: list[str], cwd: Path, timeout_s: float):
    """Run the measured process in its own session.

    Returns ``(report, setup_s, leftovers)``: the process's JSON report
    (its last stdout line), the seconds from ``Popen`` until it printed
    ``READY``, and the pids of its session still alive after it exited
    (killed and waited for here).  Raises ``RuntimeError`` when the
    process fails or times out; its session is reaped either way.
    """
    import procs

    start = time.perf_counter()
    deadline = time.monotonic() + timeout_s
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True)
    setup_s = None
    out = b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"measured process timed out after {timeout_s:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup_s is None and b"READY\n" in out:
                setup_s = time.perf_counter() - start
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        proc.stdout.close()
        leftovers = procs.reap_group(proc.pid)
    lines = [line for line in out.decode("utf-8", "replace").splitlines()
             if line.strip()]
    if code != 0 or not lines:
        raise RuntimeError(f"measured process exited with code {code}")
    return json.loads(lines[-1]), setup_s, leftovers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run it from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import inputs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    signature = WORKLOADS[args.workload][0]
    cache = root / CACHE
    data_dir = inputs.make_input(
        cache, signature, inputs.RECORDS[signature], args.seed
    )
    work_dir = cache / "runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "job.py"),
        "--workload", args.workload, "--data", str(data_dir),
        "--work", str(work_dir), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = cache / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-s{args.seed}")]
    try:
        report, setup_s, leftovers = spawn(
            cmd, root, RUN_BUDGET_S - (time.monotonic() - started)
        )
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = list(report["problems"])
    if leftovers:
        problems.append(f"processes left behind by the run: {leftovers}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = report.get("metrics", {})
    if not args.trace and setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
