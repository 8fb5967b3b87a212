"""A job that fails mid-run leaves no process behind.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_hygiene.py
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402


def _broken_input(tmp_path: Path) -> Path:
    """A two-split github input whose second split holds a bad line."""
    good = inputs.make_input(tmp_path / "cache", "github", 1000, seed=3)
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    lines = (bad / "data.ndjson").read_bytes().splitlines(keepends=True)
    lines[len(lines) * 3 // 4] = b'{"broken": \n'
    (bad / "data.ndjson").write_bytes(b"".join(lines))
    return bad


def test_failing_job_leaves_no_process(tmp_path):
    data = _broken_input(tmp_path)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "job.py"),
        "--workload", "scan-github", "--data", str(data),
        "--work", str(tmp_path / "work"), "--seconds", "30", "--trace", "0",
    ]
    report, setup_s, leftovers = run.spawn(cmd, ROOT, timeout_s=150)

    assert setup_s is not None
    assert report["failed"] == 1 and report["attempted"] == 1
    assert report["problems"] == []  # no pool worker outlived the context
    assert leftovers == []  # nothing of the session outlived the process
    assert procs.children(os.getpid()) == []


def test_failing_job_in_process_stops_the_pool(tmp_path):
    from repro.engine import Context
    from repro.inference.pipeline import infer_ndjson_file
    from repro.jsonio.errors import JsonSyntaxError

    data = _broken_input(tmp_path)
    ctx = Context(parallelism=2, backend="process")
    try:
        ctx.prestart()
        assert len(procs.children(os.getpid())) == 2
        try:
            infer_ndjson_file(str(data / "data.ndjson"), context=ctx)
        except JsonSyntaxError:
            pass
        else:
            raise AssertionError("the broken line did not fail the job")
    finally:
        ctx.stop()
    assert procs.children(os.getpid()) == []
