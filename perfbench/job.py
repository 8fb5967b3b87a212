"""The measured process: set up, run whole rounds for a time, report.

Started by ``run.py`` from the checkout root, never directly.  It builds
one process-backend ``Context`` at the host's available CPU count,
prestarts its workers, runs the workload's set-up, prints ``READY`` (the
parent times set-up from its own ``Popen`` up to that line), then runs
whole rounds until ``--seconds`` have passed and prints one JSON object.
The context is stopped in a ``finally`` and the process checks that no
child of its own is left before it reports.

Outputs are checked against the input's census after the timed rounds,
so the census never inflates the driver's measured peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from repro.engine import Context, available_parallelism  # noqa: E402

import procs  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import make_workload  # noqa: E402

#: Share of a traced run spent on untraced rounds, which give the
#: scheduler counters and the untraced job wall the trace is compared to.
UNTRACED_SHARE = 0.4

#: Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "jsonio.parser.records_per_s": ("records/s", "higher"),
    "jsonio.blockscan.digest_mb_per_s": ("MB/s", "higher"),
    "inference.kernel.parse_s": ("s", "lower"),
    "inference.kernel.type_s": ("s", "lower"),
    "inference.kernel.fuse_s": ("s", "lower"),
    "inference.kernel.map_wall_s": ("s", "lower"),
    "inference.kernel.records": ("count", "higher"),
    "inference.kernel.distinct_types": ("count", "lower"),
    "inference.kernel.encode_s": ("s", "lower"),
    "inference.kernel.decode_s": ("s", "lower"),
    "inference.kernel.wire_bytes": ("bytes", "lower"),
    "inference.kernel.merge_s": ("s", "lower"),
    "inference.statistics.observe_s": ("s", "lower"),
    "inference.statistics.merge_s": ("s", "lower"),
    "inference.statistics.bundle_bytes": ("bytes", "lower"),
    "engine.tasks": ("count", "lower"),
    "engine.retries": ("count", "lower"),
    "engine.pool_rebuilds": ("count", "lower"),
    "engine.warm_state_reuses": ("count", "higher"),
    "engine.input_bytes_read": ("bytes", "lower"),
    "engine.job_time_s": ("s", "lower"),
    "store.summarycache.hits": ("count", "higher"),
    "store.summarycache.misses": ("count", "lower"),
    "store.summarycache.hit_ratio": ("ratio", "higher"),
    "store.summarycache.get_s": ("s", "lower"),
    "store.summarycache.put_s": ("s", "lower"),
    "store.summarycache.bytes": ("bytes", "lower"),
    "store.journal.append_s": ("s", "lower"),
    "store.journal.bytes": ("bytes", "lower"),
    "store.checkpoint.save_s": ("s", "lower"),
    "store.checkpoint.load_s": ("s", "lower"),
    "store.checkpoint.bytes": ("bytes", "lower"),
}


def run_rounds(step, seconds: float, jobs_per_round: int,
               report: dict) -> list[list]:
    """Whole rounds until ``seconds`` have passed (at least one).

    Each round's jobs count as attempted before it starts; a round that
    raises counts as failed as a whole, and ends the run.
    """
    rounds = []
    deadline = time.monotonic() + seconds
    while True:
        report["attempted"] += jobs_per_round
        try:
            rounds.append(step())
        except Exception:
            report["failed"] += jobs_per_round
            raise
        if time.monotonic() >= deadline:
            return rounds


def end_to_end(rounds: list[list]) -> dict:
    """Throughput and CPU per record of each round (its records over its
    summed job wall or CPU), reported as the median over rounds."""
    rates = [sum(j.records for j in r) / sum(j.wall_s for j in r)
             for r in rounds]
    cpu = [sum(j.cpu_s for j in r) / sum(j.records for j in r) * 1e6
           for r in rounds]
    return {
        "records_per_s": (statistics.median(rates), "records/s"),
        "cpu_us_per_record": (statistics.median(cpu), "us/record"),
    }


def _per_job(values_by_round: list[list[float]]) -> float:
    """Median over rounds of the per-job mean within each round."""
    return statistics.median(sum(v) / len(v) for v in values_by_round)


def layer_metrics(tr: Tracer, job_roots: list[list], engine: dict,
                  engine_jobs: int) -> dict:
    """Per-layer figures from the spans and the scheduler counters.

    A layer the traced jobs call is reported per job (the median over
    rounds of each round's mean); a layer only the probes call is
    reported once, from the probes.  ``key`` picks what a span counts:
    its duration (``None``), its number of calls (``"calls"``) or one of
    its args.  Scheduler counters come from the untraced rounds.
    """
    job_spans = [[tr.under(root) for root in r] for r in job_roots]
    probe_spans = [s for root in tr.spans
                   if root.parent_id is None and root.name == "probe"
                   for s in tr.under(root)]

    def measure(spans, name: str, key: "str | None") -> float:
        return sum(
            s.seconds if key is None else 1 if key == "calls"
            else s.args[key]
            for s in spans
            if s.name == name and (key in (None, "calls") or key in s.args)
        )

    def layer(name: str, key: "str | None" = None) -> float:
        in_jobs = any(
            s.name == name and (key in (None, "calls") or key in s.args)
            for r in job_spans for spans in r for s in spans
        )
        if in_jobs:
            return _per_job([[measure(spans, name, key) for spans in r]
                             for r in job_spans])
        return measure(probe_spans, name, key)

    m = {}
    loads, digest = "jsonio.parser.loads", "jsonio.blockscan.digest_splits"
    m["jsonio.parser.records_per_s"] = layer(loads, "records") / layer(loads)
    m["jsonio.blockscan.digest_mb_per_s"] = (
        layer(digest, "bytes") / 1e6 / layer(digest))
    run = "engine.scheduler.run"
    for stage in ("parse_s", "type_s", "fuse_s", "records"):
        m[f"inference.kernel.{stage}"] = layer(run, stage)
    m["inference.kernel.map_wall_s"] = layer(run)
    merge = "inference.kernel.merge_summaries_full"
    m["inference.kernel.distinct_types"] = layer(merge, "distinct_types")
    m["inference.kernel.encode_s"] = layer("inference.kernel.encode_summary")
    m["inference.kernel.decode_s"] = layer("inference.kernel.decode_summary")
    m["inference.kernel.wire_bytes"] = layer(
        "inference.kernel.decode_summary", "bytes")
    m["inference.kernel.merge_s"] = layer(merge)
    m["inference.statistics.observe_s"] = layer("inference.statistics.observe")
    m["inference.statistics.merge_s"] = layer("inference.statistics.merge")
    m["inference.statistics.bundle_bytes"] = layer(
        "inference.statistics.to_bytes", "bytes")

    for key, name in (("tasks_completed", "engine.tasks"),
                      ("warm_state_reuses", "engine.warm_state_reuses"),
                      ("input_bytes_read", "engine.input_bytes_read"),
                      ("job_time_s", "engine.job_time_s")):
        m[name] = engine[key] / engine_jobs
    m["engine.retries"] = engine["retries"]
    m["engine.pool_rebuilds"] = engine["pool_rebuilds"]

    get, put = "store.summarycache.get", "store.summarycache.put"
    m["store.summarycache.hits"] = layer(get, "hit")
    m["store.summarycache.misses"] = layer(get, "calls") - layer(get, "hit")
    m["store.summarycache.hit_ratio"] = layer(get, "hit") / layer(get, "calls")
    m["store.summarycache.get_s"] = layer(get)
    m["store.summarycache.put_s"] = layer(put)
    m["store.summarycache.bytes"] = layer(get, "bytes") + layer(put, "bytes")
    m["store.journal.append_s"] = layer("store.journal.append_task")
    m["store.journal.bytes"] = layer("store.journal.append_commit",
                                     "journal_bytes")
    save = "store.checkpoint.save_checkpoint"
    m["store.checkpoint.save_s"] = layer(save)
    m["store.checkpoint.bytes"] = layer(save, "checkpoint_bytes")
    m["store.checkpoint.load_s"] = statistics.median(
        s.seconds for s in tr.spans
        if s.name == "store.checkpoint.load_checkpoint")
    return {name: (value, LAYER_METRICS[name][0]) for name, value in m.items()}


def reconcile(tr: Tracer, job_roots: list[list], untraced: list[list]) -> dict:
    """How the traced jobs' self times add up against untraced wall."""
    roots = [root for r in job_roots for root in r]
    traced_wall = _per_job([[root.seconds for root in r] for r in job_roots])
    untraced_wall = _per_job([[j.wall_s for j in r] for r in untraced])
    self_times = {
        name: total / len(roots)
        for name, total in sorted(tr.self_times_by_name(roots).items())
    }
    # Worker-side stage timers, summed over the splits of a job.
    stages = {
        key: sum(s.args.get(key, 0.0) for root in roots
                 for s in tr.under(root)) / len(roots)
        for key in ("parse_s", "type_s", "fuse_s")
    }
    jobs = []
    for root in roots:
        gets = [s for s in tr.under(root) if s.name == "store.summarycache.get"]
        jobs.append({"wall_s": root.seconds, "cache_gets": len(gets),
                     "cache_hits": sum(bool(s.args["hit"]) for s in gets)})
    return {
        "jobs": jobs,
        "untraced_job_wall_s": untraced_wall,
        "traced_job_wall_s": traced_wall,
        "tracing_overhead": traced_wall / untraced_wall - 1.0,
        "self_s_per_job": self_times,
        "kernel_stage_s_per_job": stages,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out",
                        help="path prefix of the trace and layer files")
    args = parser.parse_args(argv)

    data_dir, work_dir = Path(args.data), Path(args.work)
    work_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"attempted": 0, "failed": 0, "problems": []}
    ctx = Context(parallelism=available_parallelism(), backend="process")
    wl = None
    try:
        ctx.prestart()
        wl = make_workload(ctx, args.workload, data_dir, work_dir)
        wl.setup()
        print("READY", flush=True)
        if args.trace:
            before = dataclasses.asdict(ctx.scheduler.stats)
            untraced = run_rounds(wl.round, args.seconds * UNTRACED_SHARE,
                                  wl.jobs_per_round, report)
            after = dataclasses.asdict(ctx.scheduler.stats)
            engine = {k: after[k] - before[k] for k in after
                      if isinstance(after[k], (int, float))}
            engine_jobs = sum(len(r) for r in untraced)
            tr = Tracer()
            traced = run_rounds(lambda: wl.traced_round(tr),
                                args.seconds * (1 - UNTRACED_SHARE),
                                wl.jobs_per_round, report)
            roots = [s for s in tr.spans
                     if s.parent_id is None and s.name == "job"]
            n = wl.jobs_per_round
            job_roots = [roots[i * n:(i + 1) * n] for i in range(len(traced))]
            wl.probe(tr)
            metrics = layer_metrics(tr, job_roots, engine, engine_jobs)
            tr.write_chrome_trace(args.trace_out + ".trace.json")
            with open(args.trace_out + ".layers.json", "w") as handle:
                json.dump({
                    "workload": args.workload,
                    "metrics": {k: v[0] for k, v in metrics.items()},
                    "reconcile": reconcile(tr, job_roots, untraced),
                    "engine": engine,
                }, handle, indent=1, sort_keys=True)
        else:
            rounds = run_rounds(wl.round, args.seconds, wl.jobs_per_round,
                                report)
            metrics = end_to_end(rounds)
            metrics["worker_peak_rss_mb"] = (
                max(procs.peak_rss_mb(p) for p in procs.children(os.getpid())),
                "MiB",
            )
            metrics["driver_peak_rss_mb"] = (procs.self_peak_rss_mb(), "MiB")
        report["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
    except Exception:
        traceback.print_exc()
        if not report["failed"]:  # failed outside a round: set-up or report
            report["attempted"] += 1
            report["failed"] += 1
    finally:
        ctx.stop()
    left = procs.children(os.getpid())
    if left:
        report["problems"].append(f"pool workers left running: {left}")
    if wl is not None and not report["failed"]:
        census = json.loads((data_dir / "census.json").read_text("utf-8"))
        report["problems"] += wl.check(census)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
