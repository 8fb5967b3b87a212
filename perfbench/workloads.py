"""The benchmark's four workloads.

Each workload runs in *rounds*: a fixed sequence of jobs that leaves the
workload in the state it started from, so every run repeats identical
work whatever its length.  A job is either one call of the public
pipeline (``infer_ndjson_file``, as ``repro infer --parallel 0 --backend
process`` runs it, at the library's default partitioning) or, in the
traced run, the same job spelled out as calls into the program's layer
functions with a span around each.

Every workload keeps the program's defaults (parse lane, split mode,
wire format, batching, warm pool) apart from the one setting its purpose
names:

* ``scan-github`` / ``scan-wikidata`` — cold one-shot inference: each job
  runs on a freshly started worker pool, as a fresh ``repro infer``
  process would;
* ``profile-nytimes`` — the same, with ``stats_mode="sketches"``;
* ``feed-twitter`` — a long-lived feeder: each job appends a batch to a
  tweet log and re-infers the whole log with the summary cache, a run
  journal and ``checkpoint_to``; a round is ``FEED_APPENDS`` such jobs,
  after which log, cache and checkpoint are put back to the base state.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks
import inputs
from procs import CpuMeter
from tracing import Tracer

from repro.core.printer import print_type
from repro.engine.scheduler import Scheduler
from repro.inference import infer_type
from repro.inference.kernel import (
    PartitionAccumulator,
    PartitionSummary,
    accumulate_ndjson_split,
    decode_summary,
    encode_summary,
    merge_summaries_full,
)
from repro.inference.pipeline import infer_ndjson_file
from repro.inference.statistics import StatsBundle
from repro.inference.typestream import resolve_lane
from repro.jsonio.blockscan import digest_splits
from repro.jsonio.parser import loads
from repro.jsonio.splits import plan_splits
from repro.store.checkpoint import load_checkpoint, save_checkpoint
from repro.store.journal import RunJournal, plan_signature, read_journal
from repro.store.summarycache import SummaryCache, config_signature

#: workload -> (dataset signature, stats mode)
WORKLOADS = {
    "scan-github": ("github", "off"),
    "scan-wikidata": ("wikidata", "off"),
    "profile-nytimes": ("nytimes", "sketches"),
    "feed-twitter": ("twitter", "off"),
}

#: Lines the layer probes of the scan workloads parse and observe: the
#: strict parser and the statistics walk are not on those workloads'
#: path, so a sample suffices to report them.
PROBE_SAMPLE = 200


@dataclass
class JobSample:
    """One timed job: the records it counts for throughput, its wall
    time and the CPU of the driver plus every pool worker."""

    records: int
    wall_s: float
    cpu_s: float


class Outputs:
    """Distinct job outputs, by digest, kept for the census checks.

    Jobs over identical input must return identical outputs, so each
    distinct output is checked once.
    """

    def __init__(self) -> None:
        self.distinct: dict[str, tuple] = {}

    def add(self, schema, record_count: int, distinct_types: int,
            stats) -> None:
        digest = hashlib.sha256()
        digest.update(print_type(schema).encode("utf-8"))
        digest.update(f"|{record_count}|{distinct_types}|".encode())
        if stats is not None:
            digest.update(stats.to_bytes())
        self.distinct.setdefault(
            digest.hexdigest(), (schema, record_count, distinct_types, stats)
        )

    def problems(self, census: dict, stats_mode: str) -> list[str]:
        found = []
        for schema, record_count, distinct_types, stats in self.distinct.values():
            found += checks.check_schema(schema, record_count, census)
            found += checks.check_distinct_types(distinct_types, census)
            if stats_mode != "off":
                found += checks.check_stats(stats, census)
        return found


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _stage_sums(summaries: list) -> dict:
    """Kernel stage seconds and records summed over split summaries
    (CPU of concurrent workers, so they may exceed the map's wall)."""
    timings = [s.timings for s in summaries if s.timings is not None]
    return {
        "parse_s": sum(t.parse_s for t in timings),
        "type_s": sum(t.type_s for t in timings),
        "fuse_s": sum(t.fuse_s for t in timings),
        "records": sum(t.records for t in timings),
    }


def _timed(meter: CpuMeter, call):
    """``call()`` with its wall time and the CPU of driver and workers."""
    meter.start()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, meter.stop()


class ScanWorkload:
    """Cold one-shot inference of one input file per job."""

    def __init__(self, ctx, name: str, data_dir: Path, work_dir: Path) -> None:
        self.ctx = ctx
        self.name = name
        self.stats_mode = WORKLOADS[name][1]
        self.data_dir = data_dir
        self.path = str(data_dir / "data.ndjson")
        self.work_dir = work_dir
        self.outputs = Outputs()
        self.problems_seen: list[str] = []
        self.meter = CpuMeter()
        self.jobs_per_round = 1
        self.last_payloads: list[bytes] = []
        self.last_summaries: list = []
        self.last_merged = None

    def setup(self) -> None:
        """First-job warm-up on a small file of the same signature."""
        infer_ndjson_file(
            str(self.data_dir / "warmup.ndjson"), context=self.ctx,
            stats_mode=self.stats_mode,
        )

    # -- untraced ------------------------------------------------------

    def _fresh_pool(self) -> None:
        """Start the job on new workers, outside the timed window.

        A one-shot ``repro infer`` has no kernel state from earlier jobs.
        Retiring warm state in place is not the same: pool workers run
        with the cyclic garbage collector off, so each job's retired state
        stays resident and later jobs run in ever larger heaps.  The
        generation is bumped too, because forked workers inherit the
        driver's own warm state (built when a one-split job, such as the
        set-up's, runs inline on the driver).
        """
        self.ctx.stop()
        self.ctx.invalidate_warm_state()
        self.ctx.prestart()

    def round(self) -> list[JobSample]:
        self._fresh_pool()
        run, wall, cpu = _timed(
            self.meter,
            lambda: infer_ndjson_file(
                self.path, context=self.ctx, stats_mode=self.stats_mode
            ),
        )
        self.outputs.add(run.schema, run.record_count,
                         run.distinct_type_count, run.stats)
        return [JobSample(run.record_count, wall, cpu)]

    # -- traced --------------------------------------------------------

    def traced_round(self, tr) -> list[JobSample]:
        """The job as the pipeline's layer calls, one span per call."""
        ctx = self.ctx
        self._fresh_pool()
        scheduler: Scheduler = ctx.scheduler
        lane = "strict" if self.stats_mode != "off" else resolve_lane("auto")
        task = partial(
            accumulate_ndjson_split, parse_lane=lane, collect_timings=True,
            warm_generation=scheduler.warm_generation if scheduler.warm else None,
            wire=True, stats_mode=self.stats_mode,
        )

        def job():
            with tr.span("job", workload=self.name):
                with tr.span("jsonio.splits.plan_splits") as a:
                    splits = plan_splits(self.path, scheduler.parallelism)
                    a["splits"] = len(splits)
                with tr.span("engine.scheduler.run",
                             tasks=len(splits)) as run_args:
                    payloads = scheduler.run(task, splits)
                acc = PartitionAccumulator()
                summaries = []
                for payload in payloads:
                    with tr.span("inference.kernel.decode_summary",
                                 bytes=len(payload)):
                        summaries.append(decode_summary(payload, acc))
                with tr.span("inference.kernel.merge_summaries_full") as a:
                    merged = merge_summaries_full(summaries, scheduler=scheduler)
                    a["distinct_types"] = merged.distinct_type_count
            run_args.update(_stage_sums(summaries))
            return payloads, summaries, merged

        (payloads, summaries, merged), wall, cpu = _timed(self.meter, job)
        self.outputs.add(merged.schema, merged.record_count,
                         merged.distinct_type_count, merged.stats)
        self.last_payloads, self.last_summaries = payloads, summaries
        self.last_merged = merged
        return [JobSample(merged.record_count, wall, cpu)]

    def probe(self, tr) -> None:
        """Layers this job does not call, on this workload's own data."""
        sample = None if self.stats_mode != "off" else PROBE_SAMPLE
        probe_parser_and_stats(tr, self.path, sample, self.ctx.scheduler)
        probe_codec(tr, self.last_summaries)
        with tr.span("probe"):
            with tr.span("jsonio.blockscan.digest_splits",
                         bytes=os.path.getsize(self.path)):
                digest_splits(
                    self.path,
                    plan_splits(self.path, self.ctx.scheduler.parallelism,
                                stable=True),
                )
        probe_store(tr, self.work_dir / "probe-store", self.last_payloads,
                    self.last_merged, self.path)

    def check(self, census: dict) -> list[str]:
        return self.problems_seen + self.outputs.problems(census, self.stats_mode)


class FeedWorkload:
    """An append-only tweet log kept by one long-lived process."""

    def __init__(self, ctx, name: str, data_dir: Path, work_dir: Path) -> None:
        self.ctx = ctx
        self.name = name
        self.data = data_dir / "data.ndjson"
        self.root = work_dir / "feed"
        self.log = self.root / "log.ndjson"
        self.cache = self.root / "cache"
        self.checkpoint = self.root / "checkpoint"
        self.base_cache = self.root / "base-cache"
        self.base_checkpoint = self.root / "base-checkpoint"
        self.outputs = Outputs()
        self.problems_seen: list[str] = []
        self.meter = CpuMeter()
        self.jobs_per_round = inputs.FEED_APPENDS
        self.journals = 0
        self.last_result = None
        self.persisted_checked = False

    # -- state ----------------------------------------------------------

    def _line_offsets(self) -> list[int]:
        offsets = [0]
        with open(self.data, "rb") as handle:
            for line in handle:
                offsets.append(offsets[-1] + len(line))
        return offsets

    def setup(self) -> None:
        """Cold build of the base checkpoint and cache from the base log."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        offsets = self._line_offsets()
        self.base_bytes = offsets[inputs.FEED_BASE]
        self.batch_spans = [
            (offsets[inputs.FEED_BASE + j * inputs.FEED_BATCH],
             offsets[inputs.FEED_BASE + (j + 1) * inputs.FEED_BATCH])
            for j in range(inputs.FEED_APPENDS)
        ]
        with open(self.data, "rb") as src, open(self.log, "wb") as dst:
            dst.write(src.read(self.base_bytes))
        run = self._infer()
        self._check_job(run.record_count, inputs.FEED_BASE)
        shutil.copytree(self.cache, self.base_cache)
        shutil.copytree(self.checkpoint, self.base_checkpoint)

    def _reset(self) -> None:
        os.truncate(self.log, self.base_bytes)
        for live, base in ((self.cache, self.base_cache),
                           (self.checkpoint, self.base_checkpoint)):
            shutil.rmtree(live)
            shutil.copytree(base, live)
        for journal in self.root.glob("journal-*.rjl"):
            journal.unlink()

    def _journal_path(self) -> Path:
        self.journals += 1
        return self.root / f"journal-{self.journals}.rjl"

    def _append(self, step: int) -> None:
        start, stop = self.batch_spans[step]
        with open(self.data, "rb") as src, open(self.log, "ab") as dst:
            src.seek(start)
            dst.write(src.read(stop - start))

    def _infer(self):
        return infer_ndjson_file(
            str(self.log), context=self.ctx, summary_cache=str(self.cache),
            cache_mode="readwrite", journal_path=str(self._journal_path()),
            checkpoint_to=str(self.checkpoint),
        )

    def _check_job(self, record_count: int, lines: int) -> None:
        if record_count != lines:
            self.problems_seen.append(
                f"feed job returned {record_count} records for a "
                f"{lines}-line log"
            )

    def _check_persisted(self, tr) -> None:
        """After the run's last job: the checkpoint reloads through
        ``load_checkpoint`` to the schema that job returned, and its
        journal is committed.  (Reloading the distinct types costs
        seconds, so it is done once per run, not per round.)"""
        schema, record_count = self.last_result
        with tr.span("check"):
            with tr.span("store.checkpoint.load_checkpoint",
                         bytes=_dir_bytes(self.checkpoint)):
                loaded = load_checkpoint(self.checkpoint)
        if loaded.schema != schema or loaded.record_count != record_count:
            self.problems_seen.append(
                "checkpoint does not reload to the returned schema"
            )
        journal = self.root / f"journal-{self.journals}.rjl"
        if not read_journal(journal).committed:
            self.problems_seen.append(f"journal {journal.name} not committed")
        self.persisted_checked = True

    # -- untraced ------------------------------------------------------

    def round(self) -> list[JobSample]:
        self._reset()
        samples = []
        for step in range(inputs.FEED_APPENDS):
            self._append(step)
            run, wall, cpu = _timed(self.meter, self._infer)
            samples.append(JobSample(inputs.FEED_BATCH, wall, cpu))
            lines = inputs.FEED_BASE + (step + 1) * inputs.FEED_BATCH
            self._check_job(run.record_count, lines)
        self.outputs.add(run.schema, run.record_count,
                         run.distinct_type_count, None)
        self.last_result = (run.schema, run.record_count)
        return samples

    # -- traced --------------------------------------------------------

    def _traced_job(self, tr):
        """``infer_ndjson_file`` with cache, journal and checkpoint, as
        layer calls: plan, digest, probe the cache, journal the misses as
        they complete, store them, decode, merge, checkpoint, commit."""
        ctx = self.ctx
        scheduler: Scheduler = ctx.scheduler
        lane = resolve_lane("auto")
        # The pipeline's own cache key for this run: collect_timings stays
        # False, or every lookup would miss (the flag is in the key).
        signature = config_signature(
            parse_lane=lane, permissive=False, collect_timings=False,
            split_mode="bytes",
        )
        cache = SummaryCache(self.cache)
        source = str(self.log)
        with tr.span("job", workload=self.name):
            with tr.span("jsonio.splits.plan_splits") as a:
                splits = plan_splits(source, scheduler.parallelism, stable=True)
                a["splits"] = len(splits)
            with tr.span("jsonio.blockscan.digest_splits",
                         bytes=os.path.getsize(source)):
                digests = digest_splits(source, splits)
            hits: dict[int, bytes] = {}
            for index, digest in enumerate(digests):
                with tr.span("store.summarycache.get") as a:
                    payload = cache.get(digest, signature)
                    a["hit"] = payload is not None
                    a["bytes"] = len(payload) if payload is not None else 0
                if payload is not None:
                    hits[index] = payload
            misses = [i for i in range(len(splits)) if i not in hits]
            plan = {"source": source, "split_mode": "bytes", "parse_lane": lane,
                    "tasks": [[[splits[i].offset, splits[i].length]]
                              for i in misses]}
            with tr.span("store.journal.create"):
                journal = RunJournal.create(self._journal_path(), {
                    "task_count": len(misses),
                    "plan_sha256": plan_signature(plan), **plan,
                })
            try:
                def on_result(local: int, payload: bytes) -> None:
                    with tr.span("store.journal.append_task",
                                 bytes=len(payload)):
                        journal.append_task(local, payload)

                task = partial(
                    accumulate_ndjson_split, parse_lane=lane,
                    warm_generation=(scheduler.warm_generation
                                     if scheduler.warm else None),
                    wire=True,
                )
                with tr.span("engine.scheduler.run", tasks=len(misses)):
                    fresh = scheduler.run(
                        task, [splits[i] for i in misses], on_result=on_result
                    )
                payloads = dict(hits)
                for local, index in enumerate(misses):
                    payloads[index] = fresh[local]
                    with tr.span("store.summarycache.put",
                                 bytes=len(fresh[local])):
                        cache.put(digests[index], signature, fresh[local])
                acc = PartitionAccumulator()
                summaries = []
                for index in range(len(splits)):
                    with tr.span("inference.kernel.decode_summary",
                                 bytes=len(payloads[index])):
                        summaries.append(decode_summary(payloads[index], acc))
                with tr.span("inference.kernel.merge_summaries_full") as a:
                    merged = merge_summaries_full(summaries, scheduler=scheduler)
                    a["distinct_types"] = merged.distinct_type_count
                with tr.span("store.checkpoint.save_checkpoint") as save_args:
                    save_checkpoint(
                        self.checkpoint,
                        PartitionSummary(
                            schema=merged.schema,
                            record_count=merged.record_count,
                            distinct_types=merged.distinct_types,
                        ),
                        sources=[source],
                    )
                with tr.span("store.journal.append_commit") as commit_args:
                    journal.append_commit({
                        "record_count": merged.record_count,
                        "schema_sha256": hashlib.sha256(
                            print_type(merged.schema).encode("utf-8")
                        ).hexdigest(),
                    })
            finally:
                journal.close()
        # Sizes are read after the job's span closes, outside its wall.
        commit_args["journal_bytes"] = os.path.getsize(journal.path)
        save_args["checkpoint_bytes"] = _dir_bytes(self.checkpoint)
        return merged

    def traced_round(self, tr) -> list[JobSample]:
        self._reset()
        samples = []
        for step in range(inputs.FEED_APPENDS):
            self._append(step)
            merged, wall, cpu = _timed(self.meter, lambda: self._traced_job(tr))
            samples.append(JobSample(inputs.FEED_BATCH, wall, cpu))
            lines = inputs.FEED_BASE + (step + 1) * inputs.FEED_BATCH
            self._check_job(merged.record_count, lines)
        self.outputs.add(merged.schema, merged.record_count,
                         merged.distinct_type_count, None)
        self.last_result = (merged.schema, merged.record_count)
        return samples

    def probe(self, tr) -> None:
        """Kernel stage timings and the layers the feed job does not call.

        The feed job runs with the cache, so it must not collect
        timings; the stage split comes from an uncached pass over the
        full log instead.  The log is still the last round's full log.
        """
        self._check_persisted(tr)
        scheduler: Scheduler = self.ctx.scheduler
        task = partial(
            accumulate_ndjson_split, parse_lane=resolve_lane("auto"),
            collect_timings=True, wire=True,
        )
        with tr.span("probe"):
            splits = plan_splits(str(self.log), scheduler.parallelism,
                                 stable=True)
            with tr.span("engine.scheduler.run",
                         tasks=len(splits)) as run_args:
                payloads = scheduler.run(task, splits)
            acc = PartitionAccumulator()
            summaries = [decode_summary(p, acc) for p in payloads]
            run_args.update(_stage_sums(summaries))
        probe_codec(tr, summaries)
        probe_parser_and_stats(tr, str(self.log), PROBE_SAMPLE, scheduler)

    def check(self, census: dict) -> list[str]:
        if not self.persisted_checked:
            self._check_persisted(Tracer())
        return self.problems_seen + self.outputs.problems(census, "off")


def probe_parser_and_stats(tr, path: str, sample: "int | None",
                           scheduler: Scheduler) -> None:
    """Strict ``loads`` and the statistics monoid over ``path``'s lines
    (the first ``sample`` lines, or all of them)."""
    with open(path, "rb") as handle:
        lines = [line.decode("utf-8") for line in handle if line.strip()]
    if sample is not None:
        lines = lines[:sample]
    with tr.span("probe"):
        with tr.span("jsonio.parser.loads", records=len(lines)):
            values = [loads(line) for line in lines]
        with tr.span("inference.infer_type", records=len(values)):
            sizes = [infer_type(v).size for v in values]
        parts = max(1, scheduler.parallelism)
        bundles = []
        with tr.span("inference.statistics.observe", records=len(values)):
            for p in range(parts):
                bundle = StatsBundle("sketches")
                lo = p * len(values) // parts
                hi = (p + 1) * len(values) // parts
                for value, size in zip(values[lo:hi], sizes[lo:hi]):
                    bundle.observe(value, size)
                bundles.append(bundle)
        with tr.span("inference.statistics.merge", bundles=len(bundles)):
            merged = bundles[0]
            for bundle in bundles[1:]:
                merged = merged.merge(bundle)
        with tr.span("inference.statistics.to_bytes") as a:
            a["bytes"] = len(merged.to_bytes())


def probe_codec(tr, summaries: list) -> None:
    """The workers' ``encode_summary``, timed at the driver."""
    with tr.span("probe"):
        for summary in summaries:
            with tr.span("inference.kernel.encode_summary") as a:
                a["bytes"] = len(encode_summary(summary))


def probe_store(tr, directory: Path, payloads: list, merged, source: str) -> None:
    """Cache, journal and checkpoint calls for a workload that uses none:
    a cold and a warm cache pass over its split payloads, a journal of
    them, and a checkpoint of its merged summary."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    cache = SummaryCache(directory / "cache")
    keys = [hashlib.sha256(p).hexdigest() for p in payloads]
    with tr.span("probe"):
        for warm in (False, True):
            for key, payload in zip(keys, payloads):
                with tr.span("store.summarycache.get") as a:
                    got = cache.get(key, "probe")
                    a["hit"] = got is not None
                    a["bytes"] = len(got) if got is not None else 0
                if not warm:
                    with tr.span("store.summarycache.put", bytes=len(payload)):
                        cache.put(key, "probe", payload)
        with tr.span("store.journal.create"):
            journal = RunJournal.create(directory / "journal.rjl",
                                        {"task_count": len(payloads)})
        try:
            for index, payload in enumerate(payloads):
                with tr.span("store.journal.append_task", bytes=len(payload)):
                    journal.append_task(index, payload)
            with tr.span("store.journal.append_commit") as commit_args:
                journal.append_commit({"record_count": merged.record_count})
        finally:
            journal.close()
        with tr.span("store.checkpoint.save_checkpoint") as save_args:
            save_checkpoint(
                directory / "checkpoint",
                PartitionSummary(
                    schema=merged.schema, record_count=merged.record_count,
                    distinct_types=merged.distinct_types, stats=merged.stats,
                ),
                sources=[source],
            )
        with tr.span("store.checkpoint.load_checkpoint"):
            load_checkpoint(directory / "checkpoint")
    commit_args["journal_bytes"] = os.path.getsize(directory / "journal.rjl")
    save_args["checkpoint_bytes"] = _dir_bytes(directory / "checkpoint")
    shutil.rmtree(directory, ignore_errors=True)


def make_workload(ctx, name: str, data_dir: Path, work_dir: Path):
    cls = FeedWorkload if name == "feed-twitter" else ScanWorkload
    return cls(ctx, name, data_dir, work_dir)
