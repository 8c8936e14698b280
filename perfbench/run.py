"""Benchmark of campaignkit's run -> log -> report pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 7 --seconds 45 --trace 0

Workloads (why each exists is in BENCHMARK.json):

- ``scan``: tier-1's acceptance campaign at a tenth of its population and a
  fifth of its groups (3,000 agents, 800 groups); its report's key terms are
  those of the volunteers' pooled replies.
- ``conversations``: a smaller campaign whose agents reply and interact
  often; its report's key terms are those of seeded synthetic corpora
  (about 3,000 terms, 200 documents a side, one planted term).

A pass is one campaign, then the report over the log it wrote: analysis
(read, validate, replay, labels, metrics, table) and key-term extraction,
repeated in turn with a fresh set-up, twice at least and for at least 35% of
the campaign's time. The run sets up its inputs three times, then runs two
passes at least and more for about ``--seconds``; every timing is the median
of its samples.

Timings are the process's CPU time (``perfbench/workloads.py`` says why). A
block of a fixed pure-Python probe runs before every timed step, and timings
are reported scaled to a host of fixed speed by the median of the run's probe
blocks (``perfbench/probe.py`` says why); a ``raw`` line on standard output
gives the unscaled CPU and wall medians.

Every operation's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` (operations whose
output failed a check) and ``metrics``. With ``--trace 1`` the run measures
untraced for half of ``--seconds`` (one pass at least), then one pass with
every layer's public callables wrapped, and prints per-layer metrics instead,
including the tracing overhead.

Each campaign's log is summarised in a ``witness`` line (event count, bytes,
sha256, ``src/`` line count). A log that differs from an earlier log of the
same code and seed fails the run. Scratch files go to ``.perfbench/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "conversations"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_identity() -> tuple[str, int]:
    """Digest of the program and benchmark sources, and src/'s Python lines."""
    digest = hashlib.sha256()
    lines = 0
    files = sorted(SRC.rglob("*")) + sorted((ROOT / "perfbench").rglob("*.py"))
    for path in files:
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        if path.suffix == ".py" and SRC in path.parents:
            lines += data.count(b"\n")
    return digest.hexdigest(), lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "campaignkit" / "__init__.py").is_file():
        print(f"perfbench: no campaignkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(SRC), str(ROOT)]

    from perfbench import spans, workloads

    digest, src_lines = code_identity()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        run = workloads.Run(
            workload=args.workload,
            seed=args.seed,
            workdir=workdir,
            witness_path=SCRATCH / "witness" / f"{digest[:20]}-{args.workload}-{args.seed}.json",
            src_lines=src_lines,
        )
        workload = workloads.WORKLOADS[args.workload]
        state = workloads.set_up(workload, run)
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        workloads.measure(workload, run, state, untraced_s, traced=False,
                          min_passes=1 if args.trace else workloads.MIN_PASSES)
        if args.trace:
            untraced = run.samples
            tracer = spans.Tracer()
            with spans.install(tracer):
                run.tracer = tracer
                passes = workloads.measure(workload, run, state, 0.0, traced=True)
                run.tracer = None
            metrics = traced_metrics(run, tracer, passes, untraced)
            if tracer.absent:
                print(f"absent from tracing: {', '.join(tracer.absent)}")
        else:
            metrics = workloads.end_to_end(run)
            print("raw " + " ".join(
                f"{m}={median(run.samples[m]):.4f} wall.{m}={median(run.wall[m]):.4f}"
                for m in TIMED
            ) + f" setup_s={median(run.setup_s):.4f} probe_s={median(run.probes):.5f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


TIMED = ("campaign_s", "analyze_s", "keyterms_s")


def traced_metrics(run, tracer, passes, untraced) -> dict:
    from perfbench import probe, spans

    traced = run.samples
    timed_s = sum(sum(run.wall[m]) for m in TIMED)  # spans are wall time
    metrics = spans.layer_metrics(tracer, passes, timed_s)
    for m in TIMED:
        scale = run.scale(probe.CAMPAIGN_SENSITIVITY if m == "campaign_s" else 1.0)
        overhead = (median(traced[m]) - median(untraced[m])) * scale
        metrics[f"trace.overhead.{m}"] = (overhead, "s")
    metrics["host.probe_s"] = (median(run.probes), "s")
    metrics["eventlog.bytes_written"] = (float(run.witness.log_bytes), "bytes")
    metrics["witness.events"] = (float(run.witness.events), "count")
    metrics["witness.src_lines"] = (float(run.src_lines), "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
