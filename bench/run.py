#!/usr/bin/env python3
"""The ncqm benchmark: one workload, measured for a fixed time, every output checked.

Run from the repository root:

    python3 bench/run.py --workload spectral|density|cli --seed N --seconds S --trace 0|1

The package is imported from `src/` of the checkout the script sits in; without
it the run stops with exit code 2 and prints no result.  Every process the
benchmark starts gets NCQM_THREADS (and the BLAS variables it stands for) set
to THREADS.

--trace 0 repeats the workload's job list until --seconds are used up (at
least MIN_PASSES times) and reports the end-to-end metrics:
  wall_s       job-list time, with each job at its median over the passes;
  setup_s      median over SETUP_PROBES fresh processes of the time from process
               start to `ncqm` imported and the inputs generated;
  peak_rss_mb  largest resident set of this process or of any child.
--trace 1 alternates untraced and traced passes of the same job list and
reports the per-layer metrics of `tracing.py`, medians over the traced passes,
with the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  failed/attempted is the share of jobs that raised or
failed a check.  A fuller record (provenance, failure reasons) goes to
`.bench_run/` in the checkout, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
THREADS = 1       # one BLAS thread: steadier on a shared box, and never above nproc
SETUP_PROBES = 9
MIN_PASSES = 2    # untraced passes of --trace 0, traced passes of --trace 1

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("spectral", "density", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small problems, for the benchmark's own smoke test")
    p.add_argument("--probe", action="store_true",
                   help="internal: import ncqm, generate the inputs, report readiness")
    return p.parse_args(argv)


def thread_env(threads: int) -> dict:
    """NCQM_THREADS and the BLAS variables it stands for, all pinned to one value."""
    names = ("NCQM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {name: str(threads) for name in names}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ncqm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ, **thread_env(THREADS))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _probe(args) -> int:
    """Fresh-process set-up: import ncqm, generate the inputs, print the ready time."""
    import tracing
    import workloads

    lib = tracing.load(str(SRC))
    workloads.make_inputs(lib, args.workload, args.seed, args.size)
    ready = time.monotonic()
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({"ready": ready, "ncqm": lib.package.__file__, "numpy": numpy.__version__,
                      "scipy": scipy.__version__,
                      "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"}))
    return 0


def _setup_probes(args, env: dict) -> tuple[list, dict]:
    times, info = [], {}
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--size", args.size],
            env=env, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(info.pop("ready") - t0)
    return times, info


def _provenance(args, probe_info: dict, load_start: tuple) -> dict:
    rev, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "git_revision": rev, "git_dirty": dirty,
        "source_sha256": source_digest(),
        "python": platform.python_version(), **probe_info,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": load_start,
        "blas_threads": THREADS, "thread_env": thread_env(THREADS),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _check_cli_digests(inp: dict, digests: list, problems: list) -> None:
    """Outputs must repeat byte for byte across passes, and across runs of the same commands and source."""
    first = digests[0]
    for i, d in enumerate(digests[1:], start=2):
        if d != first:
            problems.append(f"cli output of pass {i} differs from pass 1")
    key = hashlib.sha256((source_digest() + json.dumps(inp["commands"])).encode()).hexdigest()[:16]
    store = OUT / "cli-digests" / f"{key}.json"
    if store.exists():
        if json.loads(store.read_text()) != first:
            problems.append(f"cli output differs from an earlier run of the same commands ({store.name})")
    elif None not in first:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(first))
        os.replace(tmp, store)


def _pass(args, inp, lib, env, gate, index: int, tracer=None, inprocess=False) -> tuple:
    """One pass of the job list: wall time, seconds per job, CLI output digests, CLI exit codes."""
    import workloads

    start = len(gate.log)
    codes = []
    t0 = time.perf_counter()
    if args.workload != "cli":
        workloads.RUNNERS[args.workload](lib, inp, gate, tracer)
        blobs = None
    elif inprocess:
        tag = "traced" if tracer is not None else "inproc"
        blobs = workloads.run_cli_inprocess(lib, inp, gate, OUT / "cli" / f"{tag}{index}", codes, tracer)
    else:
        blobs = workloads.run_cli_subprocess(inp, gate, OUT / "cli" / f"pass{index}", env)
    wall = time.perf_counter() - t0
    jobs = {"": wall}  # "" is the time between jobs
    for name, seconds in gate.log[start:]:
        jobs[name] = jobs.get(name, 0.0) + seconds
        jobs[""] -= seconds
    return wall, jobs, (None if blobs is None else workloads.digest(blobs)), codes


def _median_list_time(passes: list) -> float:
    """Job-list time with every job, and the time between jobs, at its median over the passes.

    A slow moment of a shared machine hits one job of one pass; the per-job
    median drops it where the median of whole-pass times would keep it.
    """
    names = {name for jobs in passes for name in jobs}
    return sum(statistics.median(jobs.get(name, 0.0) for jobs in passes) for name in names)


def _measure(args, inp: dict, lib, env: dict, gate, deadline: float) -> tuple[dict, list, dict]:
    """Untraced passes until the deadline; returns metrics, problems and a detail record."""
    walls, passes, digests = [], [], []
    while True:
        wall, jobs, digest, _ = _pass(args, inp, lib, env, gate, len(walls))
        walls.append(wall)
        passes.append(jobs)
        digests.append(digest)
        if len(walls) >= MIN_PASSES and time.monotonic() + wall > deadline:
            break
    problems = []
    if args.workload == "cli":
        _check_cli_digests(inp, digests, problems)
    return {"wall_s": _median_list_time(passes)}, problems, {"pass_walls": walls}


def _measure_traced(args, inp: dict, lib, env: dict, gate, deadline: float):
    """Untraced and traced passes in turn; per-layer medians over the traced ones."""
    import tracing

    cli = args.workload == "cli"
    untraced, traced, metrics, problems, digests, startup = [], [], [], [], [], []
    if cli:
        # a fresh-process pass gives each command's full wall time, import included
        _, fresh, digest, _ = _pass(args, inp, lib, env, gate, 0)
        digests.append(digest)
    while True:
        wall, jobs, digest, _ = _pass(args, inp, lib, env, gate, len(untraced), inprocess=True)
        untraced.append(wall)
        digests.append(digest)
        if cli:
            startup.append(statistics.mean(fresh[n] - jobs[n] for n in fresh if n))
        tracer = tracing.Tracer()
        with tracing.patched(lib, tracer):
            wall, _, digest, codes = _pass(args, inp, lib, env, gate, len(traced), tracer, inprocess=True)
        traced.append(wall)
        digests.append(digest)
        found, bad = tracing.layer_metrics(tracer, wall)
        found["cli.exit_nonzero"] = sum(1 for c in codes if c != 0)
        metrics.append(found)
        problems += bad
        if len(traced) >= MIN_PASSES and time.monotonic() + untraced[-1] + wall > deadline:
            break
    per_layer, bad = tracing.combine(metrics)
    problems += bad
    per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - statistics.median(untraced)
    if cli:
        per_layer["cli.startup_s"] = statistics.median(startup)
        _check_cli_digests(inp, digests, problems)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracing.dump_spans(tracer)))
    return per_layer, problems, {"untraced_walls": untraced, "traced_walls": traced,
                                 "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    started = time.monotonic()
    args = _args(argv)
    if not (SRC / "ncqm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ncqm'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(thread_env(THREADS))  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads

    if args.probe:
        return _probe(args)

    load_start = os.getloadavg()
    env = _child_env()
    setup_times, probe_info = _setup_probes(args, env)
    if not probe_info.get("ncqm", "").startswith(str(SRC)):
        print(f"error: set-up probe imported ncqm from {probe_info.get('ncqm')}", file=sys.stderr)
        return 2

    import tracing

    lib = tracing.load(str(SRC))
    inp = workloads.make_inputs(lib, args.workload, args.seed, args.size)
    gate = workloads.Gate()
    deadline = time.monotonic() + args.seconds
    if args.trace:
        metrics, problems, detail = _measure_traced(args, inp, lib, env, gate, deadline)
        units = tracing.UNITS
    else:
        metrics, problems, detail = _measure(args, inp, lib, env, gate, deadline)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        units = dict(END_TO_END)

    correct = gate.failed == 0 and not problems
    record = {
        "provenance": _provenance(args, probe_info, load_start),
        "setup_probe_s": setup_times,
        **detail,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_frac": gate.failed / max(gate.attempted, 1),
        "failure_reasons": gate.reasons,
        "problems": problems,
        "run_s": time.monotonic() - started,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for reason in gate.reasons + problems:
        print(f"FAIL {reason}", file=sys.stderr)
    print(f"provenance: {json.dumps(record['provenance'], default=str)}")
    print(f"failed_frac: {record['failed_frac']} ({gate.failed}/{gate.attempted} jobs)")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
