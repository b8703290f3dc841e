#!/usr/bin/env python3
"""End-to-end benchmark of the longitudinal LDP platform.

Run from the root of a checkout::

    python3 perfbench/run.py --backend native --workload grid-syn --seed 1 --seconds 25 --trace 0

Workloads (each module's docstring says what it exercises):

* ``grid-syn``    the paper's protocol line-up over ``syn`` through ``run_sweep``
* ``collect-fq``  a sharded OLOLOHA collection over the file spool, 2 worker processes
* ``ingest-osue`` L-OSUE reports posted to the live ingestion server

Every timing is host-normalised (see ``probe.py``): each timed segment is
rescaled by the host-speed probe taken around it, and the raw seconds are
printed next to it.  ``setup_s`` is the median over several fresh processes,
each timed from its start until the workload's system is ready for input.
``--trace 1`` instead installs the layer wrappers (``layers.py``), alternates
untraced and traced passes, and reports the per-layer metrics.

Outputs are checked on every pass; a wrong output fails the run with exit
code 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 20230328
#: Fresh processes timed from start to ready, per run.
SETUP_SAMPLES = 7

WORKLOADS = {
    "grid-syn": "grid_syn",
    "collect-fq": "collect_fq",
    "ingest-osue": "ingest_osue",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--backend",
        default="native",
        choices=("native", "numpy"),
        help="kernel backend the figures were recorded with; the run refuses "
        "to start when the host's automatic choice differs",
    )
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb one output before it is checked (self-test: the run must fail)",
    )
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Keep every file the program writes inside the checkout."""
    for sub in ("cache", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(WORK / "cache")  # compiled kernel library
    os.environ["TMPDIR"] = str(WORK / "tmp")
    # The host picks the backend ("auto"); main() compares it with the record.
    os.environ["REPRO_KERNEL_BACKEND"] = "auto"
    sys.path.insert(0, str(ROOT / "src"))


def resolved_backend() -> str:
    """Compile or load the kernel backend now, before anything is timed."""
    from repro.simulation.kernels_backend import default_backend

    return default_backend().name


def environment_record(backend: str, seed: int) -> dict:
    import numpy

    from probe import PROBE_REF_S

    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "probe_ref_s": PROBE_REF_S,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
    }


def setup_sample_child(module, args, seeds) -> int:
    """Set the workload up, say READY, hold until stdin closes, tear down."""
    handle = module.setup(seeds, args.tiny)
    print("READY", flush=True)
    sys.stdin.read()
    module.teardown(handle)
    return 0


def measure_setup(args, clock, samples: int):
    """``samples`` fresh processes, each timed from start to READY."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-sample",
        "--workload", args.workload, "--seed", str(args.seed), "--backend", args.backend,
    ] + (["--tiny"] if args.tiny else [])
    segments = []
    for _ in range(samples):
        clock.start()
        child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        try:
            line = child.stdout.readline()
            segments.append(clock.stop())
        finally:
            child.stdin.close()
            child.wait(timeout=60)
        if line.strip() != "READY" or child.returncode != 0:
            raise RuntimeError(
                f"setup sample failed (exit {child.returncode}, said {line.strip()!r})"
            )
    return segments


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare_environment()
    import importlib

    from bench import END_TO_END_UNITS, CheckFailed, Context, Seeds, median
    from probe import HostClock

    backend = resolved_backend()
    if backend != args.backend:
        print(
            f"perfbench: kernel backend resolves to {backend!r}, but the benchmark "
            f"records {args.backend!r}; refusing to run",
            file=sys.stderr,
        )
        return 3
    module = importlib.import_module(WORKLOADS[args.workload])
    seeds = Seeds.from_seed(args.seed)
    if args.setup_sample:
        return setup_sample_child(module, args, seeds)

    run_dir = WORK / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    spans_dir = run_dir / "spans"
    spans_dir.mkdir(parents=True)
    print("env: " + json.dumps(environment_record(backend, args.seed), sort_keys=True))

    clock = HostClock()
    setup_segments = measure_setup(args, clock, 1 if args.tiny else SETUP_SAMPLES)
    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}/{args.seed}")
        layers.install(tracer)
        tracer.enabled = True
        tracer.phase = "setup"
    handle = module.setup(seeds, args.tiny, tracer, spans_dir)
    if tracer is not None:
        tracer.phase = "run"
    ctx = Context(
        seeds=seeds,
        seconds=args.seconds,
        tiny=args.tiny,
        corrupt=args.corrupt,
        work_dir=run_dir,
        clock=clock,
        tracer=tracer,
    )
    try:
        outcome = module.run(ctx, handle)
    except CheckFailed as failure:
        print(f"perfbench: CHECK FAILED on {args.workload}: {failure}", file=sys.stderr)
        return 1
    finally:
        module.teardown(handle)
        if tracer is not None:
            tracer.enabled = False
            tracer.dump(spans_dir / "main.jsonl")
            tracer.uninstall()

    setup_s = median([segment.scaled_s for segment in setup_segments])
    raw_setup_s = median([segment.raw_s for segment in setup_segments])
    rss_mb = outcome.peak_rss_kb / 1024.0
    end_to_end = dict(outcome.timings, setup_s=setup_s, peak_rss_mb=rss_mb)
    for name, value in end_to_end.items():
        unit = END_TO_END_UNITS.get(name, "s")
        raw = outcome.raw.get(name, raw_setup_s if name == "setup_s" else value)
        print(f"{name:>24} = {value:12.6g} {unit:<4} (raw {raw:.6g})")
    print(f"probes_s: {json.dumps([round(p, 6) for p in clock.probes])}")
    print(
        "segments_raw_scaled_s: "
        + json.dumps([[round(s.raw_s, 6), round(s.scaled_s, 6)] for s in clock.segments])
    )

    if args.trace:
        from report import layer_metrics

        span_files = sorted(spans_dir.glob("*.jsonl"))
        metrics = layer_metrics(span_files, outcome, clock.probes, raw_setup_s)
        for name, (value, unit) in metrics.items():
            print(f"{name:>34} = {value:12.6g} {unit}")
    else:
        metrics = {name: (end_to_end[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
