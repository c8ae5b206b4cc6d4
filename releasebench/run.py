"""Release benchmark: one workload, many releases, every metric by name.

Run from the root of a repository checkout::

    python3 releasebench/run.py --workload incremental-release --seed 1 --seconds 20 --trace 0

Each repetition sets up fresh inputs, then times one release through
the public API (``PropellerPipeline.run()`` or ``.reoptimize()`` plus
``PipelineResult.report(include_frontend=True)``), then checks its
output outside the timed region.  Repetitions continue while the next
one is expected to end within ``--seconds`` of measuring (and until at
least a minimum count ran).  The first repetition is a warm-up: it is
checked, but left out of the timings.  Metrics are medians over the
other repetitions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions (see ``layers.py``) and prints the
per-layer metrics listed in ``predictions.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when the
repository's ``src/repro`` package is not beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import procstat
from layers import ROOT, LayerTracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Minimum repetitions per run, the warm-up included.  With
#: ``--trace 1`` they alternate, untraced first, so the pool workers
#: start before any function is replaced.
MIN_REPS = 4
#: Leading repetitions left out of the timings: they pay for the pool's
#: start and the program's lazy imports.
WARMUP_REPS = 1
#: Extra set-ups per run, so that ``setup_s`` is a median of several.
SETUP_SAMPLES = 10
#: Primings per run of a workload that builds on a primed state.
PRIME_SAMPLES = 3

END_TO_END_UNITS = {
    "release_s": "s",
    "release_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cycles_improvement": "ratio",
    "optimized_text_bytes": "bytes",
    "sim_build_s": "sim_s",
    "sim_peak_mem_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass
class Rep:
    """One repetition's measurements."""

    traced: bool
    warmup: bool = False
    error: Optional[str] = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    exact: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_rep(bench, traced: bool, warmup: bool) -> Rep:
    from workloads import check_release, exact_metrics, release_counts

    release = bench.setup()
    rep = Rep(traced=traced, warmup=warmup)
    tracer = LayerTracer() if traced else None
    try:
        gc.collect()
        procstat.reset_peak_rss()
        cpu0 = procstat.cpu_seconds()
        start = time.perf_counter()
        if tracer is not None:
            with tracer:
                root = tracer.open(ROOT)
                result, report = bench.release(release)
                tracer.close(root)
        else:
            result, report = bench.release(release)
        rep.wall_s = time.perf_counter() - start
        rep.cpu_s = procstat.cpu_seconds() - cpu0
        rep.rss_mb = procstat.peak_rss_bytes() / (1 << 20)
        rep.error = check_release(result, bench.check_seed)
        rep.digest = result.optimized.executable.content_digest()
        rep.exact = exact_metrics(result, report)
        rep.counts = release_counts(result)
        if tracer is not None:
            rep.layers = {**rep.counts, **tracer.metrics()}
            missing = sorted(bench.workload.layers - {s.layer for s in tracer.spans})
            if missing and rep.error is None:
                rep.error = f"coverage: no spans recorded for {', '.join(missing)}"
    except Exception:
        rep.error = traceback.format_exc()
    finally:
        bench.cleanup(release)
    return rep


def _check_repeats(reps: List[Rep]) -> None:
    """Fail any rep whose artifacts or deterministic counts differ from
    the first good rep's: every rep must do the same work."""
    from workloads import DETERMINISTIC_COUNTERS

    good = [rep for rep in reps if rep.error is None]
    if not good:
        return
    ref = good[0]
    for rep in good[1:]:
        if rep.digest != ref.digest:
            rep.error = f"optimized digest {rep.digest} != {ref.digest}"
        elif rep.exact != ref.exact:
            rep.error = f"exact metrics differ: {rep.exact} != {ref.exact}"
        else:
            differ = [name for name in DETERMINISTIC_COUNTERS
                      if rep.counts[name] != ref.counts[name]]
            if differ:
                rep.error = f"deterministic counts differ: {', '.join(differ)}"


def _end_to_end(reps: List[Rep], bench) -> Dict[str, float]:
    metrics = {"setup_s": bench.prime_s + median(bench.setup_s),
               "ok_frac": sum(r.error is None for r in reps) / len(reps)}
    good = [r for r in reps if r.error is None and not r.traced and not r.warmup]
    if good:
        metrics.update({
            "release_s": median([r.wall_s for r in good]),
            "release_cpu_s": median([r.cpu_s for r in good]),
            "peak_rss_mb": median([r.rss_mb for r in good]),
            **good[0].exact,
        })
    return metrics


def _per_layer(reps: List[Rep], bench, names) -> Dict[str, float]:
    metrics = {"synth.generate_s": median(bench.generate_s)}
    traced = [r for r in reps if r.error is None and r.traced]
    plain = [r for r in reps if r.error is None and not r.traced and not r.warmup]
    if traced and plain:
        metrics["trace.overhead_s"] = (median([r.wall_s for r in traced])
                                       - median([r.wall_s for r in plain]))
        for name in names:
            if name not in metrics:
                metrics[name] = median([r.layers.get(name, 0) for r in traced])
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"releasebench: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A user cache would turn the cold release's misses into hits.
    os.environ.pop("REPRO_CACHE_DIR", None)

    from repro.runtime.executor import shared_executor
    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"releasebench: unknown workload {args.workload!r}; "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    predictions = json.loads((HERE / "predictions.json").read_text())
    layer_units = {name: spec["unit"] for name, spec in predictions["per_layer"].items()}

    work_root = Path.cwd() / ".bench_work"
    workdir = work_root / f"releasebench-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
    # Exit through the finally below (and the pool's atexit shutdown).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    reps: List[Rep] = []
    try:
        bench.prime(PRIME_SAMPLES)
        bench.sample_setups(SETUP_SAMPLES)
        start = time.perf_counter()
        took: List[float] = []
        while len(reps) < MIN_REPS or (
                time.perf_counter() - start + median(took) <= args.seconds):
            rep_start = time.perf_counter()
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(_run_rep(bench, traced, warmup=len(reps) < WARMUP_REPS))
            took.append(time.perf_counter() - rep_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
        # Stop the pool workers the releases started, waiting for them.
        shared_executor(bench.jobs or 1).close()

    _check_repeats(reps)
    failed = [r for r in reps if r.error is not None]
    for rep in failed:
        print(f"releasebench: failed release: {rep.error}", file=sys.stderr)
    if args.trace:
        values = _per_layer(reps, bench, layer_units)
        units = layer_units
    else:
        values = _end_to_end(reps, bench)
        units = END_TO_END_UNITS
    missing = [name for name in units if name not in values]
    digest = next((r.digest for r in reps if r.error is None), "-")
    print(f"workload {args.workload}  seed {args.seed}  jobs {bench.jobs}  "
          f"releases {len(reps)} ({sum(r.traced for r in reps)} traced)  "
          f"failed_frac {len(failed) / len(reps):.3f}  optimized digest {digest}")
    print("  release wall s: " + " ".join(
        f"{r.wall_s:.3f}{'w' if r.warmup else 't' if r.traced else ''}"
        for r in reps))
    for name in units:
        if name in values:
            print(f"  {name:<26} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": not failed and not missing,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
