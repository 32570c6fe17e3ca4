"""oct-align benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload suite_small --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory.  With ``--trace 0`` the run measures the end-to-end
metrics of BENCHMARK.json with no tracing; with ``--trace 1`` it replays
each op with a span around every public layer call and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it holds the run's details (machine facts, samples, problems).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("suite_small", "clinical", "eval_io", "suite_parallel")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Layer calls whose self time is reported as <name>.busy_s.
BUSY_LAYERS = (
    "synth.generate_phantom", "synth.simulate_motion",
    "align.optimize_alignment.supervised", "align.optimize_alignment.unsupervised",
    "align.template_match_align", "align.apply_axial_correction",
    "resample.resample_axial",
    "transverse.align_transverse.masked", "transverse.align_transverse.no_layer_mask",
    "metrics.motion_error", "metrics.adjacent_ncc", "metrics.hd95",
    "metrics.mean_abs_distance", "metrics.connectivity_histogram",
    "metrics.write_histogram_csv",
    "postprocess.flatten_to_bm", "postprocess.crop_rows", "postprocess.fix_surface_order",
    "losses.smoothness_weights", "losses.segmentation_loss",
    "io.read_volume", "io.write_volume", "io.read_surfaces", "io.write_surfaces",
    "io.read_displacements", "io.write_displacements", "io.read_distributions",
    "io.read_labels", "io.write_json",
)
STAGES = ("supervised_align_s", "unsupervised_align_s", "template_align_s",
          "transverse_align_s")
DESCENT_COUNTS = tuple(f"align.optimize_alignment.{m}.{c}"
                       for c in ("sweeps", "moved_frac") for m in ("supervised", "unsupervised"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="suite-size volumes and a one-volume quality batch (perfbench/smoke.py)")
    p.add_argument("--fault-op", type=int, default=-1,
                   help="corrupt the output of this op before its check (smoke test)")
    return p.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten or fewer samples no percentile has ten beyond it, and the
    maximum is reported as percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * k / (n - 1)


def timed_loop(seconds: float, body) -> tuple[int, float]:
    """Call body(i) one after another; start another only if it fits the window."""
    t0 = time.perf_counter()
    i = 0
    while True:
        start = time.perf_counter()
        body(i)
        i += 1
        end = time.perf_counter()
        if end - t0 + (end - start) > seconds:
            return i, end - t0


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI, as each command pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import oct_align.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - t


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Run:
    """Op outcomes of one run: sample times, failed ops and the reasons."""

    def __init__(self, workload, fault_op: int):
        self.w = workload
        self.fault_op = fault_op
        self.times: list[float] = []
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.first = None

    def entry(self, i: int):
        """Run op i through its entry point and check it; returns the output or None."""
        t = time.perf_counter()
        try:
            out = self.w.op(i)
        except Exception as exc:  # a raising op is a failed op, and the loop goes on
            self.times.append(time.perf_counter() - t)
            self.fail(i, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.times.append(time.perf_counter() - t)
        if i == self.fault_op:
            self.w.corrupt(out)
        self.fail(i, self.w.check(out))
        if i == 0:
            self.first = out
        return out

    def recheck_first(self) -> None:
        """Run op 0 again (one job on pool workloads); its output must not change."""
        if self.first is not None and not self.w.same(self.first, self.w.rerun()):
            self.fail(0, ["a second run of the same inputs gave a different output"])

    def fail(self, i: int, problems: list[str]) -> None:
        if problems:
            self.failed_ops.add(i)
            self.problems.extend(f"op {i}: {p}" for p in problems)


def untraced(w, args, workdir: Path, run: Run, warmup_s: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        imp = import_seconds()
        w.setup(args.seed, workdir)
        setups.append((time.perf_counter() - t, imp))

    n, window = timed_loop(args.seconds, run.entry)
    rss = peak_rss_mb()
    run.recheck_first()
    tail_s, tail_pct = tail(run.times)
    values = {
        "item_s_p50": statistics.median(run.times),
        "item_s_tail": tail_s,
        "items_per_s": n * w.items_per_op / sum(run.times),
        "setup_s": statistics.median(s for s, _ in setups) + warmup_s,
        "peak_rss_mb": rss,
        "ok_rate": (n - len(run.failed_ops)) / n,
    }
    detail = {"ops": n, "window_s": window, "op_s": run.times, "tail_pct": tail_pct,
              "setup_parts_s": {"import": statistics.median(i for _, i in setups),
                                "import_and_inputs": [s for s, _ in setups],
                                "warmup": warmup_s}}
    return values, detail


def traced(w, args, workdir: Path, run: Run) -> tuple[dict, dict]:
    import replay

    w.setup(args.seed, workdir)
    busy: list[dict] = []
    counters: list[dict] = []
    stages: list[dict] = []
    overhead: list[float] = []
    util: list[float] = []
    counts: dict = {}

    def body(i):
        out = run.entry(i)
        if out is None:
            return
        untraced_s = run.times[-1]
        stages.append(w.stages(out))
        util.append(sum(stages[-1].values()) / (w.jobs * untraced_s))
        tracer = replay.Tracer()
        try:
            with tracer.span("op"):
                rout = w.replay(i, tracer)
        except Exception as exc:
            run.fail(i, [f"replay raised {type(exc).__name__}: {exc}"])
            return
        root = tracer.spans[0]
        overhead.append(root["end"] - root["start"] - untraced_s)
        if not w.same_replay(out, rout):
            run.fail(i, ["replay output differs from the entry point's"])
        busy.append(tracer.self_times())
        counters.append(tracer.counters)
        if not counts:
            counts.update(w.counts(rout))

    n, window = timed_loop(args.seconds, body)

    def med(rows, key):
        return statistics.median(r.get(key, 0.0) for r in rows) if rows else 0.0

    values = {f"{name}.busy_s": med(busy, name) for name in BUSY_LAYERS}
    for key in ("io.bytes_read", "io.bytes_written"):
        values[key] = med(counters, key)
    rates = [c.get("resample.resample_axial.bytes", 0.0) / b["resample.resample_axial"] / 1e9
             for c, b in zip(counters, busy) if b.get("resample.resample_axial")]
    values["resample.resample_axial.gb_per_s_computed"] = statistics.median(rates) if rates else 0.0
    for k in STAGES:
        values[f"pipeline.timings.{k}"] = med(stages, k)
    values["pipeline.worker_util"] = statistics.median(util) if util else 0.0
    values["trace.overhead_s"] = statistics.median(overhead) if overhead else 0.0
    for k in DESCENT_COUNTS:
        values[k] = counts.get(k, 0.0)
    detail = {"ops": n, "window_s": window, "untraced_op_s": run.times,
              "overhead_s": overhead}
    return values, detail


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS/OpenMP pools before numpy loads; pool workers inherit the env.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    try:
        import oct_align
    except ImportError as exc:
        print(f"perfbench: cannot import oct_align from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(oct_align.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: oct_align resolved to {oct_align.__file__}, not under {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    facts = machine_facts()
    w = workloads.make(args.workload, args.smoke)
    run = Run(w, args.fault_op)
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    # The warm-up op is the quality batch: fixed inputs, so its share of
    # setup_s does not depend on the seed, and it yields the recovery errors.
    t = time.perf_counter()
    quality, quality_problems = workloads.quality_batch(args.smoke)
    warmup_s = time.perf_counter() - t
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            values, detail = traced(w, args, workdir, run)
        else:
            values, detail = untraced(w, args, workdir, run, warmup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    values.update(quality)
    run_problems = w.run_problems() + quality_problems

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    attempted = detail["ops"]
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "facts": facts,
        "items_per_op": w.items_per_op, "error_rate": len(run.failed_ops) / attempted,
        "problems": (run.problems + run_problems)[:20],
        "unreported": {k: v for k, v in values.items() if k not in metrics},
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not run.failed_ops and not run_problems,
        "attempted": attempted,
        "failed": len(run.failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
