"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py --seed 3

Runs every workload for one op, untraced and traced, with ``--smoke``
(every volume at the suite size, 24x64x96, and a one-volume quality
batch), and asserts:

* each run prints the result object with exactly its four keys, and
  every metric of BENCHMARK.json with its declared unit, no more, no less;
* BENCHMARK.json declares every metric in REQUIRED_END_TO_END and
  REQUIRED_PER_LAYER, the metrics the benchmark was defined to report;
* every op passes its output check;
* a deliberately corrupted output is counted as a failed op;
* without the program's sources next to it the benchmark exits non-zero
  and prints no result.

Takes about a minute on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

REQUIRED_END_TO_END = (
    "item_s_p50", "item_s_tail", "items_per_s", "setup_s", "peak_rss_mb", "ok_rate",
    "axial_err_px.supervised", "axial_err_px.unsupervised", "axial_err_px.template",
)
REQUIRED_PER_LAYER = (
    "align.optimize_alignment.unsupervised.busy_s", "align.optimize_alignment.supervised.busy_s",
    "align.template_match_align.busy_s",
    "align.optimize_alignment.supervised.sweeps", "align.optimize_alignment.unsupervised.sweeps",
    "align.optimize_alignment.supervised.moved_frac",
    "align.optimize_alignment.unsupervised.moved_frac",
    "align.apply_axial_correction.busy_s", "resample.resample_axial.busy_s",
    "resample.resample_axial.gb_per_s_computed",
    "transverse.align_transverse.masked.busy_s",
    "transverse.align_transverse.no_layer_mask.busy_s",
    "synth.generate_phantom.busy_s", "synth.simulate_motion.busy_s",
    "metrics.hd95.busy_s", "metrics.mean_abs_distance.busy_s",
    "metrics.connectivity_histogram.busy_s",
    "postprocess.flatten_to_bm.busy_s", "postprocess.crop_rows.busy_s",
    "postprocess.fix_surface_order.busy_s", "losses.segmentation_loss.busy_s",
    "io.read_volume.busy_s", "io.write_volume.busy_s", "io.read_surfaces.busy_s",
    "io.write_surfaces.busy_s", "io.write_displacements.busy_s", "io.write_json.busy_s",
    "io.bytes_written", "io.bytes_read",
    "metrics.motion_error.busy_s", "metrics.adjacent_ncc.busy_s",
    "pipeline.timings.supervised_align_s", "pipeline.timings.unsupervised_align_s",
    "pipeline.timings.template_align_s", "pipeline.timings.transverse_align_s",
    "pipeline.worker_util", "trace.overhead_s",
    "transverse_err_px.masked", "transverse_err_px.no_layer_mask",
)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check_shape(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), "names or units differ")
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], float), name


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for names, kind in ((REQUIRED_END_TO_END, 0), (REQUIRED_PER_LAYER, 1)):
        missing = set(names) - {m["name"] for m in declared[kind]}
        assert not missing, f"BENCHMARK.json lacks {sorted(missing)}"

    common = ("--seed", str(args.seed), "--seconds", "0", "--smoke")
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            result, detail = result_of(bench(ROOT, "--workload", w, "--trace", str(trace),
                                             *common))
            check_shape(result, declared[trace])
            assert result["correct"] and result["failed"] == 0, (w, trace, detail["problems"])
            print(f"ok  {w} trace={trace}: {result['attempted']} op(s)")

    for w in ("suite_small", "eval_io"):
        result, detail = result_of(bench(ROOT, "--workload", w, "--trace", "0",
                                         "--fault-op", "0", *common))
        check_shape(result, declared[0])
        assert result["failed"] == 1 and not result["correct"], (w, result)
        assert result["metrics"]["ok_rate"]["value"] < 1.0
        assert detail["error_rate"] == 1.0 / result["attempted"], detail["error_rate"]
        print(f"ok  {w}: a corrupted output counts as a failed op")

    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", "suite_small", "--trace", "0", *common)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  without the program's sources: exit", proc.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # a benchmark run may still use it
            bare.parent.rmdir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
