"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads suite_small eval_io --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1-10 --trace-seeds 1-3 --out perfbench/BENCH_2.json

For every workload and metric it prints the median of the per-run values
and the spread, the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  Runs go one after another, never side by side, so
they do not compete for the two cores.  ``--out`` writes every run's
result and detail line plus the summary, as a BENCH trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds(text_list: list[str]) -> list[int]:
    out = []
    for text in text_list:
        lo, _, hi = text.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        row = {"unit": m["unit"], "median": med, "min": min(values), "max": max(values)}
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        if "bound" in m:
            row["bound"] = m["bound"]
        out[m["name"]] = row
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", default=["1-10"], help="e.g. 1-10 or 3 5 8")
    p.add_argument("--trace-seeds", nargs="*", default=[], help="seeds for traced runs")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    report = {"run_seconds": args.seconds, "workloads": {}}
    for w in args.workloads:
        runs = [run_once(w, s, args.seconds, 0) for s in seeds(args.seeds)]
        entry = {"end_to_end": summarise(runs, spec["end_to_end"]), "runs": runs}
        print(f"== {w}: {len(runs)} runs, correct={all(r['result']['correct'] for r in runs)}")
        for name, row in entry["end_to_end"].items():
            spread = row.get("spread")
            flag = "" if spread is None or spread <= row["bound"] / 3 else "  <-- over bound/3"
            print(f"  {name:28s} median {row['median']:.6g} {row['unit']:6s} "
                  f"spread {spread if spread is None else round(spread, 4)} "
                  f"bound {row['bound']}{flag}")
        if args.trace_seeds:
            truns = [run_once(w, s, args.seconds, 1) for s in seeds(args.trace_seeds)]
            entry["per_layer"] = summarise(truns, spec["per_layer"])
            entry["trace_runs"] = truns
            print(f"  traced: {len(truns)} runs, "
                  f"correct={all(r['result']['correct'] for r in truns)}")
        report["workloads"][w] = entry
        sys.stdout.flush()
    if args.out:
        report["facts"] = next(iter(report["workloads"].values()))["runs"][0]["detail"]["facts"]
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
