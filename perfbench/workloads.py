"""The benchmark workloads: inputs made from a seed, the op, and its output check.

Every workload is a closed loop with one client: an op starts only after
the previous one returned.  An op enters the program where a user does,
through ``pipeline.run_pipeline`` or the ``cli`` commands, and receives
only inputs generated here from the benchmark seed.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from oct_align import cli, io, pipeline
from oct_align.core import SurfaceSet, surfaces_to_labels
from oct_align.postprocess import fix_surface_order
from oct_align.resample import resample_axial
from oct_align.synth import PhantomSpec, generate_phantom, simulate_motion

import replay

SUITE_DIMS = (24, 64, 96)        # the pipeline's default B-scan size
CLINICAL_DIMS = (49, 256, 192)   # a clinical OCT volume
PARALLEL_JOBS = 2
PARALLEL_BATCH = 4               # work items per suite_parallel op, two per worker
PRED_OFFSET_PX = 0.5             # |prediction - truth| everywhere, for the closed-form MAD
SUPERVISED_MEAN_MAX_PX = 2.5     # acceptance criterion 1
MASKED_TRANSVERSE_MEAN_MAX_PX = 6.0  # acceptance criterion 2
QUALITY_SEED = 7                 # the acceptance suite's seed
QUALITY_VOLUMES = 2


def op_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def report_bytes(report: dict) -> bytes:
    """The bytes ``cli pipeline`` writes to report.json for this report."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def suite_problems(report: dict) -> list[str]:
    """Per-volume checks: finite errors, and adjacent NCC not lowered by correction."""
    problems = []
    for rec in report["per_volume"]:
        tag = f"phantom {rec['phantom']} repeat {rec['repeat']}"
        errs = list(rec["axial_err_px"].values()) + list(rec["transverse_err_px"].values())
        if not all(math.isfinite(e) for e in errs):
            problems.append(f"{tag}: non-finite recovery error")
        ncc = rec["ncc_adjacent"]
        if not ncc["after_axial"] >= ncc["before"]:
            problems.append(f"{tag}: adjacent NCC fell from {ncc['before']} to {ncc['after_axial']}")
    return problems


def recovery_problems(records: list[dict]) -> list[str]:
    """Run-level bounds of acceptance criteria 1 and 2 over all volumes of a run."""
    if not records:
        return []
    sup = float(np.mean([r["axial_err_px"]["supervised"] for r in records]))
    masked = float(np.mean([r["transverse_err_px"]["masked"] for r in records]))
    problems = []
    if not sup <= SUPERVISED_MEAN_MAX_PX:
        problems.append(f"supervised axial mean {sup} px exceeds {SUPERVISED_MEAN_MAX_PX}")
    if not masked <= MASKED_TRANSVERSE_MEAN_MAX_PX:
        problems.append(f"masked transverse mean {masked} px exceeds "
                        f"{MASKED_TRANSVERSE_MEAN_MAX_PX}")
    return problems


class Suite:
    """``run_pipeline`` over ``volumes`` freshly seeded work items per op."""

    def __init__(self, dims, volumes: int = 1, jobs: int = 1, overrides: dict | None = None):
        self.dims, self.volumes, self.jobs = tuple(dims), volumes, jobs
        self.overrides = dict(overrides or {})
        self.items_per_op = volumes
        self.seed = 0
        self.records: list[dict] = []

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def run(self, i: int, jobs: int | None = None):
        return pipeline.run_pipeline(seed=op_seed(self.seed, i), volumes=self.volumes,
                                     repeats=1, dims=self.dims,
                                     jobs=self.jobs if jobs is None else jobs,
                                     align_overrides=self.overrides)

    def op(self, i: int):
        return self.run(i)

    def rerun(self):
        """Op 0 once more; on a pool workload at one job, so the two reports must agree."""
        return self.run(0, jobs=1)

    def check(self, out) -> list[str]:
        report, _timings = out
        self.records.extend(report["per_volume"])
        return suite_problems(report)

    def same(self, a, b) -> bool:
        return report_bytes(a[0]) == report_bytes(b[0])

    def run_problems(self) -> list[str]:
        return recovery_problems(self.records)

    @staticmethod
    def corrupt(out) -> None:
        out[0]["per_volume"][0]["axial_err_px"]["supervised"] = float("nan")

    @staticmethod
    def stages(out) -> dict[str, float]:
        return out[1]

    def replay(self, i: int, tracer: replay.Tracer):
        work = [(op_seed(self.seed, i), v, 0, self.dims, 3, 15, 30, self.overrides)
                for v in range(self.volumes)]
        if self.jobs > 1:
            # The same pool run_pipeline builds, so start-up costs match.
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                results = list(pool.map(replay.replay_suite_item, work))
        else:
            results = [replay.replay_suite_item(w) for w in work]
        for tr, _rec, _probe in results:
            tracer.adopt(tr)
        return [rec for _tr, rec, _probe in results], [p for _tr, _rec, p in results]

    def same_replay(self, out, rout) -> bool:
        return (json.dumps(out[0]["per_volume"], sort_keys=True)
                == json.dumps(rout[0], sort_keys=True))

    def counts(self, rout) -> dict[str, float]:
        return replay.descent_counts(rout[1])


class EvalIO:
    """The file-based commands on one corrupted clinical-size phantom.

    Per op: post-process and write a prediction and a motion estimate, then
    ``apply``, ``preprocess --flatten --crop``, ``eval`` and ``losses``.
    """

    items_per_op = 1
    jobs = 1

    def __init__(self, dims):
        self.dims = tuple(dims)

    def setup(self, seed: int, workdir: Path) -> None:
        n_b, n_a, n_r = self.dims
        rng = np.random.default_rng(seed)
        vol, surf = generate_phantom(PhantomSpec(n_b=n_b, n_a=n_a, n_r=n_r, seed=seed))
        cvol, _csurf, motion = simulate_motion(vol, surf, seed=seed + 1)
        self.out = workdir / "entry"
        self.rout = workdir / "replay"
        for d in (self.out, self.rout):
            d.mkdir(parents=True, exist_ok=True)
        f = {k: workdir / v for k, v in {
            "vol": "vol_corrupt.bin", "gt": "gt.csv", "gt_int": "gt_int.csv", "q": "q.bin",
            "labels": "labels.bin", "weights": "weights.json", "pred": "pred.csv",
            "disp": "disp.csv"}.items()}
        self.files = f
        io.write_volume(f["vol"], cvol)
        io.write_surfaces(f["gt"], surf)
        gt_int = SurfaceSet(np.round(surf.positions))
        gt_int.require_ordered()
        io.write_surfaces(f["gt_int"], gt_int)
        rows = np.arange(1, n_r + 1, dtype=np.float64)
        q = np.exp(-0.5 * ((rows - gt_int.positions[..., None]) / 1.5) ** 2)
        io.write_distributions(f["q"], q / q.sum(axis=-1, keepdims=True))
        io.write_labels(f["labels"], surfaces_to_labels(gt_int, n_r))
        f["weights"].write_text(json.dumps({"lambda_base": 0.1}))

        # The prediction is the truth moved by exactly PRED_OFFSET_PX up or
        # down at every position, then put out of order on one A-scan in
        # ten; fix_surface_order must restore the ordered prediction.
        signs = rng.choice([-1.0, 1.0], size=surf.positions.shape)
        self.pred = surf.positions + PRED_OFFSET_PX * signs
        if not np.all(np.diff(self.pred, axis=0) > 0):
            raise RuntimeError("perturbed prediction is not ordered; raise the layer gap")
        shuffled = self.pred.copy()
        swap = rng.random(self.pred.shape[1:]) < 0.1
        shuffled[:, swap] = shuffled[::-1, swap]
        self.pred_raw = SurfaceSet(shuffled)
        self.disp = motion.as_displacement()
        pos = surf.positions
        lo, hi = max(1, int(np.floor(pos.min())) - 4), min(n_r, int(np.ceil(pos.max())) + 4)
        self.crop = f"{lo}:{hi}"
        self.n_surf = pos.shape[0]
        self.expected_ax = resample_axial(cvol, self.disp.axial).data.astype("<f4")
        self.spacing = cvol.spacing

    def _cli(self, argv: list[str]) -> str:
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(stdio.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"oct-align {argv[0]} exited {code}")
        return buf.getvalue()

    def op(self, i: int):
        f, out = self.files, self.out
        io.write_surfaces(f["pred"], fix_surface_order(self.pred_raw))
        io.write_displacements(f["disp"], self.disp)
        self._cli(["apply", "--vol", f["vol"], "--disp", f["disp"], "--out", out / "ax.bin"])
        self._cli(["preprocess", "--vol", out / "ax.bin", "--surfaces", f["gt"], "--flatten",
                   "--crop", self.crop, "--out", out / "pre.bin",
                   "--out-surfaces", out / "pre.csv"])
        self._cli(["eval", "--pred", f["pred"], "--gt", f["gt"], "--vol", out / "ax.bin",
                   "--report", out / "report.json"])
        text = self._cli(["losses", "--q", f["q"], "--surfaces", f["gt_int"],
                          "--labels", f["labels"], "--weights", f["weights"]])
        return {"report": json.loads((out / "report.json").read_text()),
                "losses": json.loads(text), "dir": out}

    def rerun(self):
        return self.op(0)

    def check(self, out) -> list[str]:
        problems = []
        dz = self.spacing[0]
        want = PRED_OFFSET_PX * dz
        mad = out["report"]["mad_um"]
        got = [mad["overall"]["mean_um"], *mad["per_surface"]["mean_um"]]
        if not all(abs(g - want) <= 1e-9 * want for g in got):
            problems.append(f"MAD {got} um, expected {want} um from the injected offset")
        n_b, n_a, _ = self.dims
        mass = self.n_surf * (n_b - 1) * n_a
        for kind in ("pred", "gt"):
            table = np.loadtxt(out["report"]["connectivity_csv"][kind], delimiter=",",
                               skiprows=1, ndmin=2)
            if int(table[:, 2].sum()) != mass:
                problems.append(f"{kind} connectivity mass {int(table[:, 2].sum())} != {mass}")
        back = io.read_volume(out["dir"] / "ax.bin").data
        if not np.array_equal(back, self.expected_ax):
            problems.append("applied volume read back differs from the f32 expectation")
        hd = out["report"]["hd95_um"]["overall"]["mean_um"]
        vals = [hd, out["report"]["ncc_adjacent"], *(v for k, v in out["losses"].items()
                                                    if k != "lambda_l")]
        if not all(math.isfinite(v) for v in vals):
            problems.append("non-finite hd95, NCC or loss value")
        return problems

    def same(self, a, b) -> bool:
        return (json.dumps(a["report"]["mad_um"]) == json.dumps(b["report"]["mad_um"])
                and json.dumps(a["losses"]) == json.dumps(b["losses"]))

    def run_problems(self) -> list[str]:
        return []

    @staticmethod
    def corrupt(out) -> None:
        out["report"]["mad_um"]["overall"]["mean_um"] += 1.0

    @staticmethod
    def stages(out) -> dict[str, float]:
        return {}

    def replay(self, i: int, tracer: replay.Tracer):
        losses = replay.replay_eval_io(tracer, self.files, self.pred_raw, self.disp,
                                       self.crop, self.rout)
        return {"losses": losses, "dir": self.rout}

    def same_replay(self, out, rout) -> bool:
        names = ("ax.bin", "pre.bin", "pre.csv", "report_connectivity_pred.csv",
                 "report_connectivity_gt.csv")
        if any((out["dir"] / n).read_bytes() != (rout["dir"] / n).read_bytes() for n in names):
            return False
        rep = json.loads((rout["dir"] / "report.json").read_text())
        entry = dict(out["report"])
        for r in (rep, entry):
            r.pop("connectivity_csv")
        return (json.dumps(rep, sort_keys=True) == json.dumps(entry, sort_keys=True)
                and json.dumps(rout["losses"], sort_keys=True)
                == json.dumps(out["losses"], sort_keys=True))

    def counts(self, rout) -> dict[str, float]:
        return {}


def quality_batch(smoke: bool) -> tuple[dict[str, float], list[str]]:
    """Recovery errors on a fixed batch, the same in every run of every workload.

    The batch is the first items of the acceptance suite (seed 7), so its
    errors are exact and repeatable, and a change that picks worse shifts
    moves them whatever seed the run was given.
    """
    report, _timings = pipeline.run_pipeline(
        seed=QUALITY_SEED, volumes=1 if smoke else QUALITY_VOLUMES, repeats=1,
        dims=SUITE_DIMS, jobs=1)
    values = {f"axial_err_px.{m}": v["mean_px"] for m, v in report["axial_recovery_px"].items()}
    values.update({f"transverse_err_px.{m}": v["mean_px"]
                   for m, v in report["transverse_recovery_px"].items()})
    problems = suite_problems(report) + recovery_problems(report["per_volume"])
    return values, [f"quality batch: {p}" for p in problems]


def make(name: str, smoke: bool):
    # Smoke runs shrink every volume to the suite size: the protocol's
    # +-15 px motion and 30 px transverse search need at least that much.
    large = SUITE_DIMS if smoke else CLINICAL_DIMS
    if name == "suite_small":
        return Suite(SUITE_DIMS)
    if name == "clinical":
        # One sweep per descent: whether a seed's descent stops after one
        # sweep or two changes a clinical op by a third, and one or two
        # ops per run cannot average that out.  suite_small keeps the
        # default and carries the variation.
        return Suite(large, overrides={"max_iters": 1})
    if name == "suite_parallel":
        return Suite(SUITE_DIMS, volumes=PARALLEL_BATCH, jobs=PARALLEL_JOBS)
    if name == "eval_io":
        return EvalIO(large)
    raise ValueError(f"unknown workload {name!r}")
