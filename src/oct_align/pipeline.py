"""End-to-end synthetic experiment: phantoms, corruption, recovery, report.

Generates ``volumes`` phantoms, corrupts each ``repeats`` times with
protocol motion (independent axial shifts in [-15, 15] px; 3 to 5 grouped
integer transverse shifts in the same range), recovers the motion with
every method, and aggregates mean/std recovery errors into a versioned,
deterministic JSON report.

Methods reported: the supervised closed form, the unsupervised estimate
(the template chain refined by a subpixel step per link), template
matching (axial); retina-masked and unmasked projection matching
(transverse, the unmasked run mirrors the no-layer-mask ablation).
"""

from __future__ import annotations

import time

import numpy as np

from .align import AlignConfig, _chain_estimates, apply_axial_correction, optimize_alignment
from .errors import ConfigError
from .metrics import adjacent_ncc, motion_error
from .synth import PhantomSpec, generate_phantom, simulate_motion
from .transverse import TRANSVERSE_RADIUS, align_transverse

REPORT_SCHEMA = 1

# recovery axis -> the methods each work item reports an error for
_METHODS = {
    "axial": ("supervised", "unsupervised", "template"),
    "transverse": ("masked", "no_layer_mask"),
}


def phantom_seed(seed: int, index: int) -> int:
    return seed * 100003 + index


def motion_seed(seed: int, index: int, repeat: int) -> int:
    return seed * 100003 + index * 1009 + repeat + 1


def run_volume(params: tuple) -> dict:
    """One phantom/corruption work item; top-level so process pools can pickle it.
    ``params`` is ``run_pipeline``'s tuple (seed, phantom index, repeat,
    dims, AlignConfig)."""
    seed, index, repeat, dims, cfg = params
    t = {}
    spec = PhantomSpec(n_b=dims[0], n_a=dims[1], n_r=dims[2], seed=phantom_seed(seed, index))
    vol, surf = generate_phantom(spec)
    cvol, csurf, motion = simulate_motion(vol, surf, seed=motion_seed(seed, index, repeat))

    t0 = time.perf_counter()
    d_sup = optimize_alignment(cvol, csurf, cfg)
    t["supervised_align_s"] = time.perf_counter() - t0
    # the template chain is both the template baseline and, with its subpixel
    # offsets, the unsupervised estimate; it runs once and is timed as the
    # template stage
    t0 = time.perf_counter()
    d_tmp, d_uns, _ = _chain_estimates(cvol, cfg)
    t["template_align_s"] = time.perf_counter() - t0

    ax_sup = motion_error(d_sup, motion)[0]
    ax_uns = motion_error(d_uns, motion)[0]
    ax_tmp = motion_error(d_tmp, motion)[0]

    v_ax, s_ax = apply_axial_correction(cvol, csurf, d_sup)
    t0 = time.perf_counter()
    t_masked = align_transverse(v_ax, s_ax, layer_mask=True)
    t_nolayer = align_transverse(v_ax, s_ax, layer_mask=False)
    t["transverse_align_s"] = time.perf_counter() - t0
    tr_masked = motion_error(t_masked, motion)[1]
    tr_nolayer = motion_error(t_nolayer, motion)[1]

    record = {
        "phantom": index,
        "repeat": repeat,
        "axial_err_px": {
            "supervised": ax_sup,
            "unsupervised": ax_uns,
            "template": ax_tmp,
        },
        "transverse_err_px": {
            "masked": tr_masked,
            "no_layer_mask": tr_nolayer,
        },
        "ncc_adjacent": {
            "before": adjacent_ncc(cvol),
            "after_axial": adjacent_ncc(v_ax),
        },
    }
    return {"record": record, "timing": t}


def _mean_std(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean_px": float(arr.mean()), "std_px": float(arr.std())}


def run_pipeline(seed: int = 0, volumes: int = 20, repeats: int = 5,
                 dims: tuple[int, int, int] = (24, 64, 96), jobs: int = 1,
                 align_overrides: dict | None = None):
    """Run the synthetic suite; returns (report, timings).

    The protocol's motion amplitude fixes both searches: the axial one at
    ``AlignConfig``'s default radius (``align_overrides`` may change it) and
    the transverse one at ``TRANSVERSE_RADIUS``.  The report is a pure
    function of the arguments (timings are returned separately so the report
    stays byte-stable across runs).  The process pool is imported only when
    ``jobs > 1`` so that a serial run, and every other command, starts
    without loading ``concurrent.futures.process`` and ``multiprocessing``.
    """
    for name, value in (("volumes", volumes), ("repeats", repeats), ("jobs", jobs)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    # a bad config or radius fails here, before any phantom is built or
    # worker started; each item's searches would reject the radius only later
    cfg = AlignConfig(**(align_overrides or {}))
    if cfg.search_radius >= dims[2]:
        raise ConfigError(f"search radius {cfg.search_radius} must be below N_R={dims[2]}")
    if dims[1] <= TRANSVERSE_RADIUS:
        raise ConfigError(f"N_A={dims[1]} must exceed the transverse search radius "
                          f"{TRANSVERSE_RADIUS}")
    work = [(seed, i, j, tuple(dims), cfg) for i in range(volumes) for j in range(repeats)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers up front, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            results = list(pool.map(run_volume, work))
    else:
        results = [run_volume(w) for w in work]

    records = [r["record"] for r in results]
    timings: dict[str, float] = {}
    for r in results:
        for k, v in r["timing"].items():
            timings[k] = timings.get(k, 0.0) + v

    def column(group, key):
        return [rec[group][key] for rec in records]

    recovery = {}
    per_phantom = [{"phantom": i} for i in range(volumes)]
    for axis, methods in _METHODS.items():
        summary = recovery[f"{axis}_recovery_px"] = {}
        for method in methods:
            errs = column(f"{axis}_err_px", method)
            summary[method] = _mean_std(errs)
            # the items run phantom-major: row i holds phantom i's repeats
            means = np.reshape(errs, (volumes, repeats)).mean(axis=1)
            for row, mean in zip(per_phantom, means):
                row[f"{axis}_{method}_mean_px"] = float(mean)

    report = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "volumes": volumes,
        "repeats": repeats,
        "total_corrupted_volumes": volumes * repeats,
        "dims": {"n_b": dims[0], "n_a": dims[1], "n_r": dims[2]},
        "n_layers": PhantomSpec.n_layers,
        "search_radius_px": cfg.search_radius,
        "transverse_search_radius_px": TRANSVERSE_RADIUS,
        **recovery,
        "ncc_adjacent": {
            "before_mean": float(np.mean(column("ncc_adjacent", "before"))),
            "after_axial_mean": float(np.mean(column("ncc_adjacent", "after_axial"))),
        },
        "per_phantom": per_phantom,
        "per_volume": records,
    }
    return report, timings
