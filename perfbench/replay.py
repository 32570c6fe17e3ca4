"""Traced replay of the benchmark ops, one span around each public layer call.

The program has no spans of its own yet, so the traced run re-enacts each
entry point as the sequence of public calls it makes (``pipeline.run_volume``
for the suite workloads, the ``cli.cmd_*`` flows for ``eval_io``) and wraps
every call in a span recorded here.  A replay returns the same outputs as
the entry, and the benchmark checks that they agree byte for byte, so a
replay that drifts from the entry it imitates shows up as a failed op.

The replay sees only the calls an entry makes itself.  What happens inside
them (for example the template chain that ``optimize_alignment`` computes
again as the unsupervised warm start) is part of the caller's span.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oct_align import align, io, losses, metrics, pipeline, postprocess, resample, synth, transverse


class Tracer:
    """Spans of one op kept in memory: name, start, end and parent index."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def adopt(self, other: "Tracer") -> None:
        """Graft the spans of a worker's tracer under the currently open span.

        ``perf_counter`` reads CLOCK_MONOTONIC, which all processes on the
        host share, so worker intervals line up with the parent's.
        """
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for s in other.spans:
            parent = top if s["parent"] is None else base + s["parent"]
            self.spans.append({**s, "parent": parent})
        for k, v in other.counters.items():
            self.count(k, v)

    def self_times(self) -> dict[str, float]:
        """Sum per span name of its duration minus the union of its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, float] = {}
        for idx, s in enumerate(self.spans):
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(idx, [])):
                lo, hi = max(lo, s["start"]), min(hi, s["end"])
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            dur = s["end"] - s["start"]
            out[s["name"]] = out.get(s["name"], 0.0) + max(dur - covered, 0.0)
        return out


# ---------------------------------------------------------------------------
# suite workloads: pipeline.run_volume, call for call


def replay_suite_item(params: tuple) -> tuple[Tracer, dict, dict]:
    """Replay one ``run_volume`` work item; returns (tracer, record, probe).

    ``params`` is the tuple ``run_pipeline`` hands to ``run_volume``.  The
    probe holds what the descent counters need; it is evaluated after the
    op's spans close so it costs the traced op nothing.
    """
    seed, index, repeat, dims, n_layers, radius, t_radius, cfg_kwargs = params
    tr = Tracer()
    with tr.span("item"):
        spec = synth.PhantomSpec(n_b=dims[0], n_a=dims[1], n_r=dims[2], n_layers=n_layers,
                                 seed=pipeline.phantom_seed(seed, index))
        with tr.span("synth.generate_phantom"):
            vol, surf = synth.generate_phantom(spec)
        with tr.span("synth.simulate_motion"):
            cvol, csurf, motion = synth.simulate_motion(
                vol, surf, seed=pipeline.motion_seed(seed, index, repeat))
        cfg = align.AlignConfig(search_radius=radius, **cfg_kwargs)
        sup_trace: list = []
        uns_trace: list = []
        with tr.span("align.optimize_alignment.supervised"):
            d_sup = align.optimize_alignment(cvol, csurf, cfg, trace=sup_trace)
        with tr.span("align.optimize_alignment.unsupervised"):
            d_uns = align.optimize_alignment(cvol, None, cfg, trace=uns_trace)
        with tr.span("align.template_match_align"):
            d_tmp = align.template_match_align(cvol, cfg)
        with tr.span("metrics.motion_error"):
            ax_sup = metrics.motion_error(d_sup, motion)[0]
        with tr.span("metrics.motion_error"):
            ax_uns = metrics.motion_error(d_uns, motion)[0]
        with tr.span("metrics.motion_error"):
            ax_tmp = metrics.motion_error(d_tmp, motion)[0]
        with tr.span("align.apply_axial_correction"):
            v_ax, s_ax = align.apply_axial_correction(cvol, csurf, d_sup)
        with tr.span("transverse.align_transverse.masked"):
            t_masked = transverse.align_transverse(v_ax, s_ax, radius=t_radius, layer_mask=True)
        with tr.span("transverse.align_transverse.no_layer_mask"):
            t_nolayer = transverse.align_transverse(v_ax, s_ax, radius=t_radius,
                                                    layer_mask=False)
        with tr.span("metrics.motion_error"):
            tr_masked = metrics.motion_error(t_masked, motion)[1]
        with tr.span("metrics.motion_error"):
            tr_nolayer = metrics.motion_error(t_nolayer, motion)[1]
        with tr.span("metrics.adjacent_ncc"):
            ncc_before = metrics.adjacent_ncc(cvol)
        with tr.span("metrics.adjacent_ncc"):
            ncc_after = metrics.adjacent_ncc(v_ax)
        record = {
            "phantom": index,
            "repeat": repeat,
            "axial_err_px": {"supervised": ax_sup, "unsupervised": ax_uns, "template": ax_tmp},
            "transverse_err_px": {"masked": tr_masked, "no_layer_mask": tr_nolayer},
            "ncc_adjacent": {"before": ncc_before, "after_axial": ncc_after},
        }
    probe = {"csurf": csurf, "sup": d_sup.axial, "uns": d_uns.axial, "tmp": d_tmp.axial,
             "sup_sweeps": len(sup_trace) - 1, "uns_sweeps": len(uns_trace) - 1}
    return tr, record, probe


def _moved_frac(result: np.ndarray, warm: np.ndarray) -> float:
    """Share of B-scans moved by more than 1e-9 px, up to the free constant.

    The objective cannot see a constant shift, and one moved B-scan moves
    the mean of all of them, so the constant removed is the median
    difference rather than the mean.
    """
    diff = result - warm
    return float(np.mean(np.abs(diff - np.median(diff)) > 1e-9))


def descent_counts(probes: list[dict]) -> dict[str, float]:
    """Sweeps and the share of B-scans the descent moved off its warm start.

    Supervised starts from ``solve_from_surfaces``; unsupervised starts
    from the template chain, which ``template_match_align`` returns
    mean-centred.  Values are means over the op's work items.
    """
    rows = []
    for p in probes:
        warm_sup = align.solve_from_surfaces(p["csurf"]).axial
        rows.append((p["sup_sweeps"], p["uns_sweeps"],
                     _moved_frac(p["sup"], warm_sup), _moved_frac(p["uns"], p["tmp"])))
    sup_sw, uns_sw, sup_mv, uns_mv = (float(np.mean(c)) for c in zip(*rows))
    return {
        "align.optimize_alignment.supervised.sweeps": sup_sw,
        "align.optimize_alignment.unsupervised.sweeps": uns_sw,
        "align.optimize_alignment.supervised.moved_frac": sup_mv,
        "align.optimize_alignment.unsupervised.moved_frac": uns_mv,
    }


# ---------------------------------------------------------------------------
# eval_io: the cli.cmd_* flows, call for call


def _read(tr: Tracer, name: str, fn, path):
    tr.count("io.bytes_read", os.path.getsize(path))
    with tr.span(name):
        return fn(path)


def _write(tr: Tracer, name: str, fn, path, obj) -> None:
    with tr.span(name):
        fn(path, obj)
    tr.count("io.bytes_written", os.path.getsize(path))


def replay_eval_io(tr: Tracer, files: dict, pred_raw, disp, crop: str, out: Path) -> dict:
    """Replay the eval_io op; outputs go to ``out`` and the losses dict is returned."""
    with tr.span("postprocess.fix_surface_order"):
        fixed = postprocess.fix_surface_order(pred_raw)
    _write(tr, "io.write_surfaces", io.write_surfaces, files["pred"], fixed)
    _write(tr, "io.write_displacements", io.write_displacements, files["disp"], disp)

    # apply
    vol = _read(tr, "io.read_volume", io.read_volume, files["vol"])
    d = _read(tr, "io.read_displacements", io.read_displacements, files["disp"])
    with tr.span("resample.resample_axial"):
        corrected = resample.resample_axial(vol, d.axial)
    tr.count("resample.resample_axial.bytes", vol.data.nbytes + corrected.data.nbytes)
    _write(tr, "io.write_volume", io.write_volume, out / "ax.bin", corrected)

    # preprocess --flatten --crop with surfaces
    vol = _read(tr, "io.read_volume", io.read_volume, out / "ax.bin")
    surf = _read(tr, "io.read_surfaces", io.read_surfaces, files["gt"])
    with tr.span("postprocess.flatten_to_bm"):
        vol, _shifts = postprocess.flatten_to_bm(vol)
    lo, hi = (int(x) for x in crop.split(":"))
    with tr.span("postprocess.crop_rows"):
        vol, surf = postprocess.crop_rows(vol, surf, (lo, hi))
    _write(tr, "io.write_volume", io.write_volume, out / "pre.bin", vol)
    _write(tr, "io.write_surfaces", io.write_surfaces, out / "pre.csv", surf)

    # eval
    pred = _read(tr, "io.read_surfaces", io.read_surfaces, files["pred"])
    gt = _read(tr, "io.read_surfaces", io.read_surfaces, files["gt"])
    vol = _read(tr, "io.read_volume", io.read_volume, out / "ax.bin")
    dz, dx = vol.spacing[0], vol.spacing[1]
    report_path = out / "report.json"
    hist_pred = report_path.with_name(report_path.stem + "_connectivity_pred.csv")
    hist_gt = report_path.with_name(report_path.stem + "_connectivity_gt.csv")
    with tr.span("metrics.connectivity_histogram"):
        counts_p, edges_p = metrics.connectivity_histogram(pred)
    with tr.span("metrics.connectivity_histogram"):
        counts_g, edges_g = metrics.connectivity_histogram(gt)
    with tr.span("metrics.write_histogram_csv"):
        metrics.write_histogram_csv(hist_pred, counts_p, edges_p)
    with tr.span("metrics.write_histogram_csv"):
        metrics.write_histogram_csv(hist_gt, counts_g, edges_g)
    with tr.span("metrics.mean_abs_distance"):
        mad = metrics.mean_abs_distance(pred, gt, dz_um=dz)
    with tr.span("metrics.hd95"):
        hd = metrics.hd95(pred, gt, spacing=(dz, dx))
    with tr.span("metrics.adjacent_ncc"):
        ncc = metrics.adjacent_ncc(vol)
    report = {"schema": 1, "mad_um": mad, "hd95_um": hd, "ncc_adjacent": ncc,
              "connectivity_csv": {"pred": str(hist_pred), "gt": str(hist_gt)}}
    _write(tr, "io.write_json", io.write_json, report_path, report)

    # losses (weights carry lambda_base, class probabilities are one-hot labels)
    probs = _read(tr, "io.read_distributions", io.read_distributions, files["q"])
    surf = _read(tr, "io.read_surfaces", io.read_surfaces, files["gt_int"])
    labels = _read(tr, "io.read_labels", io.read_labels, files["labels"])
    with open(files["weights"]) as f:
        wraw = json.load(f)
    with tr.span("losses.smoothness_weights"):
        weights = losses.smoothness_weights(surf, float(wraw["lambda_base"]))
    n_classes = labels.n_surfaces + 1
    class_probs = np.zeros((n_classes, *labels.labels.shape))
    for c in range(n_classes):
        class_probs[c] = labels.labels == c
    with tr.span("losses.segmentation_loss"):
        breakdown = losses.segmentation_loss(probs, class_probs, surf, labels, weights)
    breakdown["lambda_l"] = weights.lambda_l.tolist()
    return breakdown
