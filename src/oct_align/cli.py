"""oct-align command line front end.

Subcommands: phantom, apply, align, transverse, preprocess, losses, eval,
pipeline.  Every run is a pure function of its inputs, flags, and seed;
failures exit nonzero with a one-line JSON error on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io, metrics
from .align import AlignConfig, optimize_alignment, template_match_align
from .errors import ConfigError, OctAlignError
from .losses import LossWeights, segmentation_loss, smoothness_weights
from .pipeline import default_jobs, run_pipeline
from .postprocess import crop_rows, flatten_to_bm
from .resample import resample_axial
from .synth import PhantomSpec, generate_phantom, simulate_motion
from .transverse import align_transverse


def _phantom_spec_from_json(path) -> PhantomSpec:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: phantom spec must be a JSON object")
    fields = {f.name for f in dataclasses.fields(PhantomSpec)}
    unknown = set(raw) - fields
    if unknown:
        raise ConfigError(f"{path}: unknown phantom spec keys {sorted(unknown)}")
    for key in ("band_intensity", "band_thickness_px", "spacing_um"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return PhantomSpec(**raw)


def cmd_phantom(args) -> int:
    spec = _phantom_spec_from_json(args.spec) if args.spec else PhantomSpec(seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vol, surf = generate_phantom(spec)
    io.write_volume(out / "volume.bin", vol)
    io.write_surfaces(out / "surfaces.csv", surf)
    written = ["volume.bin", "surfaces.csv"]
    if args.corrupt:
        mseed = args.motion_seed if args.motion_seed is not None else spec.seed + 1
        cvol, csurf, motion = simulate_motion(vol, surf, seed=mseed)
        io.write_volume(out / "volume_corrupt.bin", cvol)
        io.write_surfaces(out / "surfaces_corrupt.csv", csurf)
        io.write_displacements(out / "motion.csv", motion.as_displacement())
        written += ["volume_corrupt.bin", "surfaces_corrupt.csv", "motion.csv"]
    print(json.dumps({"out": str(out), "files": written}))
    return 0


def cmd_apply(args) -> int:
    vol = io.read_volume(args.vol)
    disp = io.read_displacements(args.disp)
    io.write_volume(args.out, resample_axial(vol, disp.axial))
    print(args.out)
    return 0


def cmd_align(args) -> int:
    vol = io.read_volume(args.vol)
    cfg = AlignConfig(search_radius=args.radius)
    if args.mode == "supervised":
        if not args.surfaces:
            raise ConfigError("supervised mode needs --surfaces")
        disp = optimize_alignment(vol, io.read_surfaces(args.surfaces), cfg)
    elif args.mode == "unsupervised":
        disp = optimize_alignment(vol, None, cfg)
    else:
        disp = template_match_align(vol, cfg)
    io.write_displacements(args.out, disp)
    print(args.out)
    return 0


def cmd_transverse(args) -> int:
    vol = io.read_volume(args.vol)
    surf = io.read_surfaces(args.surfaces) if args.surfaces else None
    disp = align_transverse(vol, surf, radius=args.radius,
                            layer_mask=not args.no_layer_mask)
    io.write_displacements(args.out, disp)
    print(args.out)
    return 0


def _parse_crop(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"--crop expects lo:hi, got {text!r}") from exc


def cmd_preprocess(args) -> int:
    vol = io.read_volume(args.vol)
    surf = io.read_surfaces(args.surfaces) if args.surfaces else None
    if args.flatten:
        vol, _shifts = flatten_to_bm(vol)
    if args.crop:
        vol, surf = crop_rows(vol, surf, _parse_crop(args.crop))
    io.write_volume(args.out, vol)
    if surf is not None and args.out_surfaces:
        io.write_surfaces(args.out_surfaces, surf)
    print(args.out)
    return 0


def cmd_losses(args) -> int:
    probs = io.read_distributions(args.q)
    surf = io.read_surfaces(args.surfaces)
    labels = io.read_labels(args.labels)
    with open(args.weights) as f:
        wraw = json.load(f)
    if "lambda_l" in wraw:
        weights = LossWeights(lambda_base=float(wraw.get("lambda_base", 0.0)),
                              lambda_l=np.asarray(wraw["lambda_l"], dtype=np.float64))
    elif "lambda_base" in wraw:
        weights = smoothness_weights(surf, float(wraw["lambda_base"]))
    else:
        raise ConfigError(f"{args.weights}: need lambda_base or lambda_l")
    if args.class_probs:
        class_probs = io.read_distributions(args.class_probs)
    else:
        # fall back to one-hot probabilities of the stored labels
        n_classes = labels.n_surfaces + 1
        class_probs = np.zeros((n_classes, *labels.labels.shape))
        for c in range(n_classes):
            class_probs[c] = labels.labels == c
    breakdown = segmentation_loss(probs, class_probs, surf, labels, weights)
    breakdown["lambda_l"] = weights.lambda_l.tolist()
    print(json.dumps(breakdown, sort_keys=True, indent=2))
    return 0


def cmd_eval(args) -> int:
    pred = io.read_surfaces(args.pred)
    gt = io.read_surfaces(args.gt)
    vol = io.read_volume(args.vol)
    dz, dx = vol.spacing[0], vol.spacing[1]
    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    hist_pred = report_path.with_name(report_path.stem + "_connectivity_pred.csv")
    hist_gt = report_path.with_name(report_path.stem + "_connectivity_gt.csv")
    counts_p, edges_p = metrics.connectivity_histogram(pred)
    counts_g, edges_g = metrics.connectivity_histogram(gt)
    metrics.write_histogram_csv(hist_pred, counts_p, edges_p)
    metrics.write_histogram_csv(hist_gt, counts_g, edges_g)
    report = {
        "schema": 1,
        "mad_um": metrics.mean_abs_distance(pred, gt, dz_um=dz),
        "hd95_um": metrics.hd95(pred, gt, spacing=(dz, dx)),
        "ncc_adjacent": metrics.adjacent_ncc(vol),
        "connectivity_csv": {"pred": str(hist_pred), "gt": str(hist_gt)},
    }
    io.write_json(report_path, report)
    print(str(report_path))
    return 0


def cmd_pipeline(args) -> int:
    report, timings = run_pipeline(
        seed=args.seed, volumes=args.volumes, repeats=args.repeats,
        dims=(args.nb, args.na, args.nr), n_layers=args.layers,
        radius=args.radius, transverse_radius=args.transverse_radius,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    io.write_json(report_path, report)
    print(str(report_path))
    print(json.dumps({"timings_s": {k: round(v, 3) for k, v in timings.items()}}),
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oct-align",
                                description="B-scan motion correction and surface tools")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom", help="generate a synthetic volume (optionally corrupted)")
    sp.add_argument("--spec", help="phantom spec JSON; defaults apply when omitted")
    sp.add_argument("--seed", type=int, default=0, help="seed used when --spec is omitted")
    sp.add_argument("--corrupt", action="store_true", help="also write a motion-corrupted copy")
    sp.add_argument("--motion-seed", type=int, default=None)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_phantom)

    sp = sub.add_parser("apply", help="apply axial displacements to a volume")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--disp", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("align", help="estimate axial displacements")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--surfaces", default=None)
    sp.add_argument("--mode", choices=("supervised", "unsupervised", "template"),
                    default="supervised")
    sp.add_argument("--radius", type=int, default=15)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_align)

    sp = sub.add_parser("transverse", help="estimate transverse displacements")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--surfaces", default=None)
    sp.add_argument("--radius", type=int, default=15)
    sp.add_argument("--no-layer-mask", action="store_true",
                    help="project over whole columns instead of the retina band")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_transverse)

    sp = sub.add_parser("preprocess", help="flatten and/or crop a volume")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--surfaces", default=None)
    sp.add_argument("--flatten", action="store_true")
    sp.add_argument("--crop", default=None, help="row range lo:hi (1-based, inclusive)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--out-surfaces", default=None)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("losses", help="evaluate the segmentation losses")
    sp.add_argument("--q", required=True, help="surface distributions file")
    sp.add_argument("--surfaces", required=True, help="ground-truth surfaces CSV")
    sp.add_argument("--labels", required=True, help="label map file")
    sp.add_argument("--weights", required=True, help="JSON with lambda_base or lambda_l")
    sp.add_argument("--class-probs", default=None,
                    help="per-class probability file; one-hot labels when omitted")
    sp.set_defaults(func=cmd_losses)

    sp = sub.add_parser("eval", help="surface metrics against ground truth")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--gt", required=True)
    sp.add_argument("--vol", required=True)
    sp.add_argument("--report", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("pipeline", help="full synthetic recovery experiment")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--volumes", type=int, default=20)
    sp.add_argument("--repeats", type=int, default=5)
    sp.add_argument("--nb", type=int, default=24)
    sp.add_argument("--na", type=int, default=64)
    sp.add_argument("--nr", type=int, default=96)
    sp.add_argument("--layers", type=int, default=3)
    sp.add_argument("--radius", type=int, default=15)
    sp.add_argument("--transverse-radius", type=int, default=30)
    sp.add_argument("--jobs", type=int, default=default_jobs(),
                    help="parallel volume workers (env OCT_ALIGN_JOBS)")
    sp.add_argument("--out", required=True, help="directory for report.json")
    sp.set_defaults(func=cmd_pipeline)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OctAlignError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
