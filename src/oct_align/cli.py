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

from . import io, metrics
from .align import SEARCH_RADIUS, AlignConfig, optimize_alignment, template_match_align
from .errors import ConfigError, DimensionError, OctAlignError, ValidationError
from .losses import LossWeights, segmentation_loss, smoothness_weights
from .pipeline import run_pipeline
from .postprocess import crop_rows, flatten_to_bm
from .resample import resample_axial
from .synth import PhantomSpec, generate_phantom, simulate_motion
from .transverse import TRANSVERSE_RADIUS, align_transverse


def _json_fields(path, what: str, defaults: dict) -> dict:
    """The JSON object in ``path``, its lists as tuples.  ConfigError unless
    every key is one of ``defaults`` and every value has its default's
    kind (``io.json_kind_ok``); the message names ``what`` or the key."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown {what} keys {sorted(unknown)}")
    for key, value in raw.items():
        default = defaults[key]
        if not io.json_kind_ok(value, default):
            kind = ("a list of finite numbers" if isinstance(default, tuple)
                    else "an integer" if isinstance(default, int) else "a finite number")
            raise ConfigError(f"{path}: {what} key {key!r} must be {kind}, "
                              f"got {json.dumps(value)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def _surfaces_on(path, grid, flag: str):
    """The surfaces in ``path``, on the N_B x N_A of ``grid`` (N_B, N_A, N_R)
    and no deeper than N_R; else DimensionError or ValidationError naming ``flag``."""
    n_b, n_a, n_r = grid
    surf = io.read_surfaces(path)
    if (surf.n_b, surf.n_a) != (n_b, n_a):
        raise DimensionError(
            f"{flag} surfaces are on a {surf.n_b}x{surf.n_a} (N_B x N_A) grid, "
            f"expected {n_b}x{n_a}"
        )
    if surf.positions.max() > n_r:
        raise ValidationError(f"{flag} surfaces reach row {surf.positions.max():g}, "
                              f"past the last row {n_r}")
    return surf


def cmd_phantom(args) -> int:
    """Write the phantom, and with ``--corrupt`` its corrupted copy; every
    array is computed before the first file is written."""
    if args.spec and args.seed is not None:
        raise ConfigError("--seed is for runs without --spec; set the spec's \"seed\" key")
    if args.motion_seed is not None and not args.corrupt:
        raise ConfigError("only --corrupt reads --motion-seed")
    if args.spec:
        defaults = {f.name: f.default for f in dataclasses.fields(PhantomSpec)}
        spec = PhantomSpec(**_json_fields(args.spec, "phantom spec", defaults))
    else:
        spec = PhantomSpec(seed=args.seed or 0)
    vol, surf = generate_phantom(spec)
    files = {"volume.bin": (io.write_volume, vol), "surfaces.csv": (io.write_surfaces, surf)}
    if args.corrupt:
        mseed = args.motion_seed if args.motion_seed is not None else spec.seed + 1
        cvol, csurf, motion = simulate_motion(vol, surf, seed=mseed)
        files.update({"volume_corrupt.bin": (io.write_volume, cvol),
                      "surfaces_corrupt.csv": (io.write_surfaces, csurf),
                      "motion.csv": (io.write_displacements, motion)})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (write, obj) in files.items():
        write(out / name, obj)
    print(json.dumps({"out": str(out), "files": list(files)}))
    return 0


def cmd_apply(args) -> int:
    """Resample the volume by the CSV's axial column only; the transverse
    column is read (whole pixels) but not applied."""
    vol = io.read_volume(args.vol)
    disp = io.read_displacements(args.disp)
    io.write_volume(args.out, resample_axial(vol, disp.axial))
    print(args.out)
    return 0


def cmd_align(args) -> int:
    if args.mode == "supervised" and not args.surfaces:
        raise ConfigError("supervised mode needs --surfaces")
    if args.mode != "supervised" and args.surfaces:
        raise ConfigError(f"only --mode supervised reads --surfaces, not --mode {args.mode}")
    vol = io.read_volume(args.vol)
    cfg = AlignConfig(search_radius=args.radius)
    if args.mode == "supervised":
        surf = _surfaces_on(args.surfaces, vol.data.shape, "--surfaces")
        disp = optimize_alignment(vol, surf, cfg)
    elif args.mode == "unsupervised":
        disp = optimize_alignment(vol, None, cfg)
    else:
        disp = template_match_align(vol, cfg)
    io.write_displacements(args.out, disp)
    print(args.out)
    return 0


def cmd_transverse(args) -> int:
    vol = io.read_volume(args.vol)
    surf = _surfaces_on(args.surfaces, vol.data.shape, "--surfaces") if args.surfaces else None
    disp = align_transverse(vol, surf, radius=args.radius)
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
    if args.out_surfaces and not args.surfaces:
        raise ConfigError("--out-surfaces needs --surfaces, whose preprocessed copy it writes")
    if args.surfaces and not (args.crop or args.out_surfaces):
        raise ConfigError("only --crop and --out-surfaces read --surfaces")
    vol = io.read_volume(args.vol)
    surf = _surfaces_on(args.surfaces, vol.data.shape, "--surfaces") if args.surfaces else None
    if args.flatten:
        vol, _shifts = flatten_to_bm(vol)
    if args.crop:
        vol, surf = crop_rows(vol, surf, _parse_crop(args.crop))
    io.write_volume(args.out, vol)
    if args.out_surfaces:
        io.write_surfaces(args.out_surfaces, surf)
    print(args.out)
    return 0


def cmd_losses(args) -> int:
    """Print the segmentation loss breakdown as JSON.  The weights file sets
    either lambda_base, from which ``smoothness_weights`` derives lambda_l
    on the ground truth, or lambda_l itself, the weights as passed; it is
    checked before any other file is read.  The surfaces must sit on the
    distributions' (N_B, N_A, N_R) grid.  Without ``--class-probs`` the
    labels are scored against themselves, so the Dice+CE term is 0.0."""
    wraw = _json_fields(args.weights, "loss weights", {"lambda_base": 0.0, "lambda_l": ()})
    if len(wraw) != 1:
        raise ConfigError(f"{args.weights}: need exactly one of lambda_base and lambda_l")
    probs = io.read_distributions(args.q)
    surf = _surfaces_on(args.surfaces, probs.shape[1:], "--surfaces")
    labels = io.read_labels(args.labels)
    if "lambda_l" in wraw:
        weights = LossWeights(wraw["lambda_l"])
    else:
        weights = smoothness_weights(surf, float(wraw["lambda_base"]))
    class_probs = io.read_distributions(args.class_probs) if args.class_probs else None
    breakdown = segmentation_loss(probs, class_probs, surf, labels, weights)
    breakdown["lambda_l"] = weights.lambda_l.tolist()
    print(json.dumps(breakdown, sort_keys=True, indent=2))
    return 0


def cmd_eval(args) -> int:
    """Write report.json and the two connectivity CSVs beside it; every
    metric is computed before the first file is written."""
    vol = io.read_volume(args.vol)
    pred = _surfaces_on(args.pred, vol.data.shape, "--pred")
    gt = _surfaces_on(args.gt, vol.data.shape, "--gt")
    dz, dx = vol.spacing[0], vol.spacing[1]
    report_path = Path(args.report)
    hist_pred = report_path.with_name(report_path.stem + "_connectivity_pred.csv")
    hist_gt = report_path.with_name(report_path.stem + "_connectivity_gt.csv")
    counts_p, edges_p = metrics.connectivity_histogram(pred)
    counts_g, edges_g = metrics.connectivity_histogram(gt)
    report = {
        "schema": 1,
        "mad_um": metrics.mean_abs_distance(pred, gt, dz_um=dz),
        "hd95_um": metrics.hd95(pred, gt, spacing=(dz, dx)),
        "ncc_adjacent": metrics.adjacent_ncc(vol),
        "connectivity_csv": {"pred": str(hist_pred), "gt": str(hist_gt)},
    }
    report_path.parent.mkdir(parents=True, exist_ok=True)
    metrics.write_histogram_csv(hist_pred, counts_p, edges_p)
    metrics.write_histogram_csv(hist_gt, counts_g, edges_g)
    io.write_json(report_path, report)
    print(str(report_path))
    return 0


def cmd_pipeline(args) -> int:
    report, timings = run_pipeline(seed=args.seed, volumes=args.volumes, repeats=args.repeats,
                                   dims=(args.nb, args.na, args.nr), jobs=args.jobs)
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
    sp.add_argument("--seed", type=int, default=None,
                    help="phantom seed (default 0); only without --spec")
    sp.add_argument("--corrupt", action="store_true", help="also write a motion-corrupted copy")
    sp.add_argument("--motion-seed", type=int, default=None,
                    help="motion seed (default: the phantom seed + 1); only with --corrupt")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_phantom)

    sp = sub.add_parser("apply", help="apply a displacement CSV to a volume (axial column "
                                      "only; the transverse column is ignored)")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--disp", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("align", help="estimate axial displacements")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--surfaces", default=None)
    sp.add_argument("--mode", choices=("supervised", "unsupervised", "template"),
                    default="supervised")
    sp.add_argument("--radius", type=int, default=SEARCH_RADIUS)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_align)

    sp = sub.add_parser("transverse", help="estimate transverse displacements")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--surfaces", default=None,
                    help="project over the retina band between the first and last "
                         "surfaces; omit it to project over whole columns")
    sp.add_argument("--radius", type=int, default=TRANSVERSE_RADIUS)
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
                    help="per-class probability file; when omitted the labels are "
                         "scored against themselves and the Dice+CE term is 0.0")
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
    sp.add_argument("--jobs", type=int, default=1, help="parallel volume workers")
    sp.add_argument("--out", required=True, help="directory for report.json")
    sp.set_defaults(func=cmd_pipeline)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OctAlignError, OSError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
