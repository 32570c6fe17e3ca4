"""The file commands once at clinical size (49x256x192, phantom seed 3).

Other tests stop at 32 A-scans; these run the binary volume reader, the
axial template chain, hd95's diagonal band, the transverse search and the
per-A-scan resampler of ``--flatten`` at N_A = 256.  One module-scoped
fixture drives every command through ``cli.main`` and keeps the files.
"""

import contextlib
import io as text_io
import json
import tracemalloc

import numpy as np
import pytest

from oct_align import io
from oct_align.cli import main
from oct_align.core import SurfaceSet
from oct_align.metrics import motion_error
from oct_align.postprocess import estimate_bm_rows

# the surfaces that mask each transverse run: the corrupted ones, which sit
# up to the motion's axial shift off ax.bin, none (whole columns: the
# no-layer-mask ablation) and the axially corrected ones
TRANSVERSE_RUNS = {
    "corrupt_masked": "surfaces_corrupt.csv",
    "no_layer_mask": None,
    "corrected_masked": "surfaces_ax.csv",
}


def cli(*argv):
    with contextlib.redirect_stdout(text_io.StringIO()):
        assert main([str(a) for a in argv]) == 0


def traced_peak(*argv):
    """The tracemalloc peak of one ``cli`` run, in bytes."""
    tracemalloc.start()
    try:
        cli(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


VOLUME_BYTES = 49 * 256 * 192 * 4


@pytest.fixture(scope="module")
def clinical(tmp_path_factory):
    d = tmp_path_factory.mktemp("clinical")
    (d / "spec.json").write_text(json.dumps({"n_b": 49, "n_a": 256, "n_r": 192, "seed": 3}))
    cli("phantom", "--spec", d / "spec.json", "--corrupt", "--out", d)
    for mode in ("unsupervised", "template"):
        cli("align", "--vol", d / "volume_corrupt.bin", "--mode", mode, "--out", d / f"{mode}.csv")
    cli("apply", "--vol", d / "volume_corrupt.bin", "--disp", d / "motion.csv",
        "--out", d / "ax.bin")
    motion = io.read_displacements(d / "motion.csv")
    csurf = io.read_surfaces(d / "surfaces_corrupt.csv")
    io.write_surfaces(d / "surfaces_ax.csv",
                      SurfaceSet(csurf.positions - motion.axial[None, :, None]))
    for name, surfaces in TRANSVERSE_RUNS.items():
        mask = ["--surfaces", d / surfaces] if surfaces else []
        cli("transverse", "--vol", d / "ax.bin", *mask, "--out", d / f"t_{name}.csv")
    cli("preprocess", "--vol", d / "ax.bin", "--flatten", "--out", d / "pre.bin")
    cli("eval", "--pred", d / "surfaces_corrupt.csv", "--gt", d / "surfaces_corrupt.csv",
        "--vol", d / "pre.bin", "--report", d / "report.json")
    return d, motion


def test_unsupervised_beats_the_template_chain_it_refines(clinical):
    # seed 3 reads 0.0646 and 0.4906 px
    d, motion = clinical
    u, t = (motion_error(io.read_displacements(d / f"{mode}.csv"), motion)[0]
            for mode in ("unsupervised", "template"))
    assert u < 0.1 and u < t, (u, t)


@pytest.mark.parametrize("name", TRANSVERSE_RUNS)
def test_transverse_recovers_the_motion_exactly(clinical, name):
    d, motion = clinical
    assert motion_error(io.read_displacements(d / f"t_{name}.csv"), motion)[1] == 0.0


def test_flatten_puts_the_bm_on_three_quarters_of_the_rows(clinical):
    # about 0.004 rows here; ax.bin reads about 9.6
    d, _ = clinical
    vol = io.read_volume(d / "pre.bin")
    assert np.abs(estimate_bm_rows(vol) - round(0.75 * vol.n_r)).mean() < 1.5


def test_eval_of_identical_surfaces_reads_zero_hd95(clinical):
    d, _ = clinical
    report = json.loads((d / "report.json").read_text())
    assert report["hd95_um"]["overall"]["mean_um"] == 0.0


def test_apply_peaks_below_two_and_a_half_volumes(clinical):
    # the input and the output volume and one finiteness mask (2.25
    # volumes); a copy of the output for writing made it 3.0
    d, _ = clinical
    peak = traced_peak("apply", "--vol", d / "volume_corrupt.bin", "--disp", d / "motion.csv",
                       "--out", d / "ax_traced.bin")
    assert peak < 2.5 * VOLUME_BYTES
    assert (d / "ax_traced.bin").read_bytes() == (d / "ax.bin").read_bytes()


def test_preprocess_flatten_crop_peaks_below_two_and_three_quarter_volumes(clinical):
    # about 2.4 volumes; the BM estimate's two volume-sized float64 arrays and
    # a copy of the output for writing made it 4.3
    d, _ = clinical
    pos = io.read_surfaces(d / "surfaces_ax.csv").positions
    crop = f"{max(1, int(pos.min()) - 4)}:{min(192, int(np.ceil(pos.max())) + 4)}"
    peak = traced_peak("preprocess", "--vol", d / "ax.bin", "--surfaces", d / "surfaces_ax.csv",
                       "--flatten", "--crop", crop, "--out", d / "pre_crop.bin",
                       "--out-surfaces", d / "pre_crop.csv")
    assert peak < 2.75 * VOLUME_BYTES
