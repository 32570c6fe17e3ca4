import json

import numpy as np
import pytest

from oct_align import io
from oct_align.cli import main
from oct_align.core import surfaces_to_labels
from oct_align.pipeline import run_pipeline


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def phantom_dir(tmp_path):
    out = tmp_path / "phantom"
    assert run(["phantom", "--seed", 0, "--corrupt", "--out", out]) == 0
    return out


class TestPhantomCommand:
    def test_writes_expected_files(self, phantom_dir):
        for name in ("volume.bin", "surfaces.csv", "volume_corrupt.bin",
                     "surfaces_corrupt.csv", "motion.csv"):
            assert (phantom_dir / name).exists()
        vol = io.read_volume(phantom_dir / "volume.bin")
        surf = io.read_surfaces(phantom_dir / "surfaces.csv")
        assert surf.n_b == vol.n_b

    def test_spec_file_with_unknown_key_fails(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_b": 8, "bogus": 1}))
        code = run(["phantom", "--spec", spec, "--out", tmp_path / "o"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("text", ['{"n_b": "x"}', '{"band_intensity": 3}', '[8]'])
    def test_spec_file_with_bad_values_fails(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code = run(["phantom", "--spec", spec, "--out", tmp_path / "o"])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_spec_file_round_trip(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_b": 8, "n_a": 24, "n_r": 48, "seed": 3,
                                    "vessel_count": 4}))
        out = tmp_path / "o"
        assert run(["phantom", "--spec", spec, "--out", out]) == 0
        vol = io.read_volume(out / "volume.bin")
        assert (vol.n_b, vol.n_a, vol.n_r) == (8, 24, 48)


class TestApplyAndAlign:
    def test_apply_zero_displacement_identity(self, phantom_dir, tmp_path):
        vol_path = phantom_dir / "volume.bin"
        vol = io.read_volume(vol_path)
        from oct_align.core import DisplacementField

        dpath = tmp_path / "zero.csv"
        io.write_displacements(dpath, DisplacementField.zeros(vol.n_b))
        out = tmp_path / "applied.bin"
        assert run(["apply", "--vol", vol_path, "--disp", dpath, "--out", out]) == 0
        assert np.array_equal(io.read_volume(out).data, vol.data)

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised", "template"])
    def test_align_modes_write_displacements(self, phantom_dir, tmp_path, mode):
        out = tmp_path / f"{mode}.csv"
        argv = ["align", "--vol", phantom_dir / "volume_corrupt.bin",
                "--mode", mode, "--out", out]
        if mode == "supervised":
            argv += ["--surfaces", phantom_dir / "surfaces_corrupt.csv"]
        assert run(argv) == 0
        d = io.read_displacements(out)
        assert d.n_b == io.read_volume(phantom_dir / "volume.bin").n_b

    def test_supervised_requires_surfaces(self, phantom_dir, tmp_path, capsys):
        code = run(["align", "--vol", phantom_dir / "volume.bin",
                    "--mode", "supervised", "--out", tmp_path / "d.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    def test_missing_file_reports_error_class(self, tmp_path, capsys):
        code = run(["align", "--vol", tmp_path / "nope.bin",
                    "--mode", "unsupervised", "--out", tmp_path / "d.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "FileNotFoundError"

    def test_malformed_header_dims_report_format_error(self, phantom_dir, tmp_path,
                                                       capsys):
        raw = (phantom_dir / "volume.bin").read_bytes()
        header, payload = raw.split(b"\n", 1)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps({**json.loads(header), "n_b": "x"}).encode()
                        + b"\n" + payload)
        code = run(["apply", "--vol", bad, "--disp", tmp_path / "d.csv",
                    "--out", tmp_path / "o.bin"])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "FormatError"

    def test_directory_as_input_reports_error_class(self, tmp_path, capsys):
        code = run(["align", "--vol", tmp_path, "--mode", "unsupervised",
                    "--out", tmp_path / "d.csv"])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestTransverseCommand:
    def test_runs_with_and_without_mask(self, phantom_dir, tmp_path):
        for flag, name in (([], "t1.csv"), (["--no-layer-mask"], "t2.csv")):
            out = tmp_path / name
            assert run(["transverse", "--vol", phantom_dir / "volume_corrupt.bin",
                        "--surfaces", phantom_dir / "surfaces_corrupt.csv",
                        "--out", out, *flag]) == 0
            assert io.read_displacements(out).n_b > 0


class TestPreprocessCommand:
    def test_crop(self, phantom_dir, tmp_path):
        out = tmp_path / "cropped.bin"
        out_s = tmp_path / "cropped_surfaces.csv"
        surf = io.read_surfaces(phantom_dir / "surfaces.csv")
        lo = int(np.floor(surf.positions.min())) - 2
        hi = int(np.ceil(surf.positions.max())) + 2
        assert run(["preprocess", "--vol", phantom_dir / "volume.bin",
                    "--surfaces", phantom_dir / "surfaces.csv",
                    "--crop", f"{lo}:{hi}", "--out", out,
                    "--out-surfaces", out_s]) == 0
        v2 = io.read_volume(out)
        assert v2.n_r == hi - lo + 1
        s2 = io.read_surfaces(out_s)
        assert np.allclose(s2.positions, surf.positions - (lo - 1))

    def test_flatten_runs(self, phantom_dir, tmp_path):
        out = tmp_path / "flat.bin"
        assert run(["preprocess", "--vol", phantom_dir / "volume.bin",
                    "--flatten", "--out", out]) == 0
        assert io.read_volume(out).n_r == io.read_volume(phantom_dir / "volume.bin").n_r

    def test_bad_crop_spec(self, phantom_dir, tmp_path, capsys):
        code = run(["preprocess", "--vol", phantom_dir / "volume.bin",
                    "--crop", "oops", "--out", tmp_path / "x.bin"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


class TestLossesCommand:
    def test_breakdown_json(self, tmp_path, capsys, rng):
        n_s, n_b, n_a, n_r = 2, 4, 6, 24
        gt_int = np.sort(rng.integers(5, 20, size=(n_s, n_b, n_a)), axis=0).astype(float)
        q = np.zeros((n_s, n_b, n_a, n_r))
        for l in range(n_s):
            np.put_along_axis(q[l], gt_int[l][..., None].astype(int) - 1, 1.0, axis=-1)
        qpath = tmp_path / "q.bin"
        io.write_distributions(qpath, q)
        spath = tmp_path / "s.csv"
        from oct_align.core import SurfaceSet

        io.write_surfaces(spath, SurfaceSet(gt_int))
        mpath = tmp_path / "m.bin"
        io.write_labels(mpath, surfaces_to_labels(SurfaceSet(gt_int), n_r))
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"lambda_base": 0.1}))
        assert run(["losses", "--q", qpath, "--surfaces", spath,
                    "--labels", mpath, "--weights", wpath]) == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("dice_ce", "cross_entropy", "smooth_l1",
                    "smoothness_weighted", "total", "lambda_l"):
            assert key in out
        assert out["cross_entropy"] == 0.0
        assert out["smooth_l1"] == 0.0

    @pytest.mark.parametrize("text", [
        '{"lambda_base": 0.1',            # truncated: not valid JSON
        '{"lambda_base": "x"}',           # not a number
        '"lambda_l"',                     # valid JSON, not an object
        '{"lambda_l": ["a", 1]}',         # not a vector of numbers
        '{"lambda_base": null}',
        '{"weight": 1}',                  # neither key
    ])
    def test_malformed_weights_report_config_error(self, tmp_path, capsys, text):
        from oct_align.core import SurfaceSet

        gt = np.full((1, 2, 3), 4.0)
        gt[0, 1, :] = 6.0
        qpath, spath, mpath = tmp_path / "q.bin", tmp_path / "s.csv", tmp_path / "m.bin"
        io.write_distributions(qpath, np.full((1, 2, 3, 8), 0.125))
        io.write_surfaces(spath, SurfaceSet(gt))
        io.write_labels(mpath, surfaces_to_labels(SurfaceSet(gt), 8))
        wpath = tmp_path / "w.json"
        wpath.write_text(text)
        code = run(["losses", "--q", qpath, "--surfaces", spath,
                    "--labels", mpath, "--weights", wpath])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"] == "ConfigError"


class TestEvalCommand:
    def test_perfect_prediction_reports_zero(self, phantom_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(["eval", "--pred", phantom_dir / "surfaces.csv",
                    "--gt", phantom_dir / "surfaces.csv",
                    "--vol", phantom_dir / "volume.bin",
                    "--report", report]) == 0
        data = json.loads(report.read_text())
        assert data["mad_um"]["overall"]["mean_um"] == 0.0
        assert data["hd95_um"]["overall"]["mean_um"] == 0.0
        assert (tmp_path / "report_connectivity_pred.csv").exists()
        assert (tmp_path / "report_connectivity_gt.csv").exists()


class TestPipelineCommand:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        args = ["pipeline", "--seed", 7, "--volumes", 2, "--repeats", 1,
                "--nb", 8, "--na", 32, "--nr", 96]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        b1 = (out1 / "report.json").read_bytes()
        b2 = (out2 / "report.json").read_bytes()
        assert b1 == b2

    def test_report_structure(self, tmp_path):
        out = tmp_path / "r"
        assert run(["pipeline", "--seed", 1, "--volumes", 2, "--repeats", 2,
                    "--nb", 8, "--na", 32, "--nr", 96, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["total_corrupted_volumes"] == 4
        assert len(report["per_volume"]) == 4
        assert set(report["axial_recovery_px"]) == {
            "supervised", "unsupervised", "template"
        }
        assert set(report["transverse_recovery_px"]) == {"masked", "no_layer_mask"}

    @pytest.mark.parametrize("flag", ["--volumes", "--repeats", "--jobs"])
    def test_nonpositive_counts_rejected(self, tmp_path, capsys, flag):
        code = run(["pipeline", flag, 0, "--nb", 8, "--na", 32, "--out", tmp_path])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert not (tmp_path / "report.json").exists()

    def test_report_does_not_depend_on_jobs(self):
        kwargs = dict(seed=3, volumes=2, repeats=1, dims=(8, 32, 96))
        serial, _ = run_pipeline(jobs=1, **kwargs)
        parallel, _ = run_pipeline(jobs=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
