import contextlib
import io as text_io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_align import io
from oct_align.cli import main
from oct_align.core import DisplacementField, OctVolume, SurfaceSet, surfaces_to_labels
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


def run_quiet(argv):
    """Exit code and stderr lines of one CLI run, outside pytest's capture."""
    err = text_io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(text_io.StringIO()):
        code = run(argv)
    return code, err.getvalue().splitlines()


def assert_one_line_error(code, lines):
    assert code == 1
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "message"}


@contextlib.contextmanager
def input_dir():
    """A fresh directory with a tiny volume, its displacements and surfaces."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        vol = OctVolume(np.arange(3 * 4 * 8, dtype=np.float32).reshape(3, 4, 8) / 10.0)
        io.write_volume(root / "vol.bin", vol)
        io.write_displacements(root / "disp.csv", DisplacementField.zeros(3))
        io.write_surfaces(root / "surf.csv", SurfaceSet(np.full((1, 3, 4), 4.0)))
        yield root


def apply_argv(root):
    return ["apply", "--vol", root / "vol.bin", "--disp", root / "disp.csv",
            "--out", root / "out.bin"]


def eval_argv(root):
    return ["eval", "--pred", root / "surf.csv", "--gt", root / "surf.csv",
            "--vol", root / "vol.bin", "--report", root / "out" / "report.json"]


VOLUME_DIMS = {"n_b": 3, "n_a": 4, "n_r": 8}
WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def _bad_dim(good):
    return st.one_of(
        st.integers().filter(lambda v: v != good),
        st.floats().filter(lambda v: not (math.isfinite(v) and int(v) == good)),
        st.none(), WORDS, st.lists(st.integers(), max_size=3),
    )


BAD_HEADER_VALUES = {
    **{k: _bad_dim(v) for k, v in VOLUME_DIMS.items()},
    "spacing_um": st.one_of(
        st.none(), st.integers(), WORDS,
        st.lists(st.floats(0.5, 50.0), max_size=5).filter(lambda v: len(v) != 3),
        st.tuples(st.floats(0.5, 50.0), st.floats(max_value=0.0), st.floats(0.5, 50.0)),
    ),
    "dtype": st.one_of(st.text().filter(lambda v: v != "f32le"), st.integers(), st.none()),
}


class TestMalformedInputFuzz:
    """Every malformed input exits 1 with one JSON line and writes nothing."""

    @pytest.mark.parametrize("argv", [apply_argv, eval_argv])
    def test_unmutated_inputs_succeed(self, argv):
        with input_dir() as root:
            code, lines = run_quiet(argv(root))
            assert (code, lines) == (0, [])

    @pytest.mark.parametrize("command,name,header", [
        ("apply", "disp.csv", "b,axial,transverse"),
        ("eval", "surf.csv", "surface,b,a,r"),
    ])
    def test_header_only_csv(self, command, name, header):
        with input_dir() as root:
            (root / name).write_text(header + "\n")
            argv = apply_argv(root) if command == "apply" else eval_argv(root)
            assert_one_line_error(*run_quiet(argv))
            assert not (root / "out.bin").exists() and not (root / "out").exists()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncated_volume(self, data):
        with input_dir() as root:
            raw = (root / "vol.bin").read_bytes()
            cut = data.draw(st.integers(0, len(raw) - 1))
            (root / "vol.bin").write_bytes(raw[:cut])
            assert_one_line_error(*run_quiet(apply_argv(root)))
            assert not (root / "out.bin").exists()

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(sorted(BAD_HEADER_VALUES)), data=st.data())
    def test_mutated_volume_header(self, key, data):
        with input_dir() as root:
            header, payload = (root / "vol.bin").read_bytes().split(b"\n", 1)
            fields = json.loads(header)
            if data.draw(st.booleans()):
                del fields[key]
            else:
                fields[key] = data.draw(BAD_HEADER_VALUES[key])
            (root / "vol.bin").write_bytes(json.dumps(fields).encode() + b"\n" + payload)
            assert_one_line_error(*run_quiet(apply_argv(root)))
            assert not (root / "out.bin").exists()

    @settings(max_examples=20, deadline=None)
    @given(header=st.one_of(
        st.binary(max_size=40).filter(lambda b: b"\n" not in b),
        st.one_of(st.integers(), st.lists(st.integers()), st.text()).map(
            lambda v: json.dumps(v).encode()),
    ))
    def test_volume_header_not_an_object(self, header):
        with input_dir() as root:
            payload = (root / "vol.bin").read_bytes().split(b"\n", 1)[1]
            (root / "vol.bin").write_bytes(header + b"\n" + payload)
            assert_one_line_error(*run_quiet(apply_argv(root)))
            assert not (root / "out.bin").exists()

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["apply", "eval"]), data=st.data())
    def test_mutated_csv_row(self, command, data):
        with input_dir() as root:
            name = "disp.csv" if command == "apply" else "surf.csv"
            lines = (root / name).read_text().splitlines()
            i = data.draw(st.integers(1, len(lines) - 1))
            fields = lines[i].split(",")
            j = data.draw(st.integers(0, len(fields) - 1))
            how = data.draw(st.sampled_from(["word", "drop", "extra", "bytes", "header"]))
            if how == "word":
                fields[j] = data.draw(WORDS.filter(_not_a_float))
            elif how == "drop":
                del fields[j]
            elif how == "extra":
                fields.insert(j, "1")
            lines[i] = ",".join(fields)
            if how == "header":
                lines[0] = lines[0][:data.draw(st.integers(0, len(lines[0]) - 1))]
            body = ("\n".join(lines) + "\n").encode()
            if how == "bytes":  # a byte that cannot start a UTF-8 character
                at = body.index(lines[i].encode())
                body = body[:at] + b"\xff" + body[at:]
            (root / name).write_bytes(body)
            argv = apply_argv(root) if command == "apply" else eval_argv(root)
            assert_one_line_error(*run_quiet(argv))
            assert not (root / "out.bin").exists() and not (root / "out").exists()


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
