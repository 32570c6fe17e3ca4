import concurrent.futures
import contextlib
import io as text_io
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_align import cli, io
from oct_align.align import SEARCH_RADIUS, AlignConfig, solve_from_surfaces
from oct_align.cli import main
from oct_align.core import DisplacementField, OctVolume, SurfaceSet, surfaces_to_labels
from oct_align.metrics import motion_error
from oct_align.pipeline import run_pipeline
from oct_align.resample import resample_axial
from oct_align.transverse import align_transverse


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

    @pytest.mark.parametrize("text", ['{"n_b": "x"}', '{"spacing_um": 3}', '[8]'])
    def test_spec_file_with_bad_values_fails(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code = run(["phantom", "--spec", spec, "--out", tmp_path / "o"])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    @pytest.mark.parametrize("key, value", [
        ("n_b", 24.5), ("n_b", True), ("seed", "x"), ("vessel_count", None),  # int fields
        ("noise_sigma", "0.1"), ("noise_sigma", False), ("speckle_sigma", None),  # float
        ("noise_sigma", float("nan")), ("noise_sigma", 10**400),
        ("spacing_um", [0.5, "a", 0.3]), ("spacing_um", "abc"),  # tuple fields
        ("spacing_um", [0.5, True, 0.3]), ("spacing_um", {"x": 1.0}),
    ])
    def test_spec_value_of_the_wrong_kind_names_its_key(self, tmp_path, key, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({key: value}))
        code, lines = run_quiet(["phantom", "--spec", spec, "--out", tmp_path / "o"])
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and repr(key) in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("band_intensity", [0.82, 0.38, 0.66]), ("band_thickness_px", [13.4, 13.4, 13.4]),
        ("thickness_wobble", 0.15), ("bump_amplitude_px", 2.5), ("bump_count", 3),
        ("bump_max_cycles", 0), ("fovea_depth_px", 6.0), ("fovea_width_frac", 0.12),
        ("vessel_width_px", 2), ("vessel_attenuation", 0.45), ("background_intensity", 0.06),
    ])
    def test_spec_keys_of_the_fixed_anatomy_are_unknown(self, tmp_path, key, value):
        # these are synth module constants, not PhantomSpec fields
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({key: value}))
        code, lines = run_quiet(["phantom", "--spec", spec, "--out", tmp_path / "o"])
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and repr(key) in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, spec, error, word", [
        (["--seed", -1], None, "ValidationError", "seed"),
        ([], {"seed": -1}, "ValidationError", "seed"),
        (["--corrupt", "--motion-seed", -5], None, "ValidationError", "seed"),
        (["--seed", 3], {"seed": 3}, "ConfigError", "--seed"),  # ignored with --spec
        (["--motion-seed", 5], None, "ConfigError", "--motion-seed"),  # ignored without --corrupt
        ([], {"vessel_drift_px": 1e300}, "ValidationError", "vessel_drift_px"),  # no start column
    ])
    def test_refused_before_writing(self, tmp_path, argv, spec, error, word):
        if spec is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            argv = argv + ["--spec", tmp_path / "spec.json"]
        code, lines = run_quiet(["phantom", *argv, "--out", tmp_path / "o"])
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err["error"] == error and word in err["message"]
        assert not (tmp_path / "o").exists()

    def test_more_vessels_than_columns_refused_at_once(self, tmp_path):
        # the vessel loop runs once per vessel; 1e8 of them ran past 60 s
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"vessel_count": 100_000_000}))
        start = time.perf_counter()
        code, lines = run_quiet(["phantom", "--spec", spec, "--out", tmp_path / "o"])
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err["error"] == "ValidationError" and "vessel_count" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_spec_too_large_for_one_volume_fails_before_allocating(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_b": 10**20}))
        code, lines = run_quiet(["phantom", "--spec", spec, "--out", tmp_path / "o"])
        assert_one_line_error(code, lines)
        assert json.loads(lines[0])["error"] == "ValidationError"
        assert not (tmp_path / "o").exists()

    def test_out_of_memory_is_one_line(self, tmp_path, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 116. TiB")

        monkeypatch.setattr(cli, "generate_phantom", exhausted)
        code, lines = run_quiet(["phantom", "--seed", 0, "--out", tmp_path / "o"])
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err == {"error": "MemoryError", "message": "Unable to allocate 116. TiB"}

    def test_spec_numbers_of_either_json_kind_fill_float_fields(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_b": 4, "n_a": 16, "n_r": 48, "noise_sigma": 0,
                                    "spacing_um": [3, 6.7, 67]}))
        assert run(["phantom", "--spec", spec, "--out", tmp_path / "o"]) == 0

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
        io.write_displacements(dpath, DisplacementField(np.zeros(vol.n_b), np.zeros(vol.n_b)))
        out = tmp_path / "applied.bin"
        assert run(["apply", "--vol", vol_path, "--disp", dpath, "--out", out]) == 0
        assert np.array_equal(io.read_volume(out).data, vol.data)

    def test_apply_uses_the_axial_column_only(self, phantom_dir, tmp_path):
        vol_path = phantom_dir / "volume_corrupt.bin"
        vol = io.read_volume(vol_path)
        axial = np.linspace(-3.5, 4.25, vol.n_b)
        transverse = np.where(np.arange(vol.n_b) < vol.n_b // 2, 0, 7)
        dpath = tmp_path / "motion.csv"
        io.write_displacements(dpath, DisplacementField(axial, transverse))
        out = tmp_path / "applied.bin"
        assert run(["apply", "--vol", vol_path, "--disp", dpath, "--out", out]) == 0
        # the nonzero transverse column is read and ignored
        expected = resample_axial(vol, axial).data
        assert np.array_equal(io.read_volume(out).data, expected)

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

    def test_supervised_writes_the_closed_form(self, phantom_dir, tmp_path, capsys):
        vol_path = phantom_dir / "volume_corrupt.bin"
        surf_path = phantom_dir / "surfaces_corrupt.csv"
        out = tmp_path / "d.csv"
        assert run(["align", "--vol", vol_path, "--surfaces", surf_path,
                    "--mode", "supervised", "--out", out]) == 0
        # %.17g round-trips float64, so the CSV holds the closed form exactly
        want = solve_from_surfaces(io.read_surfaces(surf_path))
        assert np.array_equal(io.read_displacements(out).axial, want.axial)
        capsys.readouterr()
        # surfaces with fewer B-scans, or fewer A-scans, than the volume
        positions = io.read_surfaces(surf_path).positions
        for short in (positions[:, :-1], positions[:, :, :-5]):
            short_path = tmp_path / "short.csv"
            io.write_surfaces(short_path, SurfaceSet(short))
            code = run(["align", "--vol", vol_path, "--surfaces", short_path,
                        "--mode", "supervised", "--out", tmp_path / "bad.csv"])
            assert code == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert json.loads(lines[0])["error"] == "DimensionError"
            assert not (tmp_path / "bad.csv").exists()

    def test_supervised_requires_surfaces(self, phantom_dir, tmp_path, capsys):
        code = run(["align", "--vol", phantom_dir / "volume.bin",
                    "--mode", "supervised", "--out", tmp_path / "d.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    @pytest.mark.parametrize("mode", ["unsupervised", "template"])
    def test_only_supervised_reads_surfaces(self, mode):
        with input_dir() as root:
            code, lines = run_quiet(["align", "--vol", root / "vol.bin", "--mode", mode,
                                     "--surfaces", root / "nope.csv", "--out", root / "d.csv"])
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "ConfigError" and "--mode supervised" in err["message"]
            assert not (root / "d.csv").exists()

    @pytest.mark.parametrize("mode", ["unsupervised", "template"])
    def test_radius_must_be_below_nr(self, phantom_dir, tmp_path, mode):
        # the searches pad each B-scan by a multiple of the radius, so an
        # unbounded one would fail allocating instead of with the JSON line
        vol_path = phantom_dir / "volume_corrupt.bin"
        out = tmp_path / "d.csv"
        code, lines = run_quiet(["align", "--vol", vol_path, "--mode", mode,
                                 "--radius", io.read_volume(vol_path).n_r, "--out", out])
        assert_one_line_error(code, lines)
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not out.exists()

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
        io.write_displacements(root / "disp.csv", DisplacementField(np.zeros(3), np.zeros(3)))
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
        st.floats(), st.booleans(), st.just(f" {good} "),
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

    @pytest.mark.parametrize("spacing", [["3.24", "6.7", "67"], [True, 1, 1]])
    def test_spacing_of_strings_or_bools_rejected(self, spacing):
        with input_dir() as root:
            header, payload = (root / "vol.bin").read_bytes().split(b"\n", 1)
            fields = {**json.loads(header), "spacing_um": spacing}
            (root / "vol.bin").write_bytes(json.dumps(fields).encode() + b"\n" + payload)
            code, lines = run_quiet(apply_argv(root))
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "FormatError" and "spacing_um" in err["message"]
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

    @pytest.mark.parametrize("command, name, column, value, error", [
        ("eval", "surf.csv", 0, "inf", "FormatError"),  # a surface index
        ("eval", "surf.csv", 1, "1e300", "FormatError"),
        ("eval", "surf.csv", 2, "9223372036854775808", "FormatError"),  # 2**63
        ("apply", "disp.csv", 2, "1e300", "ValidationError"),  # a transverse value
        ("losses", "surf.csv", 3, "1e300", "ValidationError"),  # a row past N_R
    ])
    def test_value_beyond_int64_refused_before_any_cast(self, command, name, column, value,
                                                        error):
        # casting these to int64 made numpy warn on stderr before the JSON line
        with input_dir() as root:
            io.write_distributions(root / "q.bin", np.full((1, 3, 4, 8), 0.125))
            io.write_labels(root / "m.bin",
                            surfaces_to_labels(io.read_surfaces(root / "surf.csv"), 8))
            (root / "w.json").write_text(json.dumps({"lambda_l": [0.1]}))
            argv = {"apply": apply_argv(root), "eval": eval_argv(root),
                    "losses": ["losses", "--q", root / "q.bin", "--surfaces", root / "surf.csv",
                               "--labels", root / "m.bin", "--weights", root / "w.json"]}
            lines = (root / name).read_text().splitlines()
            fields = lines[-1].split(",")
            fields[column] = value
            lines[-1] = ",".join(fields)
            (root / name).write_text("\n".join(lines) + "\n")
            before = sorted(root.iterdir())
            code, err = run_quiet(argv[command])
            assert_one_line_error(code, err)
            assert json.loads(err[0])["error"] == error
            assert sorted(root.iterdir()) == before


class TestTransverseCommand:
    def test_runs_with_and_without_mask(self, phantom_dir, tmp_path):
        vol = io.read_volume(phantom_dir / "volume_corrupt.bin")
        surf = io.read_surfaces(phantom_dir / "surfaces_corrupt.csv")
        for surfaces, mask, name in ((["--surfaces", phantom_dir / "surfaces_corrupt.csv"],
                                      True, "t1.csv"), ([], False, "t2.csv")):
            out = tmp_path / name
            assert run(["transverse", "--vol", phantom_dir / "volume_corrupt.bin",
                        *surfaces, "--out", out]) == 0
            # without --surfaces the command is the no-layer-mask ablation
            io.write_displacements(tmp_path / "want.csv",
                                   align_transverse(vol, surf, layer_mask=mask))
            assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_no_layer_mask_flag_is_gone(self):
        # omitting --surfaces is the ablation; the flag only repeated it
        with pytest.raises(SystemExit), contextlib.redirect_stderr(text_io.StringIO()):
            cli.build_parser().parse_args(["transverse", "--vol", "v.bin", "--out", "t.csv",
                                           "--no-layer-mask"])

    def test_default_radius_follows_a_jump_of_two_amplitudes(self, tmp_path):
        # phantom 18's adjacent transverse groups differ by 29 columns; at
        # the old default radius of 15 the masked estimate was 19.5 px off
        assert run(["phantom", "--seed", 18, "--corrupt", "--out", tmp_path]) == 0
        assert run(["align", "--vol", tmp_path / "volume_corrupt.bin", "--surfaces",
                    tmp_path / "surfaces_corrupt.csv", "--out", tmp_path / "d.csv"]) == 0
        assert run(["apply", "--vol", tmp_path / "volume_corrupt.bin",
                    "--disp", tmp_path / "d.csv", "--out", tmp_path / "ax.bin"]) == 0
        assert run(["transverse", "--vol", tmp_path / "ax.bin", "--surfaces",
                    tmp_path / "surfaces_corrupt.csv", "--out", tmp_path / "t.csv"]) == 0
        truth = io.read_displacements(tmp_path / "motion.csv")
        assert np.abs(np.diff(truth.transverse)).max() == 29
        assert motion_error(io.read_displacements(tmp_path / "t.csv"), truth)[1] == 0.0


class TestSurfacesOnTheVolume:
    """Every command that reads surfaces checks them against its volume."""

    @pytest.mark.parametrize("argv", [
        ["align", "--mode", "supervised"],
        ["transverse", "--radius", 2],
        ["preprocess", "--crop", "2:7"],
    ])
    def test_surfaces_off_the_volume_grid_rejected(self, argv):
        with input_dir() as root:  # the volume is 3x4 (N_B x N_A)
            io.write_surfaces(root / "small.csv", SurfaceSet(np.full((1, 2, 3), 4.0)))
            code, lines = run_quiet([*argv, "--vol", root / "vol.bin", "--surfaces",
                                     root / "small.csv", "--out", root / "out",
                                     *(["--out-surfaces", root / "out.csv"]
                                       if argv[0] == "preprocess" else [])])
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "DimensionError" and "--surfaces" in err["message"]
            assert "2x3" in err["message"] and "3x4" in err["message"]
            assert not (root / "out").exists() and not (root / "out.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["align", "--mode", "supervised"],
        ["transverse", "--radius", 2],
    ])
    def test_surface_rows_past_the_volume_rejected(self, argv):
        with input_dir() as root:  # the volume has 8 rows
            for rows, name in ((8.0, "last.csv"), (9.0, "deep.csv")):
                io.write_surfaces(root / name, SurfaceSet(np.full((1, 3, 4), rows)))
            base = [*argv, "--vol", root / "vol.bin", "--out", root / "out", "--surfaces"]
            assert run_quiet([*base, root / "last.csv"]) == (0, [])
            (root / "out").unlink()
            code, lines = run_quiet([*base, root / "deep.csv"])
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "ValidationError" and "--surfaces" in err["message"]
            assert not (root / "out").exists()

    @pytest.mark.parametrize("command", ["align", "transverse", "eval"])
    def test_non_finite_row_is_a_validation_error(self, command):
        with input_dir() as root:
            argv = eval_argv(root) if command == "eval" else [
                command, "--vol", root / "vol.bin", "--surfaces", root / "surf.csv",
                "--out", root / "out", *(["--mode", "supervised"] if command == "align"
                                         else ["--radius", 2])]
            rows = (root / "surf.csv").read_text().splitlines()
            for r, error in (("nan", "ValidationError"), ("inf", "ValidationError"),
                             (None, "FormatError")):  # None: a duplicated row
                bad = list(rows)
                bad[5] = bad[4] if r is None else bad[5].rsplit(",", 1)[0] + "," + r
                (root / "surf.csv").write_text("\n".join(bad) + "\n")
                code, lines = run_quiet(argv)
                assert_one_line_error(code, lines)
                assert json.loads(lines[0])["error"] == error
                assert not (root / "out").exists()


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

    def test_out_surfaces_requires_surfaces(self):
        with input_dir() as root:
            code, lines = run_quiet(["preprocess", "--vol", root / "vol.bin", "--crop", "2:7",
                                     "--out", root / "out.bin", "--out-surfaces", root / "s.csv"])
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "ConfigError" and "--surfaces" in err["message"]
            assert not (root / "out.bin").exists() and not (root / "s.csv").exists()

    @pytest.mark.parametrize("flatten", [[], ["--flatten"]])
    def test_surfaces_nothing_reads_rejected(self, flatten):
        # without --crop or --out-surfaces the surfaces would be checked and dropped
        with input_dir() as root:
            code, lines = run_quiet(["preprocess", "--vol", root / "vol.bin", *flatten,
                                     "--surfaces", root / "surf.csv", "--out", root / "out.bin"])
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "ConfigError" and "--surfaces" in err["message"]
            assert not (root / "out.bin").exists()

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

    def test_no_class_probs_prints_what_the_labels_one_hot_file_prints(self, tmp_path,
                                                                        capsys, rng):
        n_s, n_b, n_a, n_r = 3, 4, 5, 20
        gt = np.sort(rng.integers(3, 18, size=(n_s, n_b, n_a)), axis=0).astype(float)
        q = rng.uniform(1e-3, 1.0, size=(n_s, n_b, n_a, n_r))
        labels = surfaces_to_labels(SurfaceSet(gt), n_r)
        one_hot = np.stack([labels.labels == c for c in range(n_s + 1)]).astype(float)
        paths = {k: tmp_path / v for k, v in {
            "--q": "q.bin", "--surfaces": "s.csv", "--labels": "m.bin",
            "--weights": "w.json", "--class-probs": "c.bin"}.items()}
        io.write_distributions(paths["--q"], q / q.sum(axis=-1, keepdims=True))
        io.write_surfaces(paths["--surfaces"], SurfaceSet(gt))
        io.write_labels(paths["--labels"], labels)
        paths["--weights"].write_text(json.dumps({"lambda_base": 0.1}))
        io.write_distributions(paths["--class-probs"], one_hot)
        argv = ["losses"]
        for key, path in paths.items():
            argv += [key, path]
        printed = []
        for args in (argv[:-2], argv):
            assert run(args) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert json.loads(printed[0])["dice_ce"] == 0.0

    @pytest.mark.parametrize("flag", ["--q", "--class-probs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_probability_file_reports_validation_error(self, tmp_path, capsys,
                                                           flag, bad):
        gt = np.full((1, 2, 3), 4.0)
        paths = {k: tmp_path / v for k, v in {
            "--q": "q.bin", "--class-probs": "c.bin", "--surfaces": "s.csv",
            "--labels": "m.bin", "--weights": "w.json"}.items()}
        q = np.full((1, 2, 3, 8), 0.125)
        classes = np.stack([np.arange(8) < 3, np.arange(8) >= 3]).astype(float)
        classes = np.broadcast_to(classes[:, None, None, :], (2, 2, 3, 8)).copy()
        (q if flag == "--q" else classes)[0, 1, 2, 5] = bad
        io.write_distributions(paths["--q"], q)
        io.write_distributions(paths["--class-probs"], classes)
        io.write_surfaces(paths["--surfaces"], SurfaceSet(gt))
        io.write_labels(paths["--labels"], surfaces_to_labels(SurfaceSet(gt), 8))
        paths["--weights"].write_text(json.dumps({"lambda_l": [0.1]}))
        argv = ["losses"]
        for key, path in paths.items():
            argv += [key, path]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"] == "ValidationError"
        assert str(paths[flag]) in err["message"]

    @pytest.mark.parametrize("label_grid", [(3, 5, 10), (3, 4, 12)])
    def test_labels_off_the_distribution_grid_rejected(self, tmp_path, label_grid,
                                                       rng):
        n_b, n_a, n_r = label_grid
        gt = np.sort(rng.integers(3, 8, size=(2, 3, 4)), axis=0).astype(float)
        q = rng.uniform(1e-3, 1.0, size=(2, 3, 4, 10))
        paths = {k: tmp_path / v for k, v in {
            "--q": "q.bin", "--surfaces": "s.csv", "--labels": "m.bin",
            "--weights": "w.json"}.items()}
        io.write_distributions(paths["--q"], q / q.sum(axis=-1, keepdims=True))
        io.write_surfaces(paths["--surfaces"], SurfaceSet(gt))
        io.write_labels(paths["--labels"],
                        surfaces_to_labels(SurfaceSet(np.full((2, n_b, n_a), 4.0)), n_r))
        paths["--weights"].write_text(json.dumps({"lambda_l": [0.1, 0.2]}))
        argv = ["losses"]
        for key, path in paths.items():
            argv += [key, path]
        code, lines = run_quiet(argv)
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err["error"] == "DimensionError"
        assert f"{n_b}x{n_a}x{n_r}" in err["message"] and "3x4x10" in err["message"]

    @pytest.mark.parametrize("text, named", [
        ('{"lambda_base": 0.1', "JSON"),                  # truncated: not valid JSON
        ('{"lambda_base": "x"}', "lambda_base"),          # not a number
        ('{"lambda_base": "0.1"}', "lambda_base"),        # a number's string
        ('{"lambda_base": true}', "lambda_base"),         # a bool is not a number
        ('{"lambda_base": 1e400}', "lambda_base"),        # not finite
        ('"lambda_l"', "object"),                         # valid JSON, not an object
        ('{"lambda_l": ["a", 1]}', "lambda_l"),           # not a vector of numbers
        ('{"lambda_l": ["1", "2", "3", "4"]}', "lambda_l"),
        ('{"lambda_l": [true, 1, 1, 1]}', "lambda_l"),
        ('{"lambda_l": "1234"}', "lambda_l"),             # a string, not a list
        ('{"lambda_l": null}', "lambda_l"),
        ('{"lambda_base": null}', "lambda_base"),
        ('{"weight": 1}', "weight"),                      # neither key
        ('{"lambda_base": 0.1, "lambda_L": [1]}', "lambda_L"),  # an unknown key
        ('{}', "need"),
    ])
    def test_malformed_weights_report_config_error(self, tmp_path, capsys, text, named):
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
        assert named in err["message"].replace(str(wpath), "")


    def test_both_weight_keys_refused_before_any_file_is_read(self, tmp_path):
        # lambda_l would silently override lambda_base; the other paths do not exist
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"lambda_base": 0.1, "lambda_l": [0.2]}))
        code, lines = run_quiet(["losses", "--q", tmp_path / "q.bin", "--surfaces",
                                 tmp_path / "s.csv", "--labels", tmp_path / "m.bin",
                                 "--weights", wpath])
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and "exactly one" in err["message"]


class TestEvalCommand:
    def test_perfect_prediction_reports_zero(self, phantom_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(["eval", "--pred", phantom_dir / "surfaces.csv",
                    "--gt", phantom_dir / "surfaces.csv",
                    "--vol", phantom_dir / "volume.bin",
                    "--report", report]) == 0
        data = json.loads(report.read_text())
        for key in ("mad_um", "hd95_um"):
            # one volume: its means, and no copies of them or zero spreads
            entry = data[key]
            assert set(entry) == {"surfaces", "per_surface", "overall"}
            assert set(entry["per_surface"]) == set(entry["overall"]) == {"mean_um"}
            assert len(entry["surfaces"]) == 4 and entry["per_surface"]["mean_um"] == [0.0] * 4
            assert entry["overall"]["mean_um"] == 0.0
        assert (tmp_path / "report_connectivity_pred.csv").exists()
        assert (tmp_path / "report_connectivity_gt.csv").exists()


    @pytest.mark.parametrize("which", ["--pred", "--gt"])
    def test_surfaces_off_the_volume_grid_rejected(self, which):
        with input_dir() as root:  # the volume is 3x4 (N_B x N_A)
            io.write_surfaces(root / "small.csv", SurfaceSet(np.full((1, 2, 2), 4.0)))
            argv = eval_argv(root)
            argv[argv.index(which) + 1] = root / "small.csv"
            code, lines = run_quiet(argv)
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "DimensionError"
            assert "2x2" in err["message"] and "3x4" in err["message"]
            assert not (root / "out").exists()

    @pytest.mark.parametrize("which", ["--pred", "--gt"])
    def test_surface_rows_past_the_volume_rejected(self, which):
        with input_dir() as root:  # the volume has 8 rows
            io.write_surfaces(root / "deep.csv", SurfaceSet(np.full((1, 3, 4), 1e6)))
            io.write_surfaces(root / "last.csv", SurfaceSet(np.full((1, 3, 4), 8.0)))
            argv = eval_argv(root)
            argv[argv.index(which) + 1] = root / "last.csv"
            assert run_quiet(argv)[0] == 0  # the last row itself is inside
            shutil.rmtree(root / "out")
            argv[argv.index(which) + 1] = root / "deep.csv"
            code, lines = run_quiet(argv)
            assert_one_line_error(code, lines)
            err = json.loads(lines[0])
            assert err["error"] == "ValidationError" and which in err["message"]
            assert not (root / "out").exists()

    def test_surface_count_mismatch_writes_nothing(self):
        with input_dir() as root:
            io.write_surfaces(root / "two.csv", SurfaceSet(np.full((2, 3, 4), 4.0)))
            argv = eval_argv(root)
            argv[argv.index("--gt") + 1] = root / "two.csv"
            assert_one_line_error(*run_quiet(argv))
            assert not (root / "out").exists()


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

    def test_radius_must_be_below_nr(self, tmp_path):
        # the axial search spans the protocol's 15 px motion
        code, lines = run_quiet(["pipeline", "--nr", 15, "--volumes", 1,
                                 "--repeats", 1, "--out", tmp_path])
        assert_one_line_error(code, lines)
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not (tmp_path / "report.json").exists()

    def test_negative_seed_rejected(self, tmp_path):
        code, lines = run_quiet(["pipeline", "--seed", -1, "--volumes", 1, "--repeats", 1,
                                 "--out", tmp_path])
        assert_one_line_error(code, lines)
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and "seed" in err["message"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--layers", "--radius", "--transverse-radius"])
    def test_protocol_fixes_layers_and_radii(self, flag):
        with pytest.raises(SystemExit), contextlib.redirect_stderr(text_io.StringIO()):
            cli.build_parser().parse_args(["pipeline", flag, "3", "--out", "o"])

    def test_dims_too_large_for_one_volume_fail_before_allocating(self, tmp_path):
        code, lines = run_quiet(["pipeline", "--nb", 10**20, "--volumes", 1, "--repeats", 1,
                                 "--out", tmp_path])
        assert_one_line_error(code, lines)
        assert json.loads(lines[0])["error"] == "ValidationError"
        assert not (tmp_path / "report.json").exists()

    def test_report_does_not_depend_on_jobs(self):
        kwargs = dict(seed=3, volumes=2, repeats=1, dims=(8, 32, 96))
        serial, _ = run_pipeline(jobs=1, **kwargs)
        parallel, _ = run_pipeline(jobs=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_jobs_start_at_most_one_worker_per_item(self, monkeypatch):
        # the pool forks every worker up front, so --jobs 5000 on two items
        # must ask for two; the stand-in records that and starts no process
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        kwargs = dict(seed=3, volumes=1, repeats=2, dims=(8, 32, 96))
        pooled, _ = run_pipeline(jobs=5000, **kwargs)
        assert asked == [2]
        serial, _ = run_pipeline(jobs=1, **kwargs)
        assert json.dumps(pooled, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_every_axial_radius_default_is_the_motion_amplitude():
    parser = cli.build_parser()
    align_args = parser.parse_args(["align", "--vol", "v", "--out", "o"])
    assert SEARCH_RADIUS == 15
    assert AlignConfig().search_radius == SEARCH_RADIUS
    assert align_args.radius == SEARCH_RADIUS
