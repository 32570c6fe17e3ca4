"""Start-up cost and cold-process paths.

Each test runs a fresh interpreter, so the modules it loads are the ones a
real ``oct-align`` process loads: scipy.ndimage only inside
``estimate_bm_rows`` and the process pool only for ``jobs > 1``.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oct_align import io
from oct_align.cli import main
from oct_align.synth import PhantomSpec, generate_phantom

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY_PREFIXES = ("scipy", "concurrent.futures.process", "multiprocessing")


def run_cold(code, *args):
    """Run ``code`` in a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("module", ["oct_align.cli", "oct_align"])
def test_import_loads_no_scipy_and_no_process_pool(module):
    proc = run_cold(
        f"import sys, {module}\n"
        f"print('\\n'.join(m for m in sys.modules if m.startswith({HEAVY_PREFIXES!r})))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cold_flatten_writes_what_an_in_process_run_writes(tmp_path):
    vol, _ = generate_phantom(PhantomSpec(n_b=4, n_a=16, n_r=48, seed=2))
    io.write_volume(tmp_path / "vol.bin", vol)
    argv = ["preprocess", "--vol", tmp_path / "vol.bin", "--flatten", "--out"]
    assert main([str(a) for a in argv + [tmp_path / "warm.bin"]]) == 0
    proc = run_cold("import sys\nfrom oct_align.cli import main\n"
                    "raise SystemExit(main(sys.argv[1:]))", *argv, tmp_path / "cold.bin")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cold.bin").read_bytes() == (tmp_path / "warm.bin").read_bytes()


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_workers_started_fresh_give_the_serial_report(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    argv = ["pipeline", "--seed", "7", "--volumes", "2", "--repeats", "1", "--out"]
    assert main(argv + [str(tmp_path / "serial"), "--jobs", "1"]) == 0
    proc = run_cold(
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from oct_align.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))",
        *argv, tmp_path / "pool", "--jobs", "2",
    )
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "pool" / "report.json").read_bytes()
            == (tmp_path / "serial" / "report.json").read_bytes())
