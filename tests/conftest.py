import numpy as np
import pytest

from oct_align.pipeline import run_pipeline

SUITE_SEED = 7
SUITE_VOLUMES = 20
SUITE_REPEATS = 5


@pytest.fixture(scope="session")
def suite():
    """The full synthetic recovery suite: 20 phantoms x 5 corruptions.

    Shared by the acceptance criteria and the paired method comparisons;
    takes about 3 s on 2 cores, and runs once per session.
    """
    report, timings = run_pipeline(seed=SUITE_SEED, volumes=SUITE_VOLUMES,
                                   repeats=SUITE_REPEATS)
    return report, timings


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
