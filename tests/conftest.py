import pytest

from rdsymm.verify import run_suite


@pytest.fixture(scope="session")
def suite_report():
    """The full corpus report at seed 0, built once for every test that
    reads it (the run takes about 20 s)."""
    return run_suite(seed=0)
