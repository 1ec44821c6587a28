"""Two-tier test configuration (see tests/README.md).

Tier 1 (the default, what CI runs): every test not marked ``slow``,
with scenarios at their small ``default_size``.  Tier 2: pass
``--scenario-size N`` to also run the ``slow``-marked full-matrix
sweeps at size N; without the option those tests are skipped.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--scenario-size", type=int, default=None,
        help="run slow full-matrix scenario tests at this workload size "
             "(omit to keep the fast tier-1 default sizes only)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--scenario-size") is None:
        skip = pytest.mark.skip(
            reason="slow tier: pass --scenario-size to enable")
        for item in items:
            if "slow" in item.keywords:
                item.add_marker(skip)


@pytest.fixture
def scenario_size(request):
    """The requested tier-2 workload size (None in tier-1 runs)."""
    return request.config.getoption("--scenario-size")


@pytest.fixture(autouse=True)
def _sweep_config_isolation():
    """Reset the process-wide sweep config after every test.

    The config (store roots, LRU sizes, profiling knobs) is
    deliberately process-global so pool workers receive it; in the test
    process that would leak one test's settings into the next.  The
    reset also empties every artifact chain's LRU and drops any pending
    kernel engine note.
    """
    yield
    from repro.runner import config

    config.reset()
