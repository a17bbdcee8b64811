import os

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")

try:  # deterministic hypothesis: a fresh falsifying example must not
    # flake a CI/driver round — failures should reproduce exactly
    from hypothesis import settings

    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile("ci")
except ImportError:  # pragma: no cover
    pass


@pytest.fixture(scope="session", autouse=True)
def fresh_window_stores():
    """The windowed store queries keep their ``DailySketchStore``s under
    /tmp/graft_windows, keyed by config hash only, so a store built by
    older code would stand in for the current build. Drop the stores once
    per session, before the first test; the ``convs_*`` corpora they are
    built from stay."""
    import glob
    import shutil

    for prefix in ("daily_", "evsweep_", "evdaily_"):
        for d in glob.glob(f"/tmp/graft_windows/{prefix}*"):
            shutil.rmtree(d)


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (local, 4 CPUs)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"
