"""Shared fixtures. Ray is initialised ONCE per pytest session, lazily —
pure-function tests never pay for it."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(params=["default", "bound", "p8"])
def update_way(request, monkeypatch):
    """The three ways ``update_kg`` runs on a 4-partition old store: as
    is; with the broadcast bound at 1 byte, so the dropped doc keys are
    joined by a Dataset join instead of on the driver; and to 8
    partitions, so round B re-buckets every carried row. Returns the
    update's ``output_partitions`` and the ``carry`` its lineage must
    record."""
    if request.param == "bound":
        import ccnerx_ray.ops.join as join
        monkeypatch.setattr(join, "BROADCAST_BYTES_DEFAULT", 1)
    return (8, "rebucket") if request.param == "p8" else (4, "partition")
