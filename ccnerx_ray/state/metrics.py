"""Run-level metrics counters (the "no silent caps" rule).

Stages that bound work at runtime (LSH ``max_bucket`` truncation, alias
``max_group`` caps) must surface what they dropped. A single named
zero-CPU counter actor collects increments from any worker;
:func:`snapshot` folds the counters into lineage sidecars
(``io/store.py:write_lineage``). Fire-and-forget ``.remote`` increments
keep the hot path free of round-trips — truncation is the rare case, so
the actor is started and sees traffic only when a cap actually bites.

SEMANTICS — counters are SESSION-CUMULATIVE, BEST-EFFORT SIGNALS, not
exact per-dataset accounting: Dataset re-execution / task retries /
repeated query runs re-fire the increments (over-count), and a snapshot
taken immediately after a job can race still-in-flight sends
(under-count). Their job is to make a nonzero drop VISIBLE, never to be
arithmetic inputs. Call :func:`reset` at the start of a run whose
lineage should reflect only that run (``jobs/kg_job.py`` does).
"""

from __future__ import annotations

ACTOR_NAME = "ccnerx_metrics"
NAMESPACE = "ccnerx"


def _actor():
    import ray

    @ray.remote(num_cpus=0)
    class _MetricsActor:
        def __init__(self):
            self.counters: dict[str, int] = {}

        def incr(self, key: str, n: int = 1):
            self.counters[key] = self.counters.get(key, 0) + int(n)

        def get_all(self) -> dict[str, int]:
            return dict(self.counters)

        def reset(self):
            self.counters = {}

    # detached + explicit namespace: non-detached named actors resolve in
    # the creating job's anonymous namespace, so Data shuffle-reduce tasks
    # silently got a DIFFERENT actor than the driver (observed). A
    # detached actor in a fixed namespace is one cluster-wide instance; it
    # dies with the Ray instance (sessions here are per-process).
    return _MetricsActor.options(name=ACTOR_NAME, get_if_exists=True,
                                 namespace=NAMESPACE,
                                 lifetime="detached").remote()


def incr(key: str, n: int = 1) -> None:
    """Fire-and-forget counter increment (no-op when n == 0 or Ray is
    down — metrics must never fail a pipeline)."""
    if not n:
        return
    try:
        import ray
        if ray.is_initialized():
            _actor().incr.remote(key, n)
    except Exception:
        pass


def _call(method: str, default):
    """Call ``method`` on the counter actor if one was started — reading or
    resetting counters never starts it (only :func:`incr` does)."""
    try:
        import ray
        if ray.is_initialized():
            actor = ray.get_actor(ACTOR_NAME, namespace=NAMESPACE)
            return ray.get(getattr(actor, method).remote(), timeout=10)
    except Exception:   # no actor: no counters
        pass
    return default


def snapshot() -> dict[str, int]:
    """Current counter values ({} when no counter was ever incremented)."""
    return _call("get_all", {})


def reset() -> None:
    _call("reset", None)
