"""Actor-pool sizing shared by every broadcast map_batches stage.

A fixed ``concurrency=(1, 8)`` default left 24 of 32 CPUs idle during the
dominant stage of most queries (overlay_union spent 210 s at 8 actors where
the same work fits in ~70 s at 28). Autoscaling pools start at 1 actor, so
small inputs never over-spawn; the cap just needs to track the cluster.

NOTE: never use a FIXED concurrency equal to the CPU count — it starves
upstream read tasks and deadlocks (see DEVNOTES); always (1, N) with
N < cpus. A 1-CPU session has no such N: there ``pool_cap`` is 0 and
``broadcast_map_batches`` runs tasks.
"""

from __future__ import annotations


def pool_cap(nrows=None, batch_size=None) -> int:
    """Actor cap for an autoscaling pool in this session:
    ``max(8, cpus - 4)``, but at most ``cpus - 1`` so one CPU stays free
    for the read tasks that feed the pool (0 in a 1-CPU session).

    ``nrows``/``batch_size`` (both optional) are a size hint: when the
    caller knows the input row count (parquet footer metadata — free),
    the cap is additionally bounded by the number of batches the input
    actually yields. Tiny broadcast queries (single-block inputs)
    otherwise pay ~24 actors of spin-up for one batch of work — the
    r3 pip_pairs/knn3 regression (1.2 s → 4.2/7.9 s). The hint only
    LOWERS the cap, so big inputs keep the full cluster-sized pool."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    cap = min(max(8, cpus - 4), cpus - 1)
    if nrows is not None and batch_size:
        # floor of 2: block bundling can emit one stray extra batch, and a
        # second warm actor hides one slow spawn; beyond that, extra actors
        # on a single-batch input are pure spin-up cost
        cap = min(cap, max(2, -(-int(nrows) // int(batch_size))))
    return cap


def default_pool(concurrency=None, nrows=None, batch_size=None):
    """Resolve ``None`` into ``(1, pool_cap(nrows, batch_size))``, at
    least ``(1, 1)``; pass explicit values through unchanged."""
    if concurrency is not None:
        return concurrency
    return (1, max(1, pool_cap(nrows, batch_size)))


SMALL_TASK_BATCHES = 4


def per_batch(cls, **kwargs):
    """A task-stage callable for a stage class: builds ``cls(**kwargs)``
    for each batch and calls it. For classes whose ``__init__`` is cheap
    (a ``ray.get`` of a prebuilt broadcast index): a task stage holds no
    CPU between batches, so it cannot starve the tasks that feed it."""
    def fn(batch):
        return cls(**kwargs)(batch)

    return fn


def broadcast_map_batches(ds, cls, *, fn_constructor_kwargs, batch_size,
                          batch_format="pyarrow", concurrency=None,
                          nrows=None, **kw):
    """map_batches dispatch for broadcast stages with a CHEAP __init__.

    Small inputs (<= SMALL_TASK_BATCHES batches by the ``nrows`` hint) run
    as a STATELESS task-pool stage: Ray tasks reuse warm worker processes,
    so there is no actor spawn at all — the class is constructed fresh per
    batch (init must be cheap: a ray.get of a prebuilt broadcast index,
    as ``ops.spatial.SFilter`` does, or of a small table). Measured on knn3 (15k rows, one batch): even a capped
    2-actor pool swings 1.4-6.7 s on a warm session from actor-spawn
    timing; the task pool is a stable 0.8-0.9 s. Large inputs keep the
    autoscaling actor pool so the init runs once per actor, not per batch,
    except in a 1-CPU session (``pool_cap`` 0), where any actor would
    hold the CPU its own read tasks wait for: there every input runs as
    tasks.
    """
    if concurrency is None and (
        (nrows is not None and batch_size
         and -(-int(nrows) // int(batch_size)) <= SMALL_TASK_BATCHES)
        or pool_cap() < 1
    ):
        return ds.map_batches(per_batch(cls, **fn_constructor_kwargs),
                              batch_size=batch_size, batch_format=batch_format, **kw)
    return ds.map_batches(
        cls, fn_constructor_kwargs=fn_constructor_kwargs,
        batch_size=batch_size, batch_format=batch_format,
        concurrency=default_pool(concurrency, nrows=nrows,
                                 batch_size=batch_size),
        **kw,
    )
