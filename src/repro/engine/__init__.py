"""The execution engine: batched, snapshot-parallel, incrementally viewed.

Everything in :mod:`repro.api` answers one query at a time against one
mutable session.  This subsystem turns that library into an engine for
request *streams*:

* :mod:`repro.engine.batch` — :func:`~repro.engine.batch.execute_many`
  groups a batch of requests by compiled plan and pools the
  minimal-model sweeps; :func:`~repro.engine.batch.execute_stream`
  interleaves batched reads with writes in stream order, and with
  ``pool=`` fans each run of reads out over a daemon pool resynced to
  the writes before it.
* :mod:`repro.engine.snapshot` — cheap read-only
  :class:`~repro.engine.snapshot.SessionSnapshot` copies (shared frozen
  database + warm closures) safe to ship to workers.
* :mod:`repro.engine.pool` — :class:`~repro.engine.pool.DaemonPool`
  shards plan groups across *persistent* worker processes that live
  across batches, resyncing them to newer session state with
  incremental snapshot deltas.  It merges deterministically and
  degrades to in-process sequential execution in restricted sandboxes.
* :mod:`repro.engine.views` — :class:`~repro.engine.views.MaterializedView`
  keeps a registered certain-answers query up to date across mutations,
  re-evaluating only the delta the bumped generation permits.
* :mod:`repro.engine.wal` — :class:`~repro.engine.wal.WriteAheadLog`
  makes a session durable (checksummed per-mutation records, snapshot
  compaction, ``Session.recover``) and doubles as a cross-process change
  feed via :class:`~repro.engine.wal.WalFollower`.
* :mod:`repro.engine.faults` — deterministic, seedable fault injection
  (worker crash/hang/delay, torn WAL writes, lost resync deltas) behind
  the ``REPRO_FAULTS`` env knob, driving the pool's timeout / degrade /
  self-heal hardening.

Quickstart::

    from repro.api import Session
    from repro.engine import MaterializedView, QueryRequest, execute_many

    session = Session(db)
    results = execute_many(session, [QueryRequest(q) for q in queries])
    view = MaterializedView(session, open_query, free_vars=(x,))
    session.assert_facts(fact)        # view tracks the delta
    current = view.answers()
"""

from repro.engine.batch import (
    Mutation,
    QueryRequest,
    execute_many,
    execute_stream,
)
from repro.engine.pool import DaemonPool
from repro.engine.snapshot import SessionSnapshot, SnapshotMutationError
from repro.engine.views import MaterializedView
from repro.engine.wal import WalError, WalFollower, WriteAheadLog, recover

__all__ = [
    "DaemonPool",
    "MaterializedView",
    "Mutation",
    "QueryRequest",
    "SessionSnapshot",
    "SnapshotMutationError",
    "WalError",
    "WalFollower",
    "WriteAheadLog",
    "execute_many",
    "execute_stream",
    "recover",
]
