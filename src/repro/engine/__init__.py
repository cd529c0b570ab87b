"""The execution engine: batched, durable, incrementally viewed.

Everything in :mod:`repro.api` answers one query at a time against one
mutable session.  This subsystem turns that library into an engine for
request *streams*:

* :mod:`repro.engine.batch` — :func:`~repro.engine.batch.execute_many`
  groups a batch of requests by compiled plan and runs their
  minimal-model sweeps as one; :func:`~repro.engine.batch.execute_stream`
  interleaves batched reads with writes in stream order.  Every read
  runs in process, on the live session.
* :mod:`repro.engine.views` — :class:`~repro.engine.views.MaterializedView`
  keeps a registered certain-answers query up to date across mutations,
  re-evaluating only the delta the bumped generation permits.
* :mod:`repro.engine.wal` — :class:`~repro.engine.wal.WriteAheadLog`
  makes a session durable (checksummed per-mutation records, snapshot
  compaction, ``Session.recover``) and doubles as a cross-process change
  feed via :class:`~repro.engine.wal.WalFollower`.
* :mod:`repro.engine.faults` — deterministic, seedable fault injection
  (torn WAL writes, crashed compactions, dropped connections, lagging
  or crashed replicas) behind the ``REPRO_FAULTS`` env knob.

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
from repro.engine.views import MaterializedView
from repro.engine.wal import WalError, WalFollower, WriteAheadLog, recover

__all__ = [
    "MaterializedView",
    "Mutation",
    "QueryRequest",
    "WalError",
    "WalFollower",
    "WriteAheadLog",
    "execute_many",
    "execute_stream",
    "recover",
]
