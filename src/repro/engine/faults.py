"""Deterministic, seedable fault injection for the engine.

Production behaviour under partial failure — a worker process dying
mid-batch, hanging on a wedged lock, replying late; a write-ahead-log
record torn in half by a crash; a resync delta lost on the wire — is
exactly the behaviour a test suite never sees by accident.  This module
makes those failures *reproducible*: named injection **sites** in the
engine call :func:`fire` at the moment the failure would occur, and an
installed :class:`FaultRule` decides — deterministically, from its own
counters and (optionally) its own seeded RNG — whether the failure
happens on this particular call.

The sites (each hooked where the comment says):

========================  ==================================================
``pool.worker.crash``     a :class:`~repro.engine.pool.DaemonPool` worker
                          ``os._exit``\\ s mid-batch, before replying
``pool.worker.hang``      the worker sleeps ``seconds`` (default 60) before
                          executing — long enough to trip the leader's
                          reply timeout
``pool.worker.delay``     the worker sleeps ``seconds`` (default 0.05) and
                          then replies normally (slow, not dead)
``pool.resync.drop``      :meth:`DaemonPool.resnapshot` "loses" the resync
                          delta to one worker (the stale-worker detection
                          and self-healing path)
``wal.torn_write``        :meth:`WriteAheadLog.append` writes only a prefix
                          (``fraction``, default 0.5) of the record's bytes
                          and dies (:class:`InjectedCrash`)
``wal.compact.crash``     :meth:`WriteAheadLog.compact` dies at ``stage``
                          (0 = after writing the temp snapshot, before the
                          atomic rename; 1 = after the rename, before the
                          log is truncated)
``server.conn.drop``      the serving tier severs a client connection
                          right before writing a reply — the client sees
                          EOF mid-request, the server must stay up
``server.replica.lag``    a replica server skips its per-run WAL poll, so
                          its session falls behind the primary (clients
                          must wait or fall back per ``applied_seq``)
``server.replica.crash``  a replica server aborts every open connection
                          right before a reply — a simulated replica
                          process crash; the listener stays up, so this
                          doubles as an instant supervised restart
``wal.follower.stall``    :meth:`WalFollower.poll` returns without
                          scanning — a stuck change feed (the replica
                          keeps serving its stale state)
========================  ==================================================

Rules install in-process (:func:`install`) or through the environment
knob ``REPRO_FAULTS`` (:func:`install_from_env`), which daemon workers
read at startup so injection crosses the process boundary under any
start method (``fork`` workers additionally inherit the in-process
installation).  The spec grammar is ``site[:key=value...]`` with rules
separated by ``;``::

    REPRO_FAULTS="pool.worker.crash:after=1;wal.torn_write:fraction=0.25"

Keys: ``after`` (skip the first N arrivals at the site), ``times`` (fire
at most N times, default 1; ``times=0`` means unlimited), ``prob`` +
``seed`` (fire with probability ``prob`` from a private
``random.Random(seed)`` — deterministic across runs), plus the
site-specific parameters above.  A malformed spec logs a warning and is
ignored — fault injection must never be the thing that crashes the
engine.
"""

from __future__ import annotations

import logging
import os
import random
import threading
from dataclasses import dataclass, field

from repro.core.errors import ReproError

log = logging.getLogger(__name__)

#: Environment variable carrying a fault spec into worker processes.
FAULTS_ENV = "REPRO_FAULTS"

#: The known injection sites (unknown sites in a spec only warn).
SITE_WORKER_CRASH = "pool.worker.crash"
SITE_WORKER_HANG = "pool.worker.hang"
SITE_WORKER_DELAY = "pool.worker.delay"
SITE_RESYNC_DROP = "pool.resync.drop"
SITE_WAL_TORN = "wal.torn_write"
SITE_WAL_COMPACT = "wal.compact.crash"
SITE_CONN_DROP = "server.conn.drop"
SITE_REPLICA_LAG = "server.replica.lag"
SITE_REPLICA_CRASH = "server.replica.crash"
SITE_FOLLOWER_STALL = "wal.follower.stall"

SITES = (
    SITE_WORKER_CRASH,
    SITE_WORKER_HANG,
    SITE_WORKER_DELAY,
    SITE_RESYNC_DROP,
    SITE_WAL_TORN,
    SITE_WAL_COMPACT,
    SITE_CONN_DROP,
    SITE_REPLICA_LAG,
    SITE_REPLICA_CRASH,
    SITE_FOLLOWER_STALL,
)


class InjectedCrash(ReproError):
    """The simulated process death of an injected fault.

    Raised by in-process sites (WAL writes) where ``os._exit`` would
    take the test runner down with it; the state left behind — the
    half-written record, the un-truncated log — is exactly the state a
    real crash at that point would leave.
    """


@dataclass
class FaultRule:
    """When should the fault at ``site`` fire?

    Deterministic by construction: the decision depends only on the
    rule's own arrival counter and its private seeded RNG, never on
    global randomness or timing.
    """

    site: str
    #: skip the first ``after`` arrivals at the site
    after: int = 0
    #: fire at most ``times`` times (0 = unlimited)
    times: int = 1
    #: fire with this probability once eligible (1.0 = always)
    prob: float = 1.0
    #: seed for the private RNG behind ``prob``
    seed: int = 0
    #: site-specific parameters (seconds, fraction, stage, ...)
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._seen = 0
        self._fired = 0
        self._rng = random.Random(self.seed)

    def check(self) -> bool:
        """One arrival at the site: does the fault fire this time?"""
        self._seen += 1
        if self._seen <= self.after:
            return False
        if self.times and self._fired >= self.times:
            return False
        if self.prob < 1.0 and self._rng.random() >= self.prob:
            return False
        self._fired += 1
        return True

    def param(self, key: str, default: float) -> float:
        """A site-specific numeric parameter with a default."""
        return self.params.get(key, default)


class FaultInjector:
    """The installed rule set; one per process, see :func:`install`."""

    def __init__(self, rules: list[FaultRule] | None = None) -> None:
        self._rules: dict[str, FaultRule] = {}
        self._lock = threading.Lock()
        for rule in rules or ():
            self._rules[rule.site] = rule

    @property
    def active(self) -> bool:
        return bool(self._rules)

    def fire(self, site: str) -> FaultRule | None:
        """The rule for ``site`` if it fires on this arrival, else None."""
        rule = self._rules.get(site)
        if rule is None:
            return None
        with self._lock:
            fired = rule.check()
        if fired:
            log.warning("fault injected site=%s params=%r", site, rule.params)
            return rule
        return None


#: The process-global injector.  Empty (inactive) by default; tests and
#: the ``REPRO_FAULTS`` environment knob install rules into a fresh one.
_INJECTOR = FaultInjector()


def install(rules: list[FaultRule]) -> None:
    """Replace the process-global rule set (counters start fresh)."""
    global _INJECTOR
    _INJECTOR = FaultInjector(rules)


def reset() -> None:
    """Remove every installed rule."""
    install([])


def active() -> bool:
    """Is any fault rule currently installed in this process?"""
    return _INJECTOR.active


def fire(site: str) -> FaultRule | None:
    """Called by the engine at an injection site; None = proceed normally."""
    return _INJECTOR.fire(site)


def parse_spec(spec: str) -> list[FaultRule]:
    """Parse a ``REPRO_FAULTS`` spec string into rules.

    Malformed entries log a warning and are dropped (never raised): a
    bad knob value must not take the engine down.
    """
    rules: list[FaultRule] = []
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        site = parts[0].strip()
        if site not in SITES:
            log.warning("ignoring unknown fault site %r in %s", site, FAULTS_ENV)
            continue
        kwargs: dict[str, float] = {}
        bad = False
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                log.warning("ignoring malformed fault entry %r (want key=value)", entry)
                bad = True
                break
            try:
                kwargs[key] = float(value)
            except ValueError:
                log.warning(
                    "ignoring fault entry %r: %r is not numeric", entry, value
                )
                bad = True
                break
        if bad:
            continue
        rule = FaultRule(
            site,
            after=int(kwargs.pop("after", 0)),
            times=int(kwargs.pop("times", 1)),
            prob=float(kwargs.pop("prob", 1.0)),
            seed=int(kwargs.pop("seed", 0)),
            params=kwargs,
        )
        rules.append(rule)
    return rules


def spec_of(rules: list[FaultRule]) -> str:
    """Serialize rules back into the spec grammar (for shipping via env)."""
    entries = []
    for rule in rules:
        keys: dict[str, float] = {}
        if rule.after:
            keys["after"] = rule.after
        if rule.times != 1:
            keys["times"] = rule.times
        if rule.prob != 1.0:
            keys["prob"] = rule.prob
        if rule.seed:
            keys["seed"] = rule.seed
        keys.update(rule.params)
        suffix = "".join(f":{k}={v:g}" for k, v in keys.items())
        entries.append(rule.site + suffix)
    return ";".join(entries)


def install_from_env(environ=None) -> bool:
    """Install rules from ``REPRO_FAULTS`` if set; True when any installed.

    Called by daemon workers at startup (so ``spawn`` workers see the
    same faults ``fork`` workers inherit) and usable from any entry
    point that wants env-driven injection.
    """
    environ = os.environ if environ is None else environ
    spec = environ.get(FAULTS_ENV)
    if not spec:
        return False
    rules = parse_spec(spec)
    if rules:
        install(rules)
    return bool(rules)


__all__ = [
    "FAULTS_ENV",
    "FaultInjector",
    "FaultRule",
    "InjectedCrash",
    "SITES",
    "SITE_CONN_DROP",
    "SITE_FOLLOWER_STALL",
    "SITE_REPLICA_CRASH",
    "SITE_REPLICA_LAG",
    "SITE_RESYNC_DROP",
    "SITE_WAL_COMPACT",
    "SITE_WAL_TORN",
    "SITE_WORKER_CRASH",
    "SITE_WORKER_DELAY",
    "SITE_WORKER_HANG",
    "active",
    "fire",
    "install",
    "install_from_env",
    "parse_spec",
    "reset",
    "spec_of",
]
