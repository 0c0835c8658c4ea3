"""Span tracer for the traced benchmark run.

The tracer patches public methods of each layer's classes from outside
the package, so the program under test is never edited. Every patched
call becomes a span; a span's *self time* is its duration minus the
durations of the spans it called. Spans are recorded only

* in the process that installed the tracer (worker processes are
  ``fork``ed and inherit the patched classes, but record nothing), and
* on a thread that is inside a *root* span — one benchmark operation,
  one daemon job (``SpeculationDaemon._run_job``) or one daemon request
  (``SpeculationDaemon._handle``).

Because spans nest strictly per thread, the self times of all recorded
spans add up to the summed root durations exactly: that sum is the
ledger's wall, and the roots' own self time is ``engine.other``.

Alongside times, the tracer counts what passes through the engine's
boundary loop (cache queries and hits, tasks dispatched, entries shipped
and used) independently of the program's counters. Each
``RealParallelEngine.run`` call is checked against the ``RunStats`` and
``RuntimeStats`` it returns; a mismatch is recorded in
:attr:`Tracer.violations`.
"""

import contextlib
import functools
import os
import threading
import time

from repro.core.allocator import Allocator
from repro.core.cache_store import SharedCacheStore
from repro.core.excitation import ExcitationTracker
from repro.core.predictors.ensemble import PredictorEnsemble
from repro.core.recognizer import Recognizer
from repro.core.trajectory_cache import CacheEntry, TrajectoryCache
from repro.machine.executor import Machine
from repro.runtime.engine import RealParallelEngine
from repro.runtime.pool import TASK_OK, WorkerPool
from repro.serve.daemon import SpeculationDaemon
from repro.serve.journal import JobJournal

#: Ledger layers: every recorded span's self time lands in exactly one.
LEDGER = (
    "machine.run", "recognizer.find",
    "excitation.observe", "excitation.materialize", "predictors.observe",
    "allocator.advance", "allocator.dispatch_order",
    "cache.lookup", "cache.apply", "cache.insert",
    "pool.spawn", "pool.submit", "pool.poll",
    "journal.write",
    "cache_store.snapshot", "cache_store.merge", "cache_store.flush",
    "engine.other",
)

#: Counters an engine run is checked against, by RunStats/RuntimeStats
#: field.
_RUN_COUNTS = ("queries", "hits", "ff_instructions", "tasks_dispatched",
               "entries_shipped", "entries_used")


class _EngineRun:
    """Independent counts for one ``RealParallelEngine.run`` call."""

    def __init__(self, engine):
        self.engine = engine
        self.state_changed = True  # main moved since the last query
        self.queries = 0
        self.hits = 0
        self.ff_instructions = 0
        self.tasks_dispatched = 0
        self.entries_shipped = 0
        self.shipped_ids = set()
        self.used_ids = set()
        self.worker_instructions = 0
        self.task_durations = []

    def is_main(self, obj):
        machine = self.engine.machine
        return machine is not None and (obj is machine
                                        or obj is machine.state.buf)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # [name, start, child_seconds]
        self.run = None  # _EngineRun of the innermost engine.run
        self.self_time = None  # this thread's ledger dict
        self.counts = None


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.pid = os.getpid()
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        self._thread_ledgers = []  # (self_time, counts) per thread
        self._patches = []
        self.root_seconds = 0.0
        self.roots = 0
        self.runs = []  # per engine run: dict of counts and stats deltas
        self.violations = []

    # -- span bookkeeping ----------------------------------------------------

    def _thread_dicts(self, tls):
        if tls.self_time is None:
            tls.self_time = dict.fromkeys(LEDGER, 0.0)
            tls.counts = {"machine.instructions": 0}
            with self._lock:
                self._thread_ledgers.append((tls.self_time, tls.counts))
        return tls.self_time

    def _recording(self):
        if os.getpid() != self.pid:
            return None
        tls = self._tls
        return tls if tls.stack else None

    def _close(self, tls, frame, name):
        duration = time.perf_counter() - frame[1]
        tls.stack.pop()
        self._thread_dicts(tls)[name] += duration - frame[2]
        if tls.stack:
            tls.stack[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def root(self):
        """Context manager forming one root: a benchmark operation, a
        daemon job or a daemon request."""
        frame = self._open_root()
        try:
            yield
        finally:
            if frame is not None:
                self._close_root(frame)

    def _open_root(self):
        tls = self._tls
        if os.getpid() != self.pid or tls.stack:
            return None
        frame = ["engine.other", time.perf_counter(), 0.0]
        tls.stack.append(frame)
        return frame

    def _close_root(self, frame):
        duration = self._close(self._tls, frame, "engine.other")
        with self._lock:
            self.root_seconds += duration
            self.roots += 1

    # -- results -------------------------------------------------------------

    def ledger(self):
        """Layer -> self seconds, summed over every thread."""
        total = dict.fromkeys(LEDGER, 0.0)
        counts = {"machine.instructions": 0}
        with self._lock:
            for self_time, thread_counts in self._thread_ledgers:
                for name, value in self_time.items():
                    total[name] += value
                for name, value in thread_counts.items():
                    counts[name] += value
        return total, counts

    # -- patching ------------------------------------------------------------

    def _patch(self, cls, attr, wrapper_factory):
        original = getattr(cls, attr)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(
            wrapper_factory(original)))

    def _span(self, name, after=None):
        tracer = self

        def factory(fn):
            def wrapper(*args, **kwargs):
                tls = tracer._recording()
                if tls is None:
                    return fn(*args, **kwargs)
                frame = [name, time.perf_counter(), 0.0]
                tls.stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(tls, frame, name)
                if after is not None:
                    after(tls, args, result)
                return result
            return wrapper
        return factory

    def _root_method(self):
        tracer = self

        def factory(fn):
            def wrapper(*args, **kwargs):
                with tracer.root():
                    return fn(*args, **kwargs)
            return wrapper
        return factory

    def install(self):
        span = self._span
        patch = self._patch
        patch(Machine, "run", span("machine.run", _after_machine_run))
        patch(Recognizer, "find", span("recognizer.find"))
        patch(ExcitationTracker, "observe", span("excitation.observe"))
        patch(ExcitationTracker, "materialize",
              span("excitation.materialize"))
        patch(PredictorEnsemble, "observe", span("predictors.observe"))
        patch(Allocator, "advance", span("allocator.advance"))
        patch(Allocator, "dispatch_order", span("allocator.dispatch_order"))
        patch(TrajectoryCache, "lookup", span("cache.lookup", _after_lookup))
        patch(TrajectoryCache, "insert", span("cache.insert"))
        patch(CacheEntry, "apply", span("cache.apply", _after_apply))
        patch(WorkerPool, "__init__", span("pool.spawn"))
        patch(WorkerPool, "submit", span("pool.submit", _after_submit))
        patch(WorkerPool, "poll", span("pool.poll", _after_poll))
        patch(WorkerPool, "quiesce", span("pool.poll"))
        for method in ("record_submit", "record_state", "record_incident",
                       "record_mode", "store_result"):
            patch(JobJournal, method, span("journal.write"))
        patch(SharedCacheStore, "snapshot", span("cache_store.snapshot"))
        patch(SharedCacheStore, "merge", span("cache_store.merge"))
        patch(SharedCacheStore, "flush", span("cache_store.flush"))
        patch(RealParallelEngine, "run", self._engine_run)
        patch(SpeculationDaemon, "_run_job", self._root_method())
        patch(SpeculationDaemon, "_handle", self._root_method())
        return self

    def uninstall(self):
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    def _engine_run(self, fn):
        tracer = self

        def wrapper(engine):
            tls = tracer._recording()
            if tls is None:
                return fn(engine)
            before = (engine.pool.stats.snapshot()
                      if engine.pool is not None else {})
            outer, tls.run = tls.run, _EngineRun(engine)
            run = tls.run
            frame = ["engine.other", time.perf_counter(), 0.0]
            tls.stack.append(frame)
            try:
                result = fn(engine)
            finally:
                tracer._close(tls, frame, "engine.other")
                tls.run = outer
            tracer._check_run(run, result, before)
            return result
        return wrapper

    def _check_run(self, run, result, before):
        runtime = result.runtime.snapshot()

        def moved(key):
            return runtime[key] - before.get(key, 0)

        program = {
            "queries": result.stats.queries,
            "hits": result.stats.hits,
            "ff_instructions": result.stats.instructions_fast_forwarded,
            "tasks_dispatched": moved("tasks_dispatched"),
            "entries_shipped": moved("entries_shipped"),
            # The engine assigns (not adds) entries_used at run end.
            "entries_used": result.runtime.entries_used,
        }
        traced = {
            "queries": run.queries,
            "hits": run.hits,
            "ff_instructions": run.ff_instructions,
            "tasks_dispatched": run.tasks_dispatched,
            "entries_shipped": run.entries_shipped,
            "entries_used": len(run.used_ids),
        }
        record = dict(traced)
        record.update({
            "boundaries": result.stats.supersteps,
            "worker_instructions": run.worker_instructions,
            "task_durations": run.task_durations,
            "pipe_bytes": moved("bytes_sent") + moved("bytes_received"),
            "shm_bytes": (moved("shm_bytes_written")
                          + moved("shm_bytes_read")),
            "inflight_wait_s": moved("inflight_wait_seconds"),
        })
        with self._lock:
            self.runs.append(record)
            for key in _RUN_COUNTS:
                if traced[key] != program[key]:
                    self.violations.append(
                        "engine run %d: traced %s=%d but the program "
                        "counted %d" % (len(self.runs), key, traced[key],
                                        program[key]))


# -- per-span counting hooks (called only while recording) -------------------

def _after_machine_run(tls, args, result):
    tls.counts["machine.instructions"] += result.instructions
    run = tls.run
    if run is not None and run.is_main(args[0]):
        run.state_changed = True


def _after_lookup(tls, args, result):
    # The boundary query probes main's own buffer; dispatch probes a
    # materialized copy. A re-probe of an unchanged main state (after
    # an in-flight wait) is the same query.
    run = tls.run
    if run is not None and run.state_changed and run.is_main(args[2]):
        run.queries += 1
        run.state_changed = False


def _after_apply(tls, args, result):
    run = tls.run
    entry, buf = args[0], args[1]
    if run is not None and run.is_main(buf):
        run.hits += 1
        run.ff_instructions += entry.length
        run.state_changed = True
        if id(entry) in run.shipped_ids:
            run.used_ids.add(id(entry))


def _after_submit(tls, args, result):
    if tls.run is not None and result is not None:
        tls.run.tasks_dispatched += 1


def _after_poll(tls, args, outcomes):
    run = tls.run
    if run is None:
        return
    for outcome in outcomes:
        run.worker_instructions += outcome.instructions
        run.task_durations.append(outcome.duration)
        if outcome.status == TASK_OK and outcome.entry is not None \
                and not outcome.task.audit:
            run.entries_shipped += 1
            run.shipped_ids.add(id(outcome.entry))
