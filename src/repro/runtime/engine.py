"""The real-time parallel engine: ASC's Figure 1 loop on actual cores.

Where :class:`~repro.core.engine.ParallelEngine` *simulates* an N-core
platform (executing speculations serially and charging their latency to
a cost model), this engine runs the main thread in-process and ships
allocator-ranked speculation tasks to a :class:`WorkerPool` of real OS
processes. Completed cache entries stream back over pipes into an
in-process trajectory cache, and the main thread fast-forwards exactly
as the simulated engine does. All timing is wall-clock.

Correctness does not depend on any of the machinery working: every
cache entry a worker ships is an exact fact about the deterministic
transition function ("a state agreeing on these read bytes evolves to
these written bytes in N instructions"), so applying a matching entry
is identical to executing the instructions. Crashed, timed-out, and
mispredicted speculations simply produce nothing. The differential
tests assert the strong form: the final machine state is byte-identical
to a plain sequential run.

Scheduling at a superstep boundary:

1. drain completed results into the cache (non-blocking);
2. probe the cache; on a hit, splice and go straight to the next
   boundary — no boundary modelling, since speculation from a state
   main is about to jump past could never be used;
3. on a miss, observe the state, advance the learners/allocator, and
   dispatch uncovered rollout targets to idle worker slots
   (backpressure: at most ``queue_depth`` tasks in flight per worker).
   The first miss after a run of hits re-anchors the learners before
   observing: the observation stream skipped the states main spliced
   past;
4. on a miss where the *current* state is itself an in-flight
   speculation, optionally wait for that worker instead of re-executing
   the superstep — but only when its estimated remaining time is
   cheaper than executing (an EWMA of task and superstep durations
   decides; on a saturated single core the engine correctly prefers to
   execute, on spare cores it converts pipeline stalls into hits).

Resilience: every boundary first asks the pool's supervisor whether
speculation is currently allowed. When the pool has degraded below its
worker floor (crash storms, quarantines), the engine simply stops
dispatching and waiting — it *is* the sequential fallback, and the
trajectory cache it has accumulated keeps serving hits — until the
supervisor re-enables speculation after its cooldown. A
:class:`~repro.core.checkpoint.Checkpointer` snapshots machine state,
cumulative instruction count, and the cache at boundary granularity;
``resume_from`` restarts a killed run from such a snapshot and, by
determinism, reaches a byte-identical final state.
"""

import time

from repro.core.allocator import Allocator, RelevanceMask
from repro.core.config import EngineConfig
from repro.core.excitation import ExcitationTracker
from repro.core.predictors.ensemble import default_ensemble
from repro.core.recognizer import Recognizer
from repro.core.stats import RunStats
from repro.core.trajectory_cache import TrajectoryCache
from repro.errors import EngineError
from repro.machine.layout import STOP_BREAKPOINT
from repro.runtime.autoscaler import AutoscaleSignals, resolve_autoscaler
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import TASK_FAILED, TASK_OK, WorkerPool
from repro.runtime import resources
from repro.runtime.stats import RuntimeStats
from repro.verify.auditor import SpliceAuditor
from repro.verify.config import resolve_verify


class RealParallelResult:
    """Everything measured by one real-runtime run."""

    def __init__(self, program_name, n_workers, recognized, wall_seconds,
                 total_instructions, stats, runtime, cache, final_state,
                 halted, machine):
        self.program_name = program_name
        self.n_workers = n_workers
        self.recognized = recognized
        self.wall_seconds = wall_seconds
        self.total_instructions = total_instructions
        self.stats = stats  # core RunStats (supersteps, hits, ff, ...)
        self.runtime = runtime  # RuntimeStats (tasks, bytes, crashes, ...)
        self.cache = cache
        self.final_state = final_state  # bytes; differential ground truth
        self.halted = halted
        self.machine = machine

    def speedup_vs(self, sequential_wall_seconds):
        """Wall-clock scaling against a measured sequential run."""
        if self.wall_seconds <= 0:
            return 0.0
        return sequential_wall_seconds / self.wall_seconds

    def __repr__(self):
        return ("RealParallelResult(%s, workers=%d, wall=%.3fs, hits=%d, "
                "ff=%d, shipped=%d)"
                % (self.program_name, self.n_workers, self.wall_seconds,
                   self.stats.hits, self.stats.instructions_fast_forwarded,
                   self.runtime.entries_shipped))


class _DurationEwma:
    """Exponentially weighted wall-time estimate."""

    __slots__ = ("value", "alpha")

    def __init__(self, alpha=0.3):
        self.value = None
        self.alpha = alpha

    def update(self, sample):
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)


class RealParallelEngine:
    """One ASC run of a program on real spare cores.

    ``pool`` may be shared across runs of the same program (workers are
    program-specific); when omitted, a pool is created for the run and
    shut down afterwards — including on error and KeyboardInterrupt.
    ``boundary_hook``, if given, is called as ``hook(engine, superstep)``
    at every boundary; the crash-injection tests use it to kill workers
    mid-run. ``checkpointer`` (a
    :class:`~repro.core.checkpoint.Checkpointer`) snapshots the run
    periodically; ``resume_from`` (a loaded
    :class:`~repro.core.checkpoint.Checkpoint`) restarts from one.
    """

    def __init__(self, program, config=None, runtime_config=None,
                 recognized=None, pool=None, initial_cache=None,
                 boundary_hook=None, checkpointer=None, resume_from=None,
                 verify=None):
        self.program = program
        self.config = config or EngineConfig()
        self.runtime_config = runtime_config or RuntimeConfig()
        self.recognized = recognized
        self.pool = pool
        self.initial_cache = initial_cache
        self.boundary_hook = boundary_hook
        self.checkpointer = checkpointer
        self.resume_from = resume_from
        self.verify = resolve_verify(verify)
        # Exposed for tests/CLI after run():
        self.machine = None
        self.resumed_instructions = 0

    # -- helpers -------------------------------------------------------------

    def _prepare(self):
        if self.recognized is None:
            try:
                self.recognized = Recognizer(self.config).find(self.program)
            except EngineError:
                # Too short or too irregular to recognize: the backend
                # still owes the caller a correct run (plain execution).
                self.recognized = None

    def run(self):
        """Execute to halt; returns a :class:`RealParallelResult`."""
        self._prepare()
        rtc = self.runtime_config
        own_pool = self.pool is None
        pool = self.pool
        if own_pool:
            pool = WorkerPool(self.program, rtc)
        try:
            return self._run(pool)
        finally:
            if own_pool:
                pool.shutdown()

    # -- the run -------------------------------------------------------------

    def _run(self, pool):
        program = self.program
        config = self.config
        rtc = self.runtime_config
        recognized = self.recognized
        runtime = pool.stats
        stats = RunStats()

        cache = TrajectoryCache(capacity_bytes=config.cache_capacity_bytes)
        if self.initial_cache is not None:
            for entry in self.initial_cache.entries():
                cache.insert(entry.with_ready_time(0.0))

        auditor = None
        if self.verify is not None and self.verify.enabled:
            auditor = SpliceAuditor(self.verify, cache,
                                    context_factory=program.make_context,
                                    stats_sink=runtime)

        main = program.make_machine(fast_path=config.fast_path)
        self.machine = main
        guard = rtc.max_instructions
        base_instructions = 0

        if self.resume_from is not None:
            ck = self.resume_from
            if len(ck.state) != len(main.state.buf):
                raise EngineError(
                    "checkpoint state is %d bytes but this program's "
                    "state vector is %d — wrong program or version?"
                    % (len(ck.state), len(main.state.buf)))
            main.state.buf[:] = ck.state
            main.instruction_count = ck.instruction_count
            base_instructions = ck.instruction_count
            self.resumed_instructions = base_instructions
            restored = ck.load_cache()
            if restored is not None:
                for entry in restored.entries():
                    cache.insert(entry.with_ready_time(0.0))
            runtime.checkpoints_restored += 1
            if self.checkpointer is not None:
                self.checkpointer.note_resumed(base_instructions)

        def progress():
            return (stats.instructions_executed
                    + stats.instructions_fast_forwarded)

        def checkpoint():
            if self.checkpointer is None:
                return
            if auditor is not None and auditor.has_pending():
                # An unverified splice may still roll this state back;
                # don't make it durable until the audits resolve.
                return
            saved = self.checkpointer.maybe_save(
                base_instructions + progress(), bytes(main.state.buf),
                cache)
            if saved:
                runtime.checkpoints_written += 1

        t0 = time.perf_counter()

        if recognized is None:
            # No recognizable structure (tiny or phaseless program):
            # degrade to a plain run — still a valid backend result.
            self._plain_run(main, stats, guard, checkpoint)
            wall = time.perf_counter() - t0
            return self._result(main, None, wall, stats, runtime, cache,
                                auditor)

        rip = recognized.ip
        scale = max(1, int(rtc.superstep_scale))
        stride = recognized.stride * scale
        break_ips = frozenset((rip,))
        spec_budget = recognized.speculation_budget(
            config.speculation_budget_factor) * scale
        mean_jump = recognized.mean_gap * stride
        autoscaler = resolve_autoscaler(rtc)
        width = pool.n_workers
        if autoscaler is not None:
            # The chain must be able to feed the pool at its *ceiling*,
            # not just its starting width, or grown workers would have
            # nothing to speculate.
            width = max(width, autoscaler.max_workers)
        max_rollout = config.max_rollout or max(
            1, width * rtc.queue_depth)

        tracker = ExcitationTracker(program.layout, config)
        mask = RelevanceMask(tracker)
        ensemble = default_ensemble(config)
        allocator = Allocator(ensemble, tracker, max_rollout, mask=mask)
        # The states the recognizer already observed (its wall time was
        # genuinely spent before this run began) warm-start the learners
        # at the first miss; a run that only ever hits never needs them.
        warm_states = recognized.training_states

        covered = set()  # relevance keys already speculated successfully
        inflight = {}  # relevance key -> SpeculationTask
        used_entries = set()  # id() of entries that fast-forwarded main
        entry_ids = set()  # id() of every shipped entry
        task_ewma = _DurationEwma()
        superstep_ewma = _DurationEwma()
        spliced = False  # a hit since the boundary model last ran

        def drain(timeout=0.0):
            for outcome in pool.poll(timeout):
                if auditor is not None and auditor.ingest(outcome):
                    continue  # an audit verdict, not a speculation
                key = outcome.task.meta
                inflight.pop(key, None)
                if outcome.status == TASK_OK:
                    task_ewma.update(outcome.duration)
                    covered.add(key)
                    entry = outcome.entry
                    cache.insert(entry)
                    entry_ids.add(id(entry))
                    mask.update_from_entry(entry)
                    stats.speculation_instructions += outcome.instructions
                elif outcome.status == TASK_FAILED:
                    # Garbage prediction: executed, produced nothing.
                    # Cover it anyway — re-speculating the same predicted
                    # state would fail identically (determinism).
                    covered.add(key)
                    stats.speculation_faults += 1
                    stats.speculation_instructions += outcome.instructions
                # crashed / timed-out / stale (shm epoch mismatch —
                # the worker never executed the task): leave uncovered
                # so the target is re-dispatched (respeculation)
                # against a fresh full snapshot if still predicted.

        def dispatch(snapshot, view):
            order = allocator.dispatch_order(mean_jump,
                                             config.min_dispatch_probability)
            chain = allocator.chain
            for idx in order:
                if pool.idle_slots() <= 0:
                    break
                step = chain[idx]
                key = mask.key_for(step)
                if key in covered or key in inflight:
                    continue
                start_buf = tracker.materialize(snapshot, step.word_values)
                if cache.lookup(rip, start_buf) is not None:
                    # A (preloaded or earlier) entry already covers this
                    # target; speculating it again would be pure waste.
                    covered.add(key)
                    continue
                task = pool.submit(rip, stride, spec_budget, start_buf,
                                   meta=key)
                if task is None:
                    break
                inflight[key] = task
                stats.speculations_dispatched += 1
                stats.speculations_executed += 1

        while not main.halted:
            # -- one superstep of real execution -------------------------
            t_step = time.perf_counter()
            executed = 0
            drought = False
            for __ in range(stride):
                result = main.run(max_instructions=recognized.drought_limit(),
                                  break_ips=break_ips)
                executed += result.instructions
                if result.reason != STOP_BREAKPOINT:
                    drought = not main.halted
                    break
            stats.instructions_executed += executed
            if executed:
                superstep_ewma.update(time.perf_counter() - t_step)
            if main.halted:
                break
            if drought:
                # The recognized RIP died (phase change / tail): run
                # plainly to halt. Workers may still be finishing; their
                # entries are simply never used.
                self._plain_run(main, stats, guard, checkpoint)
                break
            if progress() > guard:
                raise EngineError("real engine exceeded instruction guard")

            # -- boundary processing; fast-forwards chain here ------------
            while True:
                stats.supersteps += 1
                if self.boundary_hook is not None:
                    self.boundary_hook(self, stats.supersteps)
                drain(0.0)
                if auditor is not None:
                    rb = auditor.take_rollback()
                    if rb is not None:
                        # A shadow audit refuted an earlier splice:
                        # restore its pre-splice snapshot and re-enter
                        # the boundary. The offending group is already
                        # quarantined, so the segment replays
                        # sequentially from here.
                        auditor.apply_rollback(rb, main, stats)
                        continue
                if autoscaler is not None:
                    target = autoscaler.observe(AutoscaleSignals(
                        stats.supersteps, pool.active_workers,
                        pool.parked_workers, rtc.queue_depth,
                        pool.inflight_count(),
                        sum(allocator.probabilities()) * mean_jump,
                        stride, stats.hits, stats.queries,
                        stats.instructions_executed,
                        stats.instructions_fast_forwarded,
                        len(entry_ids), len(used_entries),
                        runtime.dispatch_backpressure))
                    if target is not None:
                        grown, parked = pool.resize(target)
                        if grown or parked:
                            runtime.autoscale_resizes += 1
                # The supervisor's verdict: a pool that fell below its
                # worker floor degrades the run to sequential execution
                # (no dispatch, no waiting) without touching the cache;
                # after its cooldown, speculation resumes mid-run.
                speculating = pool.speculation_allowed()
                if not speculating:
                    runtime.degraded_boundaries += 1
                buf = main.state.buf
                checkpoint()
                stats.queries += 1
                entry = cache.lookup(rip, buf)
                snapshot = None
                if entry is None:
                    # Only a miss runs the boundary model: a hit's
                    # speculation could no longer be used.
                    if warm_states or spliced:
                        # The observation stream jumps here: from the
                        # recognizer's states, or over the states main
                        # spliced past. Re-anchor rather than score and
                        # train on the jump as if it were one superstep.
                        for trained in warm_states:
                            view = tracker.observe(trained)
                            if view is not None:
                                ensemble.observe(view)
                        warm_states = ()
                        spliced = False
                        ensemble.flush_pending()
                        tracker.reset_continuity()
                        allocator.reset()
                    snapshot = bytes(buf)
                    view = tracker.observe(snapshot)
                    if view is not None:
                        ensemble.observe(view)
                        allocator.advance(view)
                        if speculating:
                            dispatch(snapshot, view)
                            entry = self._await_inflight(
                                pool, drain, inflight, mask, view,
                                task_ewma, superstep_ewma, runtime, cache,
                                rip, buf)
                    if entry is None:
                        stats.misses += 1
                        break
                spliced = True
                stats.hits += 1
                if stats.first_splice_seconds is None:
                    stats.first_splice_seconds = time.perf_counter() - t0
                pre_splice_count = base_instructions + progress()
                applied = entry
                if pool.faults is not None and id(entry) in entry_ids:
                    # Entry-level fault injection (the CRC-valid
                    # divergence class only the verify subsystem can
                    # catch) lands at *splice* time: the splice sequence
                    # is the deterministic main-thread trajectory,
                    # whereas arrival order varies with OS scheduling
                    # and could spend a taint on an entry that is never
                    # used — an unobservable fault.
                    if pool.faults.next_entry_fault() == "taint":
                        applied = pool.faults.taint_entry(entry)
                        runtime.faults_injected += 1
                if snapshot is None and auditor is not None:
                    snapshot = bytes(buf)  # the audit's pre-splice state
                applied.apply(buf)
                if id(entry) in entry_ids:
                    used_entries.add(id(entry))
                stats.instructions_fast_forwarded += applied.length
                if auditor is not None and auditor.verify_splice(
                        applied, buf, snapshot, stats, pool=pool,
                        instruction_count=pre_splice_count):
                    # Strict/inline audit refuted the splice; it is
                    # already rolled back — replay sequentially.
                    break
                if progress() > guard:
                    raise EngineError("fast-forward exceeded instruction "
                                      "guard; cyclic cache entry?")
                if main.halted:
                    break

        # -- audit epilogue: no run ends on an unverified splice ---------
        if auditor is not None:
            auditor.flush(drain)
            rb = auditor.take_rollback()
            if rb is not None:
                # A refuted splice survived to the end of the run: roll
                # back to its pre-splice snapshot and replay the rest
                # sequentially (the offending group is quarantined).
                auditor.apply_rollback(rb, main, stats)
                self._plain_run(main, stats, guard, checkpoint)
        wall = time.perf_counter() - t0
        drain(0.0)  # final sweep so the counters reflect stragglers
        if autoscaler is not None:
            runtime.autoscale_decisions.extend(autoscaler.decisions)
            del runtime.autoscale_decisions[:-512]
        runtime.entries_used = len(used_entries)
        runtime.tasks_wasted = len(entry_ids) - len(used_entries)
        return self._result(main, recognized, wall, stats, runtime, cache,
                            auditor)

    def _plain_run(self, main, stats, guard, checkpoint):
        """Sequential execution to halt, chunked so checkpoints still
        land at their cadence even without superstep boundaries."""
        chunk = guard
        if self.checkpointer is not None \
                and self.checkpointer.every_instructions is not None:
            chunk = max(1, self.checkpointer.every_instructions)
        while not main.halted:
            remaining = guard - stats.instructions_executed
            if remaining <= 0:
                break
            result = main.run(max_instructions=min(chunk, remaining))
            stats.instructions_executed += result.instructions
            if not main.halted:
                checkpoint()
            if result.instructions == 0:
                break

    def _await_inflight(self, pool, drain, inflight, mask, view, task_ewma,
                        superstep_ewma, runtime, cache, rip, buf):
        """Maybe wait for a worker already speculating the current state.

        Executing the superstep ourselves costs ~``superstep_ewma`` and
        discards the worker's (near-finished) effort; waiting costs its
        estimated remaining time. Wait only when that is the cheaper
        side of the ledger, scaled by ``inflight_wait_bias``.
        """
        rtc = self.runtime_config
        key = mask.key(view.word_values)
        task = inflight.get(key)
        if task is None:
            return None
        now = time.monotonic()
        exec_cost = superstep_ewma.value
        expected = task_ewma.value
        if exec_cost is not None and expected is not None:
            remaining = max(0.0, task.dispatch_time + expected - now)
            if remaining > exec_cost * rtc.inflight_wait_bias:
                return None
        elif rtc.inflight_wait_bias <= 1.0:
            return None  # no estimates yet: don't gamble
        deadline = now + min(rtc.max_inflight_wait_seconds,
                             rtc.task_timeout_seconds or float("inf"))
        runtime.inflight_waits += 1
        t_wait = time.perf_counter()
        while key in inflight and time.monotonic() < deadline:
            drain(min(0.05, deadline - time.monotonic()))
        runtime.inflight_wait_seconds += time.perf_counter() - t_wait
        return cache.lookup(rip, buf)

    def _result(self, main, recognized, wall, stats, runtime, cache,
                auditor=None):
        result = RealParallelResult(
            self.program.name, self.runtime_config.n_workers
            if self.pool is None else self.pool.n_workers,
            recognized, wall,
            stats.instructions_executed + stats.instructions_fast_forwarded,
            stats, runtime, cache, bytes(main.state.buf), main.halted, main)
        result.audit = auditor.report() if auditor is not None else None
        # End-of-run resource picture: where the transport's shm really
        # lives, what headroom is left, and which degradation paths this
        # run actually took (all zero on a healthy host).
        result.resources = {
            "shm_backing_dir": resources.shm_backing_dir(),
            "shm_headroom_bytes": resources.shm_headroom_bytes(),
            "worker_rlimit_as_bytes":
                self.runtime_config.worker_rlimit_as_bytes,
            "pressure": {
                "shm_fallbacks": runtime.shm_fallbacks,
                "shm_fallback_bytes": runtime.shm_fallback_bytes,
                "shm_alloc_failures": runtime.shm_alloc_failures,
                "ring_full_events": runtime.ring_full_backpressure,
                "tasks_oom": runtime.tasks_oom,
            },
        }
        return result
