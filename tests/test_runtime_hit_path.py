"""The real engine's hit path: cache hits skip the boundary model.

A boundary whose state matches a cache entry splices it and moves on.
Only a miss runs the excitation tracker, the predictor ensemble, the
allocator and dispatch, and the first miss after a run of hits
re-anchors the learners (the observation stream skipped the spliced
states). These tests preload exact entries from a sequential walk
(the ``collatz_walk`` fixture), so which boundaries hit is known.
"""

import pytest

from repro.core.allocator import Allocator
from repro.core.excitation import ExcitationTracker
from repro.core.predictors.ensemble import PredictorEnsemble
from repro.core.trajectory_cache import CacheEntry
from repro.runtime import RealParallelEngine, RuntimeConfig
from repro.runtime.pool import WorkerPool

DETERMINISTIC = RuntimeConfig(n_workers=2, inflight_wait_bias=1e9)


class BoundaryModelSpy:
    """Counts boundary-model calls, including the learners' warm start.

    It also notes, for each ensemble observation and allocator advance,
    whether main spliced since the previous observation.
    """

    def __init__(self, monkeypatch):
        self.calls = {"tracker": 0, "ensemble": 0, "allocator": 0}
        self.spliced = False  # a splice since the last observation
        self.reanchor = False  # this boundary's observation followed one
        self.observations = []  # (followed a splice, outcome.scored)
        self.advances = []  # (followed a splice, len before, shifted)
        spy = self

        def wrap(cls, name, after):
            original = getattr(cls, name)

            def wrapper(obj, *args, **kwargs):
                return after(obj, original, *args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        def tracker_observe(tracker, original, buf):
            spy.calls["tracker"] += 1
            return original(tracker, buf)

        def ensemble_observe(ensemble, original, view):
            spy.calls["ensemble"] += 1
            outcome = original(ensemble, view)
            spy.reanchor, spy.spliced = spy.spliced, False
            spy.observations.append((spy.reanchor, outcome.scored))
            return outcome

        def allocator_advance(allocator, original, view):
            spy.calls["allocator"] += 1
            before, shifts = len(allocator.chain), allocator.shifts
            original(allocator, view)
            spy.advances.append((spy.reanchor, before,
                                 allocator.shifts != shifts))

        def entry_apply(entry, original, buf):
            spy.spliced = True
            return original(entry, buf)

        wrap(ExcitationTracker, "observe", tracker_observe)
        wrap(PredictorEnsemble, "observe", ensemble_observe)
        wrap(Allocator, "advance", allocator_advance)
        wrap(CacheEntry, "apply", entry_apply)


def test_complete_preload_never_runs_the_boundary_model(
        collatz_walk, monkeypatch):
    spy = BoundaryModelSpy(monkeypatch)
    boundaries = len(collatz_walk.states)
    result = RealParallelEngine(
        collatz_walk.workload.program, config=collatz_walk.workload.config,
        runtime_config=DETERMINISTIC, recognized=collatz_walk.recognized,
        initial_cache=collatz_walk.cache()).run()
    assert result.halted
    assert result.final_state == collatz_walk.final_state
    assert result.stats.supersteps == boundaries
    assert result.stats.queries == boundaries
    assert result.stats.hits == boundaries
    assert result.stats.misses == 0
    assert spy.calls == {"tracker": 0, "ensemble": 0, "allocator": 0}
    assert result.stats.speculations_dispatched == 0
    assert result.runtime.tasks_dispatched == 0


@pytest.mark.parametrize("stretch", [7, 25])
def test_partial_preload_reanchors_after_every_hit_run(
        collatz_walk, monkeypatch, stretch):
    # Alternate stretches of preloaded and missing boundaries. Workers
    # may still cover some missing ones, so which boundaries hit is not
    # fixed; the invariants below hold whichever do.
    entries = [entry for k, entry in enumerate(collatz_walk.entries)
               if (k // stretch) % 2 == 0]
    spy = BoundaryModelSpy(monkeypatch)
    result = RealParallelEngine(
        collatz_walk.workload.program, config=collatz_walk.workload.config,
        runtime_config=DETERMINISTIC, recognized=collatz_walk.recognized,
        initial_cache=collatz_walk.cache(entries)).run()
    assert result.halted
    assert result.final_state == collatz_walk.final_state
    assert result.stats.hits >= len(entries)
    assert result.stats.misses > 0
    assert result.stats.supersteps == len(collatz_walk.states)
    assert result.stats.queries == result.stats.hits + result.stats.misses
    # Only boundaries whose first probe missed ran the boundary model
    # (an in-flight wait may still turn such a miss into a hit), plus
    # the warm start from the recognizer's states at the first miss.
    warm = len(collatz_walk.recognized.training_states)
    assert result.stats.misses + warm <= spy.calls["tracker"] \
        <= result.stats.queries - len(entries) + warm
    assert spy.calls["allocator"] <= result.stats.queries - len(entries)
    # The first observation after every hit run is not scored against
    # a prediction made before the jump ...
    after_hits = [scored for reanchor, scored in spy.observations
                  if reanchor]
    assert after_hits, "no miss followed a run of hits"
    assert not any(after_hits)
    # ... while consecutive misses keep scoring and training as before.
    assert any(scored for reanchor, scored in spy.observations
               if not reanchor)
    # The allocator chain is rebuilt from the new anchor, not shifted.
    for reanchor, before, shifted in spy.advances:
        if reanchor:
            assert before == 0 and not shifted


def test_payoff_counters_are_per_run_on_a_shared_pool(collatz_walk):
    workload = collatz_walk.workload
    with WorkerPool(workload.program, DETERMINISTIC) as pool:
        first = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, pool=pool,
            recognized=collatz_walk.recognized).run()
        assert first.final_state == collatz_walk.final_state
        pool.quiesce()  # no straggler of the first run lands in the second
        shipped_before = pool.stats.entries_shipped
        assert shipped_before > 0
        second = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, pool=pool,
            recognized=collatz_walk.recognized).run()
        assert second.final_state == collatz_walk.final_state
        shipped = pool.stats.entries_shipped - shipped_before
    assert second.runtime.tasks_wasted == shipped - second.runtime.entries_used
