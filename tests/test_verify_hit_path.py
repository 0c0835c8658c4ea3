"""Audit and rollback of a splice reached on the real engine's hit path.

A hit splices without running the boundary model, so the engine takes
the audit's pre-splice snapshot lazily, right before the splice. These
tests preload a complete cache of exact entries (the ``collatz_walk``
fixture) with one entry tainted, so the tainted splice lands in the
middle of an unbroken run of hits, and check that the audit still
refutes it, quarantines its group and rolls back to a final state
byte-identical to sequential.
"""

import numpy as np
import pytest

from repro.core.trajectory_cache import CacheEntry
from repro.runtime import RealParallelEngine, RuntimeConfig
from repro.verify import VerifyConfig

DETERMINISTIC = RuntimeConfig(n_workers=2, inflight_wait_bias=1e9)

#: The tainted boundary (0-based): deep inside the run of hits.
TAINTED = 40


def tainted(entry):
    """``entry`` with one written byte wrong: a bad write-set value."""
    end_values = np.array(entry.end_values, dtype=np.uint8)
    end_values[-1] ^= 0x5A
    return CacheEntry(entry.rip, entry.start_indices, entry.start_values,
                      entry.end_indices, end_values, entry.length,
                      occurrences=entry.occurrences, halted=entry.halted)


@pytest.fixture(scope="module")
def preload(collatz_walk):
    entries = list(collatz_walk.entries)
    entries[TAINTED] = tainted(entries[TAINTED])
    return entries


def run(collatz_walk, entries, verify=None):
    return RealParallelEngine(
        collatz_walk.workload.program, config=collatz_walk.workload.config,
        runtime_config=DETERMINISTIC, recognized=collatz_walk.recognized,
        initial_cache=collatz_walk.cache(entries), verify=verify).run()


def test_unverified_tainted_splice_diverges(collatz_walk, preload):
    result = run(collatz_walk, preload)
    assert result.stats.hits > TAINTED
    assert result.final_state != collatz_walk.final_state


@pytest.mark.parametrize("verify", [VerifyConfig(rate=1.0),
                                    VerifyConfig(strict=True)],
                         ids=["shadow", "strict"])
def test_audit_refutes_quarantines_and_rolls_back(collatz_walk, preload,
                                                  verify):
    result = run(collatz_walk, preload, verify=verify)
    assert result.halted
    assert result.final_state == collatz_walk.final_state
    audit = result.audit
    assert audit["divergent"] >= 1
    assert audit["rollbacks"] >= 1
    assert audit["groups_quarantined"] >= 1
    assert any("end-state" in incident["mismatches"]
               for incident in audit["incidents"])
    # Every splice before the tainted one was a hit, so the refuted
    # splice's snapshot was taken on the hit path.
    assert result.stats.hits > TAINTED
    assert (result.stats.instructions_executed
            + result.stats.instructions_fast_forwarded
            == result.total_instructions)
