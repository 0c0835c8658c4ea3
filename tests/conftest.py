"""Shared fixtures: small compiled programs used across test modules,
plus per-test isolation (REPRO_* env, /dev/shm hygiene) and a seeded
test-order shuffle for the CI isolation leg."""

import os
import random

import pytest

from repro.asm import assemble
from repro.bench import build_collatz
from repro.core.recognizer import Recognizer
from repro.core.speculation import run_speculation
from repro.core.trajectory_cache import TrajectoryCache
from repro.minic import compile_source
from repro.runtime import shm

#: The REPRO_* environment as it stood when the suite started. CI legs
#: legitimately export knobs (REPRO_FAST_PATH, REPRO_TRANSPORT); tests
#: are restored to *this* baseline, not to an empty environment.
REPRO_ENV_BASELINE = {key: value for key, value in os.environ.items()
                      if key.startswith("REPRO_")}


def pytest_addoption(parser):
    parser.addoption(
        "--repro-shuffle", type=int, default=None, metavar="SEED",
        help="run tests in a seeded random order (catches order-"
             "dependent state leaks; the CI isolation leg sets this)")


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--repro-shuffle")
    if seed is not None:
        random.Random(seed).shuffle(items)


@pytest.fixture(autouse=True)
def _repro_isolation():
    """Per-test isolation: restore the REPRO_* env to the session
    baseline and fail any test that leaks a /dev/shm segment.

    Env restoration is silent (it *is* the isolation — a polluting test
    still fails its own assertions if it relied on the leak); segment
    leaks fail loudly because they are resource bugs, not state bugs,
    and the sweep here keeps one bad test from failing every later one.
    """
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in REPRO_ENV_BASELINE:
            del os.environ[key]
    os.environ.update(REPRO_ENV_BASELINE)
    leaked = shm.live_segment_names()
    if leaked:
        shm.sweep_created_segments()
        pytest.fail("test leaked /dev/shm segments: %s" % ", ".join(leaked))


@pytest.fixture(scope="session")
def counting_program():
    """Tight counted loop: eax ends at 10, result stored to memory."""
    return assemble("""
        .entry start
        start:
            mov eax, 0
        loop:
            inc eax
            cmp eax, 10
            jl loop
            store [result], eax
            hlt
        .data
        result: .word 0
    """, name="counting")


@pytest.fixture(scope="session")
def sum_to_n_source():
    return """
    int result;
    int main() {
        int i;
        int total = 0;
        for (i = 1; i <= 100; i++) {
            total += i;
        }
        result = total;
        return total;
    }
    """


@pytest.fixture(scope="session")
def sum_program(sum_to_n_source):
    return compile_source(sum_to_n_source, name="sum100")


def run_minic(source, max_instructions=2_000_000, globals_to_read=()):
    """Compile, run to halt, and return requested global values."""
    program = compile_source(source, name="t")
    machine = program.make_machine()
    machine.run(max_instructions=max_instructions)
    assert machine.halted, "program did not halt"
    values = {}
    for name in globals_to_read:
        values[name] = machine.state.read_i32(program.symbol("g_" + name))
    values["__return"] = machine.state.get_reg_signed(0)
    return values


class BoundaryWalk:
    """A sequential walk of collatz 300 at its recognized IP.

    ``states[k]`` is the machine state at the ``k+1``-th boundary and
    ``entries[k]`` the cache entry speculated from exactly that state,
    so a cache holding every entry makes every boundary of a
    ``superstep_scale=1`` run hit.
    """

    def __init__(self):
        self.workload = build_collatz(count=300)
        program = self.workload.program
        config = self.workload.config
        self.recognized = Recognizer(config).find(program)
        machine = program.make_machine()
        breaks = frozenset((self.recognized.ip,))
        self.states = []
        while True:
            machine.run(break_ips=breaks)
            if machine.halted:
                break
            self.states.append(bytes(machine.state.buf))
        self.final_state = bytes(machine.state.buf)
        context = program.make_context()
        budget = self.recognized.speculation_budget(
            config.speculation_budget_factor)
        self.entries = []
        for state in self.states:
            entry = run_speculation(context, state, self.recognized.ip,
                                    self.recognized.stride, budget).entry
            assert entry is not None
            self.entries.append(entry)

    def cache(self, entries=None):
        cache = TrajectoryCache()
        for entry in self.entries if entries is None else entries:
            cache.insert(entry)
        return cache


@pytest.fixture(scope="session")
def collatz_walk():
    """Boundary states and exact entries of collatz 300 (built once)."""
    return BoundaryWalk()
