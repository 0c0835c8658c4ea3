"""The ``warm-collatz`` fixture: a complete, deterministic cache.

The cache holds one entry per boundary of a sequential walk of the
program at ``superstep_scale=1``, each built with
:func:`repro.core.speculation.run_speculation` from the exact boundary
state. Building it takes longer than a measured run, so it is built once
per checkout, in a forked child (its memory never shows in the parent's
peak RSS), and stored under ``.bench_build/perfbench/`` keyed by a digest
of the program sources. A changed ``src/`` therefore always rebuilds it.

Both the build and every load check that the cache covers every
boundary; a partial cache would silently turn the workload into a
different one, so a failed check aborts the benchmark.
"""

import hashlib
import json
import multiprocessing
import os

from repro.core.cache_io import load_cache, save_cache
from repro.core.recognizer import Recognizer
from repro.core.speculation import run_speculation
from repro.core.trajectory_cache import TrajectoryCache

#: Bumped when the fixture's construction changes.
FORMAT = 1


class FixtureError(Exception):
    """The fixture does not cover every boundary."""


def source_digest(src_dir):
    """SHA-256 over every ``.py`` file under ``src_dir``, path-sorted."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _boundary_states(workload, recognized):
    machine = workload.program.make_machine(
        fast_path=workload.config.fast_path)
    breaks = frozenset((recognized.ip,))
    states = []
    while True:
        machine.run(break_ips=breaks)
        if machine.halted:
            return states
        states.append(bytes(machine.state.buf))


def build(workload, path):
    """Build the fixture for ``workload`` and write it to ``path``."""
    recognized = Recognizer(workload.config).find(workload.program)
    context = workload.program.make_context(
        fast_path=workload.config.fast_path)
    budget = recognized.speculation_budget(
        workload.config.speculation_budget_factor)
    cache = TrajectoryCache()
    states = _boundary_states(workload, recognized)
    for state in states:
        result = run_speculation(context, state, recognized.ip,
                                 recognized.stride, budget)
        if result.entry is None:
            raise FixtureError("speculation from a boundary state failed: "
                               "%r" % (result,))
        cache.insert(result.entry)
    for state in states:
        if cache.lookup(recognized.ip, state) is None:
            raise FixtureError("a boundary state misses its own entry")
    tmp = path + ".tmp"
    save_cache(cache, tmp)
    os.replace(tmp, path)
    with open(path + ".json", "w") as handle:
        json.dump({"boundaries": len(states)}, handle)


def load(workload, cache_dir, src_dir):
    """The fixture cache and its boundary count, building it if absent."""
    key = hashlib.sha256(("%d:%s:%r" % (
        FORMAT, source_digest(src_dir), sorted(workload.params.items()))
    ).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, "warm-collatz-%s.cache" % key)
    if not os.path.exists(path + ".json"):
        os.makedirs(cache_dir, exist_ok=True)
        child = multiprocessing.get_context("fork").Process(
            target=build, args=(workload, path))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise FixtureError("fixture build failed (exit %s)"
                               % child.exitcode)
    with open(path + ".json") as handle:
        boundaries = json.load(handle)["boundaries"]
    cache = load_cache(path)
    if len(cache) != boundaries or cache.n_quarantined:
        raise FixtureError("fixture holds %d entries (%d corrupt) for %d "
                           "boundaries" % (len(cache), cache.n_quarantined,
                                           boundaries))
    return cache, boundaries
