"""The three benchmark workloads and the metrics computed from them.

Every workload returns a :class:`Outcome`: the operations attempted and
failed, the end-to-end metrics of an untraced run, or the per-layer
metrics of a traced run. ``README.md`` beside this file says why each
workload exists and which layer metric should move which end-to-end
metric.
"""

import base64
import contextlib
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time

from repro.bench import build_collatz, build_ising
from repro.core.config import EngineConfig
from repro.core.recognizer import Recognizer
from repro.runtime import RealParallelEngine, RuntimeConfig
from repro.runtime.pool import WorkerPool
from repro.serve import ServeClient, ServeConfig, SpeculationDaemon

import fixture
from spans import LEDGER, Tracer

COLLATZ_COUNT = 4000
COLD_SCALE = 8
WARM_SCALE = 1
#: Set-ups measured per run at least; ``setup_s`` is their median.
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 7
#: ASC runs per collatz run at least (one takes ~5 s). A cold run's
#: wall varies more from run to run, so cold-collatz makes more.
COLD_MIN_OPS = 4
WARM_MIN_OPS = 2
#: serve-mix runs rounds of ROUND_JOBS jobs (two cycles of the four
#: images), at least MIN_ROUNDS of them. A job takes 1.4 to 2.4 s; with
#: two rounds the speed-up spread over 0.2 between seeds.
ROUND_JOBS = 8
MIN_ROUNDS = 3
SERVE_CLIENTS = 2
MAX_INSTRUCTIONS = 500_000_000
#: Reported in place of an infinite latency (a failed job).
FAILED_LATENCY_S = 1e9

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "speedup_vs_seq": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Absolute throughput and latency. On a shared 2-vCPU host the same
#: sequential run took from 3.1 to 5.9 s within minutes, more than any
#: regression bound a benchmark may hold, so these are reported by the
#: traced run (from its untraced operations) without a bound.
TIMING = {
    "guest_mips": "Minstr/s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p75_s": "s",
}

_SERVE_LAYER = ("serve.submit_s", "serve.queue_wait_s", "serve.job_run_s",
                "serve.result_s", "serve.poll_rounds")

#: Per-layer metrics: name -> unit.
PER_LAYER = dict(
    [(name + "_s", "s") for name in LEDGER]
    + [("machine.instructions", "count"), ("machine.mips", "Minstr/s"),
       ("boundaries", "count"),
       ("cache.queries", "count"), ("cache.hits", "count"),
       ("cache.hit_frac", "ratio"), ("cache.ff_instructions", "count"),
       ("pool.inflight_wait_s", "s"), ("pool.tasks_dispatched", "count"),
       ("pool.entries_shipped", "count"), ("pool.entries_used", "count"),
       ("pool.useful_frac", "ratio"), ("wire.pipe_bytes", "bytes"),
       ("wire.shm_bytes", "bytes"), ("worker.instructions", "count"),
       ("worker.task_p50_s", "s")]
    + [(name, "count" if name.endswith("rounds") else "s")
       for name in _SERVE_LAYER]
    + [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
       ("failed_frac", "ratio")]
    + list(TIMING.items()))


class Outcome:
    def __init__(self, attempted, failed, metrics):
        self.attempted = attempted
        self.failed = failed
        self.metrics = metrics


class ConservationError(Exception):
    """The traced ledger or counts disagree with the program."""


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sequential(program):
    """Plain sequential wall and final state bytes."""
    machine = program.make_machine()
    start = time.perf_counter()
    machine.run(max_instructions=MAX_INSTRUCTIONS)
    wall = time.perf_counter() - start
    if not machine.halted:
        raise RuntimeError("%s did not halt" % program.name)
    return wall, bytes(machine.state.buf)


def _root(tracer):
    return tracer.root() if tracer is not None else contextlib.nullcontext()


# -- collatz workloads --------------------------------------------------------

class _CollatzRun:
    """One collatz workload: ``cold`` has no preload, ``warm`` the
    fixture."""

    def __init__(self, scale, preload=None, boundaries=None):
        self.preload = preload
        self.boundaries = boundaries
        self.runtime_config = RuntimeConfig(n_workers=1,
                                            superstep_scale=scale)

    def setup(self, tracer=None):
        """Compile, recognize and spawn the pool; returns its wall too."""
        with _root(tracer):
            start = time.perf_counter()
            workload = build_collatz(count=COLLATZ_COUNT)
            recognized = Recognizer(workload.config).find(workload.program)
            pool = WorkerPool(workload.program, self.runtime_config)
            wall = time.perf_counter() - start
        return wall, workload, recognized, pool

    def op(self, expected, tracer=None):
        """One ASC run from a fresh set-up, checked against the
        sequential final state ``expected``."""
        setup_s, workload, recognized, pool = self.setup(tracer)
        try:
            engine = RealParallelEngine(
                workload.program, config=workload.config,
                runtime_config=self.runtime_config, recognized=recognized,
                pool=pool, initial_cache=self.preload)
            with _root(tracer):
                start = time.perf_counter()
                result = engine.run()
                wall = time.perf_counter() - start
        finally:
            pool.shutdown()
        if self.boundaries is not None and not (
                result.stats.queries == result.stats.hits
                == self.boundaries):
            raise fixture.FixtureError(
                "warm run hit %d of %d queries over %d boundaries"
                % (result.stats.hits, result.stats.queries,
                   self.boundaries))
        return {
            "setup": setup_s, "wall": wall,
            "instructions": result.total_instructions,
            "ok": result.halted and result.final_state == expected,
        }


def _collatz_metrics(ops, seq_walls, setups):
    measured = [op for op in ops if "wall" in op]
    walls = [op["wall"] if op["ok"] else math.inf for op in ops]
    busy = sum(op["wall"] for op in measured)
    return {
        "speedup_vs_seq": statistics.mean(seq_walls)
        / (busy / len(measured)),
        "guest_mips": sum(op["instructions"] for op in measured)
        / busy / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": sum(1 for op in ops if op["ok"]) / len(ops),
        "jobs_per_s": sum(1 for op in ops if op["ok"]) / busy,
        "job_p50_s": min(statistics.median(walls), FAILED_LATENCY_S),
        "job_p75_s": min(percentile(walls, 0.75), FAILED_LATENCY_S),
    }


def _collatz(runner, seconds, trace, min_ops):
    """A plain sequential run, then pairs of ASC runs each followed by
    another sequential run, until the next pair would end after
    ``seconds``. The sequential runs sit symmetrically around the ASC
    runs, so the speed-up, mean sequential wall over mean ASC wall,
    cancels steady host drift. A traced run traces the second ASC run of
    each pair, so it measures the trace overhead."""
    program = build_collatz(count=COLLATZ_COUNT).program
    start = time.perf_counter()
    seq_wall, expected = sequential(program)
    seq_walls = [seq_wall]
    ops, traced_ops, setups = [], [], []
    tracer = Tracer() if trace else None
    while True:
        pair_start = time.perf_counter()
        for traced in (False, trace):
            if traced:
                tracer.install()
            try:
                op = runner.op(expected, tracer if traced else None)
                setups.append(op["setup"])
            except fixture.FixtureError:
                raise
            except Exception as exc:  # counted as failed, never skipped
                op = {"ok": False,
                      "error": "%s: %s" % (type(exc).__name__, exc)}
            finally:
                if traced:
                    tracer.uninstall()
            (traced_ops if traced else ops).append(op)
        seq_wall, state = sequential(program)
        if state != expected:
            raise RuntimeError("two sequential runs of %s disagree"
                               % program.name)
        seq_walls.append(seq_wall)
        now = time.perf_counter()
        if len(ops) + len(traced_ops) >= min_ops \
                and now + (now - pair_start) - start > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        wall, __, __, pool = runner.setup()
        pool.shutdown()
        setups.append(wall)
    every = ops + traced_ops
    failed = sum(1 for op in every if not op["ok"])
    traced_measured = [op for op in traced_ops if "wall" in op]
    if not any("wall" in op for op in ops) \
            or (trace and not traced_measured):
        raise RuntimeError("no operation completed: %s"
                           % [op.get("error") for op in every])
    metrics = _collatz_metrics(ops, seq_walls, setups)
    if trace:
        # Each pair's traced and untraced runs sit side by side.
        overhead = (statistics.mean(op["wall"] for op in traced_measured)
                    / statistics.mean(op["wall"] for op in ops
                                      if "wall" in op) - 1.0)
        metrics.update(layer_metrics(tracer, len(traced_measured),
                                     overhead))
    return Outcome(len(every), failed, metrics)


def cold_collatz(seed, seconds, trace, state_dir, src_dir):
    return _collatz(_CollatzRun(COLD_SCALE), seconds, trace, COLD_MIN_OPS)


def warm_collatz(seed, seconds, trace, state_dir, src_dir):
    preload, boundaries = fixture.load(
        build_collatz(count=COLLATZ_COUNT), state_dir, src_dir)
    return _collatz(_CollatzRun(WARM_SCALE, preload, boundaries), seconds,
                    trace, WARM_MIN_OPS)


# -- serve-mix ----------------------------------------------------------------

def _engine_overrides(config):
    defaults = EngineConfig().__dict__
    return {key: (list(value) if isinstance(value, tuple) else value)
            for key, value in config.__dict__.items()
            if defaults.get(key) != value}


class _CountingClient(ServeClient):
    """A client that counts its ``poll`` round trips."""

    polls = 0

    def poll(self, job_id=None, token=None):
        self.polls += 1
        return super().poll(job_id, token=token)


def _serve_images(seed):
    rng = random.Random(seed)
    images = [build_collatz(count=200), build_collatz(count=400),
              build_ising(nodes=128, spins=6, seed=rng.randrange(1 << 31)),
              build_ising(nodes=192, spins=6, seed=rng.randrange(1 << 31))]
    return rng, images


def _job_order(rng):
    """Endless job list: one seeded permutation of the four images,
    repeated. The seed sets the order; the mix, and the image change
    between every two jobs, stay the same."""
    cycle = list(range(4))
    rng.shuffle(cycle)
    while True:
        yield from cycle


def _start_daemon(work_dir):
    """Start a daemon with fresh state and wait until it answers a
    ``ping``."""
    run_dir = tempfile.mkdtemp(prefix="d", dir=work_dir)
    config = ServeConfig(
        socket_path=os.path.join(os.path.relpath(run_dir), "s.sock"),
        cache_dir=os.path.join(run_dir, "cache"),
        worker_budget=1, workers_per_job=1)
    daemon = SpeculationDaemon(config).start()
    try:
        with ServeClient(config.socket_path, client="setup") as client:
            client.ping()
    except BaseException:
        daemon.close()
        raise
    return daemon


def _serve_setup(seed, work_dir):
    """Compile the four images and start a daemon; returns the wall. The
    daemon start alone (~3 ms of thread hand-offs and an fsync) moved by
    half between two sets of runs on a busy host."""
    start = time.perf_counter()
    _serve_images(seed)
    daemon = _start_daemon(work_dir)
    wall = time.perf_counter() - start
    daemon.close()
    return wall


def _serve_round(clients, images, jobs, expected):
    """A closed loop of ``clients``, one thread each, over ``jobs`` (image
    indexes); returns the job records and the round's makespan."""
    lock = threading.Lock()
    pending = list(reversed(jobs))
    records = []
    overrides = [_engine_overrides(w.config) for w in images]

    def client_loop(client):
        while True:
            with lock:
                if not pending:
                    return
                image = pending.pop()
            records.append(_one_job(client, images[image], image,
                                    overrides[image], expected))

    threads = [threading.Thread(target=client_loop, args=(client,))
               for client in clients]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def _one_job(client, workload, image, overrides, expected):
    record = {"image": image, "ok": False}
    begin = time.perf_counter()
    try:
        submitted = client.submit(workload.program, engine=overrides)
        record["submit"] = time.perf_counter() - begin
        client.polls = 0
        job = client.wait(submitted["job_id"])
        record["polls"] = client.polls
        if job["state"] != "done":
            return record
        payload = client.result(submitted["job_id"])
        state = base64.b64decode(payload["final_state"])
        received = time.time()
        record["latency"] = time.perf_counter() - begin
        record.update(
            ok=state == expected[image] and bool(payload["halted"]),
            instructions=payload["total_instructions"],
            queue_wait=job["started_at"] - job["submitted_at"],
            job_run=job["finished_at"] - job["started_at"],
            result=received - job["finished_at"])
    except Exception as exc:  # a failed job is counted, never skipped
        record["error"] = "%s: %s" % (type(exc).__name__, exc)
    return record


def _sequential_walls(images, expected, walls):
    """Append one plain sequential wall per image to ``walls``, each run
    checked against ``expected``."""
    for workload, state, image_walls in zip(images, expected, walls):
        wall, final = sequential(workload.program)
        if final != state:
            raise RuntimeError("two sequential runs of %s disagree"
                               % workload.program.name)
        image_walls.append(wall)


def _serve_rounds(images, order, expected, work_dir, seconds, min_rounds):
    """One fresh daemon serving rounds of ROUND_JOBS jobs until the next
    round would end after ``seconds``. Every image also runs
    sequentially before the first round and after every round. Returns
    the rounds, each image's median sequential wall and the peak RSS
    after ``min_rounds`` rounds. The job count past those depends on the
    host's speed, and the daemon's memory grows with it."""
    start = time.perf_counter()
    daemon = _start_daemon(work_dir)
    clients = [_CountingClient(daemon.config.socket_path, client="c%d" % i)
               for i in range(SERVE_CLIENTS)]
    rounds = []
    seq_walls = [[] for __ in images]
    try:
        _sequential_walls(images, expected, seq_walls)
        while True:
            round_start = time.perf_counter()
            jobs = [next(order) for __ in range(ROUND_JOBS)]
            rounds.append(_serve_round(clients, images, jobs, expected))
            _sequential_walls(images, expected, seq_walls)
            if len(rounds) == min_rounds:
                rss = peak_rss_mb()
            now = time.perf_counter()
            if len(rounds) >= min_rounds \
                    and now + (now - round_start) - start > seconds:
                break
    finally:
        for client in clients:
            client.close()
        daemon.close()
    return rounds, [statistics.median(w) for w in seq_walls], rss


def serve_mix(seed, seconds, trace, state_dir, src_dir):
    rng, images = _serve_images(seed)
    expected = [sequential(workload.program)[1] for workload in images]
    os.makedirs(state_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="serve-", dir=state_dir)
    try:
        if not trace:
            setups = [_serve_setup(seed, work_dir)
                      for __ in range(SERVE_SETUP_REPEATS)]
            rounds, seq_walls, rss = _serve_rounds(
                images, _job_order(rng), expected, work_dir, seconds,
                MIN_ROUNDS)
            metrics = _serve_metrics(rounds, seq_walls, rss)
            metrics["setup_s"] = statistics.median(setups)
            records = [r for rnd in rounds for r in rnd[0]]
            return Outcome(len(records),
                           sum(1 for r in records if not r["ok"]),
                           metrics)
        # The same job list twice, on two fresh daemons: untraced, then
        # traced.
        order_state = rng.getstate()
        plain = _serve_rounds(images, _job_order(rng), expected, work_dir,
                              seconds / 2.0, 1)
        rng.setstate(order_state)
        tracer = Tracer().install()
        try:
            traced = _serve_rounds(images, _job_order(rng), expected,
                                   work_dir, seconds / 2.0, 1)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = _serve_metrics(*plain)
    overhead = (metrics["speedup_vs_seq"]
                / _serve_metrics(*traced)["speedup_vs_seq"] - 1.0)
    traced_records = [r for rnd in traced[0] for r in rnd[0]]
    metrics.update(layer_metrics(tracer, len(traced_records), overhead))
    done = [r for r in traced_records if r["ok"]]
    for key in ("submit", "queue_wait", "job_run", "result"):
        metrics["serve.%s_s" % key] = (
            sum(r[key] for r in done) / len(done) if done else 0.0)
    metrics["serve.poll_rounds"] = (
        sum(r["polls"] for r in done) / len(done) if done else 0.0)
    every = [r for rnd in plain[0] for r in rnd[0]] + traced_records
    return Outcome(len(every), sum(1 for r in every if not r["ok"]),
                   metrics)


def _serve_metrics(rounds, seq_walls, rss):
    """``rounds`` are (job records, makespan) pairs; ``seq_walls`` holds
    each image's sequential wall."""
    records = [r for rnd in rounds for r in rnd[0]]
    ok = [r for r in records if r["ok"]]
    busy = sum(makespan for __, makespan in rounds)
    latencies = [r["latency"] if r["ok"] else math.inf for r in records]
    return {
        "speedup_vs_seq": sum(seq_walls[r["image"]] for r in records)
        / busy,
        "guest_mips": sum(r["instructions"] for r in ok) / busy / 1e6,
        "peak_rss_mb": rss,
        "ok_frac": len(ok) / len(records),
        "jobs_per_s": len(ok) / busy,
        "job_p50_s": min(statistics.median(latencies), FAILED_LATENCY_S),
        "job_p75_s": min(percentile(latencies, 0.75), FAILED_LATENCY_S),
    }


# -- the per-layer ledger -----------------------------------------------------

def layer_metrics(tracer, n_ops, overhead):
    """Per-operation means of the traced ledger and counts, after the
    conservation checks."""
    ledger, counts = tracer.ledger()
    if tracer.violations:
        raise ConservationError("; ".join(tracer.violations))
    spent = sum(ledger.values())
    if abs(spent - tracer.root_seconds) > 1e-6 * max(1, tracer.roots) \
            or min(ledger.values()) < -1e-9:
        raise ConservationError(
            "layer self times sum to %.6fs but the roots took %.6fs"
            % (spent, tracer.root_seconds))
    runs = tracer.runs

    def total(key):
        return sum(run[key] for run in runs)

    metrics = {name + "_s": ledger[name] / n_ops for name in LEDGER}
    durations = [d for run in runs for d in run["task_durations"]]
    instructions = counts["machine.instructions"]
    shipped, queries = total("entries_shipped"), total("queries")
    metrics.update({
        "machine.instructions": instructions / n_ops,
        "machine.mips": (instructions / ledger["machine.run"] / 1e6
                         if ledger["machine.run"] else 0.0),
        "boundaries": total("boundaries") / n_ops,
        "cache.queries": queries / n_ops,
        "cache.hits": total("hits") / n_ops,
        "cache.hit_frac": total("hits") / queries if queries else 0.0,
        "cache.ff_instructions": total("ff_instructions") / n_ops,
        "pool.inflight_wait_s": total("inflight_wait_s") / n_ops,
        "pool.tasks_dispatched": total("tasks_dispatched") / n_ops,
        "pool.entries_shipped": shipped / n_ops,
        "pool.entries_used": total("entries_used") / n_ops,
        "pool.useful_frac": (total("entries_used") / shipped
                             if shipped else 0.0),
        "wire.pipe_bytes": total("pipe_bytes") / n_ops,
        "wire.shm_bytes": total("shm_bytes") / n_ops,
        "worker.instructions": total("worker_instructions") / n_ops,
        "worker.task_p50_s": (statistics.median(durations)
                              if durations else 0.0),
        "trace.wall_s": tracer.root_seconds / n_ops,
        "trace.overhead_frac": overhead,
    })
    for name in _SERVE_LAYER:
        metrics[name] = 0.0
    return metrics


WORKLOADS = {
    "cold-collatz": cold_collatz,
    "warm-collatz": warm_collatz,
    "serve-mix": serve_mix,
}
