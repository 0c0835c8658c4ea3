"""Run one benchmark workload and print its metrics.

Usage, from the root of a source tree::

    python3 perfbench/run.py --workload cold-collatz --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` runs untraced and reports the end-to-end metrics;
``--trace 1`` runs the span tracer and reports the per-layer ledger.
Every operation's final state is compared byte for byte with a plain
sequential run of the same program.

Standard output carries one human-readable line per metric, a ``host``
line (CPU count, affinity, Python, commit, load average, seed), and as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Working files go under ``.bench_build/``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(".bench_build", "perfbench")


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_facts(seed):
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
    }


def stop_resource_tracker():
    """Stop and reap the resource tracker process that shared memory
    starts, so that no process outlives the run."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)

    import workloads
    from fixture import source_digest

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    host = host_facts(args.seed)
    host["src_sha256"] = source_digest(SRC)
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), STATE_DIR, SRC)
    host["loadavg_after"] = os.getloadavg()
    stop_resource_tracker()
    outcome.metrics["failed_frac"] = outcome.failed / outcome.attempted

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    for name, unit in units.items():
        print("%-28s %14.6g %s" % (name, outcome.metrics[name], unit))
    print("check: %d of %d operations byte-identical to sequential"
          % (outcome.attempted - outcome.failed, outcome.attempted))
    print(json.dumps({"host": host, "workload": args.workload}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
