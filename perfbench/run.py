"""Cold-process benchmark of foresthopf's exact checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round is one fresh interpreter (perfbench/child.py) that imports
foresthopf from ./src, parses the workload's inputs with the library's
parsers, runs the workload once with every memo empty, and then checks
the outputs with the benchmark's own oracles.  Rounds run one at a
time.  With ``--trace 0`` the run repeats whole rounds for about S
seconds and reports the end-to-end metrics: the median set-up time
and peak memory, and as ``work_ref`` the sum over the operations of
each one's least time in any round, in units of a reference
computation timed in the same rounds; with
``--trace 1`` it runs one traced round and reports the per-layer
metrics.  The last line of standard output is the JSON result; any
harness error exits non-zero without one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
LIMIT_S = 170           # the whole run must end within this
SETUP_SAMPLES = 15      # set-up times per run, from rounds and probes


class HarnessError(Exception):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(mode, request, deadline):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spawned = _now()
    proc = subprocess.Popen([sys.executable, CHILD, mode],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, err = proc.communicate(json.dumps(request),
                                    timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{mode} round did not finish in time") from None
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"{mode} round exited with {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    reply = json.loads(out.strip().splitlines()[-1])
    reply["setup_s"] = reply["ready"] - spawned
    return reply


def _correct(rounds):
    ok = True
    for r in rounds:
        for line in r["problems"]:
            print(f"oracle: {line}", file=sys.stderr)
        for name in r["self_test_misses"]:
            print(f"oracle self-test: corrupted {name} was accepted",
                  file=sys.stderr)
        for line in r["errors"]:
            print(f"failed operation: {line}", file=sys.stderr)
        ok = ok and not r["problems"] and not r["self_test_misses"]
    return ok


def _named(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(workload, seed, seconds, traced):
    if not os.path.isfile(os.path.join(SRC, "foresthopf", "__init__.py")):
        raise HarnessError(f"no foresthopf sources under {SRC}")
    deadline = _now() + LIMIT_S
    request = {"workload": workload, "src": SRC,
               "inputs": inputs.make_inputs(workload, seed)}
    _child("setup", request, deadline)      # fills the bytecode cache

    if traced:
        r = _child("trace", request, deadline)
        print(f"traced round: work {r['work_s']:.4f} s; heaviest spans:")
        for line in r["spans"]:
            print(line)
        for name in r["missing"]:
            print(f"warning: {name} not found in the library",
                  file=sys.stderr)
        return {"correct": _correct([r]), "attempted": r["attempted"],
                "failed": r["failed"], "metrics": _named(r["metrics"])}

    rounds = []
    begin = _now()
    while True:
        started = _now()
        # The oracle self-test runs on the first round: every round
        # computes the same outputs, and it would lengthen every round.
        rounds.append(_child("run", dict(request, self_test=not rounds),
                             deadline))
        rounds[-1]["round_s"] = _now() - started
        r = rounds[-1]
        print(f"round {len(rounds)}: setup {r['setup_s']:.4f} s, "
              f"work {r['work_s']:.4f} s, peak {r['peak_rss_mb']:.1f} MB, "
              f"{r['attempted']} attempted, {r['failed']} failed")
        typical = statistics.median(x["round_s"] for x in rounds)
        if _now() - begin + typical > seconds:
            break
    if len({len(r["op_s"]) for r in rounds}) != 1:
        raise HarnessError("rounds ran different numbers of operations")
    # Every round runs the same operations in the same order from the
    # same empty memos, so each operation's least time over the rounds
    # is its time with the least interference from the rest of the host.
    work_s = sum(min(times) for times in zip(*(r["op_s"] for r in rounds)))
    # The host's speed also drifts in phases longer than a run, which
    # the least times follow.  The reference computation, sampled
    # between operations, follows them too; its fast end (5th
    # percentile) is the run's unit of time.
    samples = [t for r in rounds for t in r["reference_s"]]
    if len(samples) < 20:
        raise HarnessError("too few reference samples; run longer")
    unit_s = statistics.quantiles(samples, n=20)[0]
    print(f"work {work_s:.4f} s in least operation times; reference "
          f"{unit_s * 1e6:.1f} us ({len(samples)} samples)")
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child("setup", request, deadline)["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_ref": (work_s / unit_s, "ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    return {"correct": _correct(rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": _named(metrics)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
