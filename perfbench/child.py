"""One cold round of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py MODE < request.json

MODE is ``setup`` (import and parse, then stop), ``run`` (the timed
round) or ``trace`` (the round with per-layer tracing).  The request
names the workload and carries the inputs of each of its parts
(inputs.WORKLOADS), which run in turn; ``self_test`` false skips the
oracle self-test.  The last line of standard output is one JSON
object:

- ``ready``: CLOCK_MONOTONIC when import and parsing were done;
- ``work_s``, ``peak_rss_mb``: the workload's wall time and the peak
  resident memory of this process, both taken before any oracle runs;
- ``op_s``: the wall time of each operation, in the order run, and
  ``reference_s`` the times of the reference computation sampled
  between operations (workloads.reference);
- ``attempted`` and ``failed`` operations, ``errors`` of the failed ones;
- ``problems`` the oracles found, ``self_test_misses`` (corrupted values
  an oracle accepted);
- ``metrics``, ``spans`` and ``missing`` entry points in trace mode.

foresthopf must come from the ``src`` directory the parent puts on
PYTHONPATH; every memo in it starts empty, as for one CLI call.
"""

import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    mode = sys.argv[1]
    request = json.load(sys.stdin)
    import foresthopf
    src = os.path.realpath(request["src"])
    if not os.path.realpath(foresthopf.__file__).startswith(src + os.sep):
        sys.exit(f"foresthopf imported from {foresthopf.__file__}, "
                 f"not from {src}")
    import inputs
    import workloads
    workload, given = request["workload"], request["inputs"]
    parts = [(part, *workloads.PARTS[part])
             for part in inputs.WORKLOADS[workload]]
    parsed = {part: setup(given[part]) for part, setup, _, _ in parts}
    ready = _now()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    # No reference samples in a traced round: their Fraction calls would
    # enter the per-layer counts.
    ops = workloads.Ops(sample_reference=tracer is None)
    start = time.perf_counter()
    results = {part: run(parsed[part], ops) for part, _, run, _ in parts}
    work_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    import oracles
    out = {part: export(parsed[part], results[part])
           for part, _, _, export in parts}
    problems, misses = [], []
    for part, _, _, _ in parts:
        problems += oracles.check(part, given[part], out[part])
        if request.get("self_test", True):
            misses += [f"{part} {name}" for name in
                       oracles.self_test(part, given[part], out[part])]
    reply = {
        "ready": ready,
        "work_s": work_s,
        "op_s": ops.times,
        "reference_s": ops.reference_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "problems": problems[:10],
        "self_test_misses": misses,
    }
    if tracer is not None:
        reply["metrics"] = tracer.metrics()
        reply["spans"] = tracer.top_edges()
        reply["missing"] = tracer.missing()
    print(json.dumps(reply))


if __name__ == "__main__":
    main()
