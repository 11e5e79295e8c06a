"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` with the thread-pinning environment already set;
not meant to be run by hand. Phases:

- ``warmup``: import everything (pays the ``.pyc`` compile and a cold
  page cache) and exit;
- ``setup``: set up between two host-speed probes, print ``READY <json>``
  with the probes, exit;
- ``measure``: set up as ``setup`` does, then run repetitions until
  ``--seconds`` have passed and print ``RESULT <json>``;
- ``trace``: set up under the tracer, time untraced then traced
  repetitions, print ``RESULT <json>`` with the per-layer metrics and
  write the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import host
from workloads import WORKLOADS, Rep

#: a run measures at least this many repetitions, however long they take
MIN_REPS = 3
#: traced (and untraced reference) repetitions in a traced run
TRACE_REPS = 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rep(workload, index: int):
    """Run one repetition: ``(host seconds, raw result)``, or a failed Rep if it raised."""
    start = time.perf_counter()
    try:
        result = workload.repetition(index)
    except Exception as exc:  # a crashed repetition fails the run, not the process
        return time.perf_counter() - start, Rep(0, 1, 0, {}, [f"repetition {index} raised {exc!r}"])
    return time.perf_counter() - start, result


def summarize(workload, result) -> Rep:
    return result if isinstance(result, Rep) else workload.summarize(result)


def run_reps(workload, count: int | None, seconds: float = 0.0):
    """Time repetitions between host-speed probes.

    Runs ``count`` repetitions, or as many as fit in ``seconds`` (at least
    :data:`MIN_REPS`). Returns ``(host seconds, reference seconds, Rep)``
    per repetition; a repetition whose simulated statistics differ from
    the first one's fails.
    """
    raw_s, ref_s, reps = [], [], []
    begin = time.perf_counter()
    before = host.probe()
    while True:
        index = len(reps)
        elapsed, result = timed_rep(workload, index)
        after = host.probe()
        rep = summarize(workload, result)
        if reps and rep.stats != reps[0].stats:
            rep.errors.append(f"simulated statistics {rep.stats} differ from {reps[0].stats}")
        raw_s.append(elapsed)
        ref_s.append(host.to_reference(elapsed, before, after))
        reps.append(rep)
        workload.cleanup(index)
        before = after
        if count is not None:
            if len(reps) >= count:
                break
        elif len(reps) >= MIN_REPS and time.perf_counter() - begin >= seconds:
            break
    return raw_s, ref_s, reps


def score(reps: list, errors: list) -> dict:
    """Units attempted and failed, and every failed check, over some repetitions.

    A repetition that failed a check fails all of its units.
    """
    errors = list(errors)
    for index, rep in enumerate(reps):
        errors += [f"rep {index}: {error}" for error in rep.errors]
    units = sum(rep.units for rep in reps)
    failed = sum(rep.units if rep.errors else rep.failed_units for rep in reps)
    return {"units": units, "failed": failed, "errors": errors, "stats": reps[0].stats}


def measure(workload, seconds: float) -> dict:
    """Repeat for ``seconds``; the median repetition sets ``outcomes_per_s``."""
    raw_s, ref_s, reps = run_reps(workload, None, seconds)
    result = score(reps, workload.final_checks())
    result.update(
        outcomes_per_s=statistics.median(rep.outcomes / t for rep, t in zip(reps, ref_s)),
        host_outcomes_per_s=statistics.median(rep.outcomes / t for rep, t in zip(reps, raw_s)),
        reps=len(reps), rep_s=raw_s, peak_rss_mb=peak_rss_mb())
    return result


def trace(workload, spans: str) -> dict:
    """Set up under the tracer, then untraced and traced repetitions.

    The traced window holds the repetitions alone: host probes, checks
    and clean-up happen outside it.
    """
    from tracing import Tracer, layer_metrics, window

    setup_tracer = Tracer()
    with window(setup_tracer):
        workload.setup()
    _, untraced_s, _ = run_reps(workload, TRACE_REPS)
    tracer = Tracer()
    marks, traced_s, results = [], [], []
    before = host.probe()
    with window(tracer):
        for index in range(TRACE_REPS):
            marks.append((len(tracer.start), dict(tracer.counts)))
            elapsed, result = timed_rep(workload, index)
            traced_s.append(elapsed)
            results.append(result)
    after = host.probe()
    reps = [summarize(workload, result) for result in results]
    for index in range(TRACE_REPS):
        workload.cleanup(index)
    result = score(reps, workload.final_checks())
    metrics = layer_metrics(tracer, TRACE_REPS)
    metrics["setup.self_s"] = setup_tracer.by_layer().get("setup", (0, 0))[1] / 1e9
    metrics["setup.in_run_s"] = tracer.by_layer().get("setup", (0, 0))[1] / 1e9 / TRACE_REPS
    metrics["run.trace_overhead"] = (
        host.to_reference(sum(traced_s), before, after) / sum(untraced_s) - 1.0)
    # tallies, every entry point's call count and every named count repeat exactly
    per_rep = _per_rep_counts(tracer, marks)
    if any(counts != per_rep[0] for counts in per_rep):
        result["errors"].append("traced repetitions differ in their span or named counts")
    if any(rep.stats != reps[0].stats for rep in reps):
        result["errors"].append("traced repetitions differ in their simulated statistics")
    result["errors"] += workload.pinned_counts(metrics)
    if result["errors"]:
        result["failed"] = result["units"]
    tracer.save(spans)
    result.update(metrics=metrics, reps=len(reps), rep_s=traced_s)
    return result


def _per_rep_counts(tracer, marks: list) -> list:
    """Span counts per entry point, and named counts, of each traced rep."""
    import numpy as np

    name = tracer.arrays()[0]
    marks = marks + [(len(name), dict(tracer.counts))]
    return [
        (np.bincount(name[lo:hi], minlength=len(tracer.names)).tolist(),
         {key: value - before.get(key, 0) for key, value in after.items()})
        for (lo, before), (hi, after) in zip(marks, marks[1:])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--phase", required=True,
                        choices=("warmup", "setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    if args.phase == "warmup":
        from tracing import Tracer, install

        install(Tracer())()  # imports every traced module, then unwraps
        return 0
    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    if args.phase == "trace":
        result = trace(workload, args.spans)
    else:
        # host-speed probes around the set-up, on the core that runs it;
        # run.py takes their own time back out of the set-up time
        start = time.perf_counter()
        before = host.probe()
        probe_s = time.perf_counter() - start
        workload.setup()
        start = time.perf_counter()
        after = host.probe()
        probe_s += time.perf_counter() - start
        print("READY " + json.dumps({"before": before, "after": after, "probe_s": probe_s}),
              flush=True)
        if args.phase == "setup":
            return 0
        result = measure(workload, args.seconds)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
