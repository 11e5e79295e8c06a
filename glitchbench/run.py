"""Benchmark entry point: four workloads of the glitching reproduction.

    python3 glitchbench/run.py --workload fig2_cold --seed 0 --seconds 15 --trace 0
    python3 glitchbench/run.py            # every workload in turn, untraced

Run from the repository root. Each workload runs in processes of its own
(see ``worker.py``), single-threaded, against generated inputs; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Diagnostics (host-speed calibration, set-up samples, repetition times)
go to standard error. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
#: fresh-interpreter set-ups per run (the median is ``setup_s``); fewer
#: where one set-up is a ten-second cold pass
SETUP_SAMPLES = {"fig2_cold": 5, "image_rerun": 3, "hw_long_glitch": 5, "hw_short_glitch": 5}
WORKLOADS = tuple(SETUP_SAMPLES)
#: a run must end within this many seconds of wall time
RUN_BUDGET_S = 170.0
OUT = Path(".bench_out")

END_TO_END_UNITS = {"outcomes_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "emu.vector.self_s": "s", "emu.vector.calls": "count", "emu.vector.lanes": "count",
    "glitchsim.maskalgebra.self_s": "s", "glitchsim.maskalgebra.calls": "count",
    "glitchsim.harness.self_s": "s", "glitchsim.harness.words_requested": "count",
    "glitchsim.harness.words_emulated": "count", "glitchsim.harness.emulated_share": "ratio",
    "glitchsim.campaign.self_s": "s",
    "campaign.self_s": "s", "campaign.sites": "count",
    "firmware.image.self_s": "s",
    "exec.cache.read_s": "s", "exec.cache.write_s": "s", "exec.cache.shards_read": "count",
    "exec.cache.shards_written": "count", "exec.cache.bytes_written": "B",
    "exec.executor.self_s": "s", "exec.executor.units": "count",
    "hw.scan.self_s": "s",
    "hw.glitcher.self_s": "s", "hw.glitcher.attempts": "count",
    "hw.glitcher.simulated": "count", "hw.glitcher.simulated_share": "ratio",
    "hw.faults.self_s": "s", "hw.faults.calls": "count",
    "hw.pipeline.self_s": "s", "hw.pipeline.cycles": "count",
    "hw.pipeline.host_ns_per_cycle": "ns",
    "isa.decoder.self_s": "s", "isa.decoder.calls": "count",
    "hw.mcu.self_s": "s", "hw.mcu.full_boots": "count",
    "setup.self_s": "s", "setup.in_run_s": "s",
    "run.wall_s": "s", "run.unattributed_s": "s", "run.trace_overhead": "ratio",
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env() -> dict:
    """Environment of every worker: the checkout's sources, one thread.

    Bytecode is written (the warm-up compiles it once for every later
    set-up), hash randomisation is off, and BLAS/OpenMP stay on one
    thread so NumPy cannot spread the tally matmul over the host's cores.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """One worker process in its own scratch directory under ``.bench_out``."""

    def __init__(self, args, phase: str, deadline: float, **extra):
        self.work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{phase}-",
                                          dir=OUT / "work"))
        env = child_env()
        env["REPRO_CACHE_DIR"] = str(self.work.resolve())
        command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                   "--phase", phase, "--seed", str(args.seed), "--work", str(self.work)]
        for key, value in extra.items():
            command += [f"--{key}", str(value)]
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, bufsize=0, env=env)
        self._pending = b""

    def readline(self) -> str:
        """The worker's next stdout line, or ``BenchError`` past the deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = self.deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(remaining, 0.0))
            if not ready:
                raise BenchError("worker exceeded the run's time budget")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"worker exited early with code {self.proc.wait()}")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line.decode()

    def expect(self, prefix: str) -> str:
        while True:
            line = self.readline()
            if line.startswith(prefix):
                return line[len(prefix):]
            print(line, file=sys.stderr)

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run's time budget") from None
        finally:
            self.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


def setup_sample(args, deadline: float, phase: str = "setup", **extra) -> tuple:
    """Start a worker; returns it and its fresh-interpreter set-up time.

    The time runs from process start to ``READY``, less the worker's own
    host-speed probes, as ``(host seconds, reference-host seconds)``.
    """
    worker = Worker(args, phase, deadline, **extra)
    try:
        probes = json.loads(worker.expect("READY "))
    except BaseException:
        worker.close()
        raise
    seconds = time.perf_counter() - worker.started - probes["probe_s"]
    return worker, (seconds, host.to_reference(seconds, probes["before"], probes["after"]))


def run_untraced(args, deadline: float) -> tuple[dict, dict]:
    warmup = Worker(args, "warmup", deadline)
    warmup.finish()
    samples = []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        worker, seconds = setup_sample(args, deadline)
        worker.finish()
        samples.append(seconds)
    worker, seconds = setup_sample(args, deadline, "measure", seconds=args.seconds)
    samples.append(seconds)
    try:
        result = json.loads(worker.expect("RESULT "))
    finally:
        worker.finish()
    metrics = {
        "outcomes_per_s": result["outcomes_per_s"],
        "setup_s": statistics.median(ref for _, ref in samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result, dict(metrics=metrics, setup_samples_s=samples,
                        host_outcomes_per_s=result["host_outcomes_per_s"],
                        host_setup_s=statistics.median(raw for raw, _ in samples),
                        units=END_TO_END_UNITS)


def run_traced(args, deadline: float) -> tuple[dict, dict]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    worker = Worker(args, "trace", deadline, spans=spans.resolve())
    try:
        result = json.loads(worker.expect("RESULT "))
    finally:
        worker.finish()
    return result, dict(metrics=result["metrics"], spans=str(spans), units=PER_LAYER_UNITS)


def run_workload(args) -> int:
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    before = host.probe(9)
    try:
        result, info = (run_traced if args.trace else run_untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    after = host.probe(9)
    units = info.pop("units")
    failed_share = result["failed"] / result["units"]
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calibration_s": [before, after], "host_drift": after / before - 1.0,
        "failed_share": failed_share, "reps": result["reps"], "rep_s": result["rep_s"],
        "stats": result["stats"], "errors": result["errors"],
        **{key: value for key, value in info.items() if key != "metrics"},
    }
    print("diagnostics " + json.dumps(diagnostics), file=sys.stderr)
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not result["errors"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["units"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in info["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in processes of its own; prints a table."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: no result (exit code {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"    {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
