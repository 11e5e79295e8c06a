"""In-memory span tracing around the program's layer entry points.

The benchmark does not change program code to trace it: :func:`install`
replaces each layer's public entry points (module functions, class
methods) with wrappers that record one span per call, and puts the
originals back when the traced window closes.

A span is ``(name, parent, start_ns, end_ns)``; its name is
``"<layer>:<entry point>"`` and its parent is the span that was open
when it started (``-1`` for a root). Spans stay in flat arrays while the
window is open and are written out once, by :meth:`Tracer.save`.

A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans. Whatever the
window's wall time holds outside every root span is ``unattributed``.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: executor units run on behalf of the module that submitted them
UNIT_LAYERS = {
    "repro.glitchsim.campaign": "glitchsim.campaign",
    "repro.campaign.image_campaign": "campaign",
    "repro.hw.scan": "hw.scan",
}


class Tracer:
    """Span store for one traced window, plus named counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.window = (0, 0)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result)`` updates counts."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """One span around a block (for wrappers that need state around the call)."""
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter_ns()
            self.stack.pop()

    # ------------------------------------------------------------------

    def arrays(self):
        """``(name, parent, start, end)`` as int64 NumPy arrays."""
        return tuple(np.frombuffer(col, dtype=np.int32 if col.typecode == "i" else np.int64)
                     .astype(np.int64) for col in (self.name, self.parent, self.start, self.end))

    def self_ns(self) -> np.ndarray:
        """Per-span self time in ns: duration minus the children's durations."""
        _, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return duration - child

    def by_name(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, self ns, inclusive ns)."""
        name, _, start, end = self.arrays()
        own = self.self_ns()
        out = {}
        for nid, label in enumerate(self.names):
            pick = name == nid
            if pick.any():
                out[label] = (int(pick.sum()), int(own[pick].sum()),
                              int((end[pick] - start[pick]).sum()))
        return out

    def by_layer(self) -> dict[str, tuple[int, int]]:
        """Layer -> (calls, self ns), folding every entry point of the layer."""
        out: dict[str, list[int]] = {}
        for label, (calls, own, _) in self.by_name().items():
            entry = out.setdefault(label.split(":")[0], [0, 0])
            entry[0] += calls
            entry[1] += own
        return {layer: (calls, own) for layer, (calls, own) in out.items()}

    def save(self, path: str) -> None:
        """Write every span (name table, parent, start, end) and the window."""
        name, parent, start, end = self.arrays()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start_ns=start, end_ns=end, window_ns=np.array(self.window))


@contextmanager
def window(tracer: Tracer):
    """Install the layer wrappers for the duration of one traced window."""
    restore = install(tracer)
    begin = time.perf_counter_ns()
    try:
        yield tracer
    finally:
        tracer.window = (begin, time.perf_counter_ns())
        restore()


def install(tracer: Tracer):
    """Wrap every layer entry point; returns the function that unwraps them."""
    import repro.campaign.image_campaign as image_campaign
    import repro.campaign.sites as sites
    import repro.emu.vector as vector
    import repro.exec.cache as cache
    import repro.exec.executor as executor
    import repro.firmware.guards as guards
    import repro.firmware.image as image
    import repro.firmware.loops as loops
    import repro.glitchsim.campaign as glitch_campaign
    import repro.glitchsim.harness as harness
    import repro.glitchsim.maskalgebra as maskalgebra
    import repro.hw.faults as faults
    import repro.hw.glitcher as glitcher
    import repro.hw.mcu as mcu
    import repro.hw.pipeline as pipeline
    import repro.hw.scan as scan

    originals = []
    counts = tracer.counts

    def patch(owner, attr, replacement):
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(owner, attr, name, after=None):
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], after))

    # --- emulation track -------------------------------------------------
    def lanes(result):
        counts["emu.vector.lanes"] += int(result.words.size)

    wrap(vector.VectorEngine, "run", "emu.vector:run", lanes)
    for module in (maskalgebra, glitch_campaign, image_campaign):
        wrap(module, "reachable_words", "glitchsim.maskalgebra:reachable_words")
        wrap(module, "tally_from_word_codes", "glitchsim.maskalgebra:tally_from_word_codes")

    run_many_codes = harness.WordHarness.run_many_codes

    def traced_run_many_codes(self, words):
        with tracer.span("glitchsim.harness:run_many_codes"):
            before = self.words_executed
            result = run_many_codes(self, words)
            counts["glitchsim.harness.words_requested"] += len(words)
            counts["glitchsim.harness.words_emulated"] += self.words_executed - before
            return result

    patch(harness.WordHarness, "run_many_codes", traced_run_many_codes)

    def found(result):
        counts["campaign.sites"] += len(result)

    wrap(image_campaign, "sweep_site", "campaign:sweep_site")
    for module in (sites, image_campaign):
        wrap(module, "discover_sites", "campaign:discover_sites", found)
    wrap(image_campaign, "SiteHarness", "campaign:SiteHarness")
    wrap(image, "load_image", "firmware.image:load_image")

    # --- outcome cache ---------------------------------------------------
    wrap(cache.OutcomeCache, "get_shard_codes", "exec.cache.read:get_shard_codes")
    wrap(cache.OutcomeCache, "put_shard_codes", "exec.cache.write:put_shard_codes")
    flush = cache.OutcomeCache.flush

    def traced_flush(self):
        with tracer.span("exec.cache.write:flush"):
            dirty = sorted(self._dirty)
            flush(self)
            counts["exec.cache.shards_written"] += len(dirty)
            counts["exec.cache.bytes_written"] += sum(
                os.path.getsize(self._shard_path(*key)) for key in dirty)

    patch(cache.OutcomeCache, "flush", traced_flush)

    # --- executor: map time minus the units it runs -----------------------
    executor_map = executor.ParallelExecutor.map

    def traced_map(self, fn, specs, serial_fn=None, **kwargs):
        layer = UNIT_LAYERS.get(fn.__module__, "exec.unit")
        unit = tracer.wrap(f"{layer}:unit", serial_fn if serial_fn is not None else fn)
        with tracer.span("exec.executor:map"):
            return executor_map(self, fn, specs, serial_fn=unit, **kwargs)

    patch(executor.ParallelExecutor, "map", traced_map)

    # --- hardware track --------------------------------------------------
    for attr in ("run_single_glitch_scan", "run_multi_glitch_scan", "run_defense_scan"):
        wrap(scan, attr, f"hw.scan:{attr}")

    def simulated(result):
        counts["hw.glitcher.simulated"] += result.simulated

    wrap(glitcher.ClockGlitcher, "run_attempt", "hw.glitcher:run_attempt", simulated)
    wrap(faults.FaultModel, "occurrence_decision", "hw.faults:occurrence_decision")
    wrap(faults.FaultModel, "effect_at", "hw.faults:effect_at")
    wrap(pipeline.PipelinedCPU, "step_cycle", "hw.pipeline:step_cycle")
    wrap(pipeline, "decode", "isa.decoder:decode")
    wrap(mcu.Board, "reset", "hw.mcu:reset")

    # --- set-up entry points ----------------------------------------------
    wrap(vector, "warm_tables", "setup:warm_tables")
    wrap(loops, "build_guard_firmware", "setup:build_guard_firmware")
    wrap(guards, "build_defended_guard", "setup:build_defended_guard")

    def restore():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    """The per-layer metrics of a window of ``reps`` repetitions, per repetition.

    Times and counts are divided by ``reps``; shares and per-cycle times
    are ratios and stay as they are. See README.md for each metric.
    """
    layers = tracer.by_layer()
    names = tracer.by_name()
    counts = tracer.counts

    def calls(layer):
        return layers.get(layer, (0, 0))[0] / reps

    def self_s(layer):
        return layers.get(layer, (0, 0))[1] / 1e9 / reps

    def share(part, whole):
        return part / whole if whole else 0.0

    counts = {key: value / reps for key, value in counts.items()}
    requested = counts.get("glitchsim.harness.words_requested", 0)
    emulated = counts.get("glitchsim.harness.words_emulated", 0)
    simulated = counts.get("hw.glitcher.simulated", 0)
    attempts = names.get("hw.glitcher:run_attempt", (0, 0, 0))[0] / reps
    cycles, _, cycle_ns = names.get("hw.pipeline:step_cycle", (0, 0, 0))
    metrics = {
        "emu.vector.self_s": self_s("emu.vector"),
        "emu.vector.calls": calls("emu.vector"),
        "emu.vector.lanes": counts.get("emu.vector.lanes", 0),
        "glitchsim.maskalgebra.self_s": self_s("glitchsim.maskalgebra"),
        "glitchsim.maskalgebra.calls": calls("glitchsim.maskalgebra"),
        "glitchsim.harness.self_s": self_s("glitchsim.harness"),
        "glitchsim.harness.words_requested": requested,
        "glitchsim.harness.words_emulated": emulated,
        "glitchsim.harness.emulated_share": share(emulated, requested),
        "glitchsim.campaign.self_s": self_s("glitchsim.campaign"),
        "campaign.self_s": self_s("campaign"),
        "campaign.sites": counts.get("campaign.sites", 0),
        "firmware.image.self_s": self_s("firmware.image"),
        "exec.cache.read_s": self_s("exec.cache.read"),
        "exec.cache.write_s": self_s("exec.cache.write"),
        "exec.cache.shards_read": calls("exec.cache.read"),
        "exec.cache.shards_written": counts.get("exec.cache.shards_written", 0),
        "exec.cache.bytes_written": counts.get("exec.cache.bytes_written", 0),
        "exec.executor.self_s": self_s("exec.executor"),
        "exec.executor.units": sum(n for label, (n, _, _) in names.items()
                                   if label.endswith(":unit")) / reps,
        "hw.scan.self_s": self_s("hw.scan"),
        "hw.glitcher.self_s": self_s("hw.glitcher"),
        "hw.glitcher.attempts": attempts,
        "hw.glitcher.simulated": simulated,
        "hw.glitcher.simulated_share": share(simulated, attempts),
        "hw.faults.self_s": self_s("hw.faults"),
        "hw.faults.calls": calls("hw.faults"),
        "hw.pipeline.self_s": self_s("hw.pipeline"),
        "hw.pipeline.cycles": cycles / reps,
        "hw.pipeline.host_ns_per_cycle": share(cycle_ns, cycles),
        "isa.decoder.self_s": self_s("isa.decoder"),
        "isa.decoder.calls": calls("isa.decoder"),
        "hw.mcu.self_s": self_s("hw.mcu"),
        "hw.mcu.full_boots": calls("hw.mcu"),
    }
    begin, end = tracer.window
    attributed = sum(own for _, own in layers.values())
    metrics["run.wall_s"] = (end - begin) / 1e9 / reps
    metrics["run.unattributed_s"] = (end - begin - attributed) / 1e9 / reps
    return metrics
