"""Parameter scans reproducing Tables I, II, III and VI.

Every scan is the same experiment: sweep the ``[-49, 49] × [-49, 49]``
(width, offset) grid — 9,801 attempts — once per *unit key* (a glitched
clock cycle, a long-glitch cycle range, or one Table VI attack-shape
element) and tally how each attempt ends. A :class:`ScanShape` declares
what differs between the four kinds, and :func:`run_scan` runs any of them.

The serial path of a guard scan shares one
:class:`~repro.hw.glitcher.ClockGlitcher` across all rows, so the
glitcher's baseline replay (see ``docs/ARCHITECTURE.md``) kicks in
automatically: the pre-glitch boot up to the trigger cycle is simulated
once per firmware image and every subsequent simulated attempt rewinds to
that snapshot. On the multiprocessing path each worker builds its own
glitcher and gets its own baseline. Tallies are identical with replay on
or off (``benchmarks/test_bench_table1.py`` runs the differential).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Optional

from repro.exec import (
    FailedUnit,
    ParallelExecutor,
    ProgressReporter,
    open_campaign_checkpoint,
)
from repro.hw.clock import GlitchParams, width_offset_grid
from repro.hw.faults import FaultModel
from repro.hw.glitcher import ClockGlitcher
from repro.hw.models import model_fingerprint, resolve_fault_model
from repro.isa.disassembler import disassemble_one
from repro.obs import Observer, coerce_observer


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------

def _total(name: str) -> property:
    """A scan property: one row field summed over all rows."""
    return property(lambda scan: sum(getattr(row, name) for row in scan.rows))


def _rate(name: str) -> property:
    """A scan property: one row field's total over all attempts (0 without any)."""
    return property(
        lambda scan: sum(getattr(row, name) for row in scan.rows) / (scan.total_attempts or 1)
    )


@dataclass
class CycleRow:
    """One Table I row: a single glitched clock cycle."""

    cycle: int
    instruction: str = "-"
    attempts: int = 0
    successes: int = 0
    resets: int = 0
    register_values: Counter = field(default_factory=Counter)


@dataclass
class MultiCycleRow:
    """One Table II row: partial vs full double-glitch successes."""

    cycle: int
    attempts: int = 0
    partial: int = 0
    full: int = 0


@dataclass
class LongRangeRow:
    """One Table III row: a contiguous glitch over cycles 0..last."""

    last_cycle: int
    attempts: int = 0
    successes: int = 0


@dataclass
class _GuardScan:
    """The rows of one guard scan, in key order, and its quarantined units."""

    guard: str
    rows: list
    failed_units: list[FailedUnit] = field(default_factory=list)

    total_attempts = _total("attempts")


@dataclass
class SingleGlitchScan(_GuardScan):
    """Table I: single glitches across the loop's clock cycles (``CycleRow``)."""

    total_successes = _total("successes")
    success_rate = _rate("successes")

    @property
    def unique_register_values(self) -> int:
        return len(set().union(*(row.register_values for row in self.rows)))


@dataclass
class MultiGlitchScan(_GuardScan):
    """Table II: two identical back-to-back glitches (``MultiCycleRow``)."""

    total_partial = _total("partial")
    total_full = _total("full")
    partial_rate = _rate("partial")
    full_rate = _rate("full")


@dataclass
class LongGlitchScan(_GuardScan):
    """Table III: long glitches over two subsequent loops (``LongRangeRow``)."""

    total_successes = _total("successes")
    success_rate = _rate("successes")


@dataclass
class DefenseScanResult:
    """Successes and detections for one attack against one defended build."""

    scenario: str = ""
    defense: str = ""
    attack: str = ""
    attempts: int = 0
    successes: int = 0
    detections: int = 0
    resets: int = 0
    no_effect: int = 0
    failed_units: list[FailedUnit] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    @property
    def detection_rate(self) -> float:
        """Paper's definition: detections / (detections + successes)."""
        denominator = self.detections + self.successes
        return self.detections / denominator if denominator else 0.0


#: Table VI attack shapes: (ext_offsets, repeat per attempt)
ATTACK_SHAPES = {
    # single glitch, clock cycle varied 0-10 → 11 × 9,801 = 107,811 attempts
    "single": tuple((ext, 1) for ext in range(0, 11)),
    # long glitch, 10-100 cycles in increments of 10 → 10 × 9,801 = 98,010
    "long": tuple((0, repeat) for repeat in range(10, 101, 10)),
    # windowed long glitch: fixed 10 cycles, start varied 0-100 by 10 → 107,811
    "windowed": tuple((start, 10) for start in range(0, 101, 10)),
}


def map_cycles_to_instructions(glitcher: ClockGlitcher, n_cycles: int) -> dict[int, str]:
    """Observe which instruction *executes* at each post-trigger clock cycle.

    This regenerates Table I's cycle → instruction column directly from the
    pipeline rather than assuming it.
    """
    board = glitcher.board
    board.reset()
    pipeline = board.pipeline
    windows: list[int] = []
    board.trigger_callback = lambda value: windows.append(pipeline.cycles + 1)
    mapping: dict[int, str] = {}

    def trace(cycle: int, address: int, raw: tuple[int, ...]) -> None:
        if not windows:
            return
        rel = cycle - windows[0]
        if 0 <= rel < n_cycles and rel not in mapping:
            mapping[rel] = disassemble_one(raw[0], raw[1] if len(raw) == 2 else None)

    pipeline.trace_hook = trace
    budget = 10_000
    while pipeline.cycles < budget:
        if windows and pipeline.cycles - windows[0] >= n_cycles:
            break
        pipeline.step_cycle()
    board.persist_nonvolatile()
    # Pipeline-refill bubbles after a taken branch belong to the branch
    # (Table I lists BEQ spanning cycles 5-7).
    previous = "-"
    for rel in range(n_cycles):
        previous = mapping.setdefault(rel, previous)
    return mapping


# ----------------------------------------------------------------------
# scan shapes and the one scan skeleton
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScanShape:
    """What one kind of grid scan fires and how it tallies each attempt.

    ``variant`` is the guard-firmware variant a guard-name target is built
    as; ``None`` means the target is a ready firmware image. Guard firmware
    never touches nonvolatile state, so its rows share one board on the
    serial path; an image's units each get a freshly power-cycled board,
    which keeps tallies independent of execution order even when the seed
    page evolves across attempts (the random-delay defense).
    """

    kind: str
    variant: Optional[str]
    triggers: int
    #: (unit key, width, offset) → the glitch one attempt fires
    params: Callable[[Any, int, int], GlitchParams]
    #: row dataclass, and the field that stores the unit key (if any)
    row: type
    key_field: Optional[str]
    #: attempt category → the row field counting it
    tally: dict[str, str]
    #: ``outcome.*`` counter label of a category, where it is not the category
    labels: dict[str, str] = field(default_factory=dict)
    #: guard → comparator register whose value every success records
    register_of: Optional[Callable[[str], int]] = None


def _comparator_register(guard: str) -> int:
    from repro.firmware.loops import guard_descriptor

    return guard_descriptor(guard).comparator_register


#: scan kind → shape, for Tables I, II, III and VI
SCAN_SHAPES: dict[str, ScanShape] = {shape.kind: shape for shape in (
    ScanShape("single", "single", 1, GlitchParams, CycleRow, "cycle",
              {"success": "successes", "reset": "resets"},
              register_of=_comparator_register),
    ScanShape("multi", "double", 2, GlitchParams, MultiCycleRow, "cycle",
              {"success": "full", "partial": "partial"}, labels={"success": "full"}),
    ScanShape("long", "contiguous", 1,
              lambda last, width, offset: GlitchParams(0, width, offset, last + 1),
              LongRangeRow, "last_cycle", {"success": "successes"}),
    ScanShape("defense", None, 1,
              lambda key, width, offset: GlitchParams(key[0], width, offset, key[1]),
              DefenseScanResult, None,
              {"success": "successes", "detected": "detections", "reset": "resets",
               "no_effect": "no_effect"}),
)}


@dataclass(frozen=True)
class _ScanUnit:
    """Picklable work unit: one unit key swept over the whole grid.

    A worker builds its own board from ``firmware``; a fresh board per
    guard-scan row produces exactly the rows the shared serial-path board
    does, so the multiprocessing path stays bit-identical.
    """

    kind: str
    firmware: Any = field(repr=False)  # AssembledProgram — pickles cleanly
    key: Any
    stride: int
    fault_model: Optional[FaultModel]
    detect: Optional[str]
    register: Optional[int]


def _scan_unit(unit: _ScanUnit):
    glitcher = ClockGlitcher(
        unit.firmware, fault_model=unit.fault_model, detect_symbol=unit.detect,
        expected_triggers=SCAN_SHAPES[unit.kind].triggers,
    )
    return _scan_row(unit, glitcher)


def _scan_row(unit: _ScanUnit, glitcher: ClockGlitcher):
    shape = SCAN_SHAPES[unit.kind]
    params, key, register, tally = shape.params, unit.key, unit.register, shape.tally
    counts = dict.fromkeys(tally.values(), 0)
    values: Counter = Counter()
    grid = width_offset_grid(unit.stride)
    for width, offset in grid:
        result = glitcher.run_attempt(params(key, width, offset))
        name = tally.get(result.category)
        if name is not None:
            counts[name] += 1
            if register is not None and result.category == "success":
                values[result.registers[register] & 0xFFFFFFFF] += 1
    row = {"attempts": len(grid), **counts}
    if shape.key_field is not None:
        row[shape.key_field] = key
    if register is not None:
        row["register_values"] = values
    return shape.row(**row)


# checkpoint codec: a row's int and Counter fields — its key and tallies —
# as one JSON object (a Counter as [value, count] pairs, which keep integer
# keys and insertion order); str fields are labels the scan fills in itself

def _encode_row(row) -> dict:
    payload = {}
    for entry in fields(row):
        value = getattr(row, entry.name)
        if isinstance(value, Counter):
            payload[entry.name] = list(value.items())
        elif isinstance(value, int):
            payload[entry.name] = value
    return payload


def _decode_row(row_type: type, payload: dict):
    return row_type(**{
        entry.name: Counter(dict(payload[entry.name]))
        if entry.default_factory is Counter else payload[entry.name]
        for entry in fields(row_type) if entry.name in payload
    })


def run_scan(
    kind: str,
    target,
    keys: Iterable,
    labels: dict[str, str],
    fault_model=None,
    stride: int = 1,
    glitcher: Optional[ClockGlitcher] = None,
    detect_symbol: Optional[str] = None,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> tuple[list, list[FailedUnit], Optional[ClockGlitcher]]:
    """Sweep the (width, offset) grid once per unit key of one scan shape.

    ``kind`` names a :data:`SCAN_SHAPES` entry; ``target`` is a guard name,
    or a firmware image for ``defense``. ``labels`` name the scan in its
    trace span, ``scan`` event and checkpoint; the first value is the
    span's bracketed name. Returns the completed rows in key order, the
    quarantined units, and the glitcher shared by the serial path (``None``
    for image targets).

    ``fault_model`` accepts a :class:`FaultModel` instance or a registered
    model name; ``profile`` a named calibration from
    :data:`repro.hw.models.PROFILES`. A pre-built ``glitcher`` carries its
    own fault model, so combining it with ``fault_model``/``profile`` (or
    with ``workers > 1`` — a live board cannot be shipped to worker
    processes) raises ``ValueError``.

    ``checkpoint_dir``/``resume`` persist completed rows by unit key, so an
    interrupted scan restarts only its missing keys. The checkpoint is keyed
    by the labels, keys, stride, a digest of the firmware and the fault
    model's :func:`~repro.hw.models.model_fingerprint`. ``retries``/
    ``unit_timeout`` retry a failing row before quarantining it.
    """
    shape = SCAN_SHAPES[kind]
    if glitcher is not None and (fault_model is not None or profile is not None):
        raise ValueError(
            "pass either a pre-built glitcher or a fault_model/profile, not "
            "both: the glitcher was already constructed with its own fault "
            "model, so the fault_model argument would be silently ignored"
        )
    fault_model = resolve_fault_model(fault_model, profile)
    width_offset_grid(stride)  # reject a bad stride before building anything
    keys = list(keys)
    obs = coerce_observer(obs)
    executor = ParallelExecutor(
        workers=workers, chunk_size=chunk_size, progress=progress,
        retries=retries, unit_timeout=unit_timeout, on_error="quarantine",
        obs=obs,
    )
    if glitcher is not None:
        if executor.parallel:
            raise ValueError(
                "a pre-built glitcher cannot be used with workers > 1; "
                "pass fault_model and let each worker build its own board"
            )
        firmware, fault_model = glitcher.firmware, glitcher.fault_model
    elif shape.variant is None:
        firmware = target
    else:
        from repro.firmware.loops import build_guard_firmware

        firmware = build_guard_firmware(target, shape.variant)
        glitcher = ClockGlitcher(
            firmware, fault_model=fault_model, expected_triggers=shape.triggers
        )
    detect = detect_symbol if detect_symbol and detect_symbol in firmware.symbols else None
    register = shape.register_of(target) if shape.register_of is not None else None
    name = next(iter(labels.values()))
    checkpoint = None
    if checkpoint_dir is not None or resume:
        meta = {
            "campaign": f"scan-{kind}",
            **labels,
            "keys": keys,
            "stride": stride,
            "detect": detect,
            "firmware": hashlib.sha1(
                firmware.base.to_bytes(4, "little") + bytes(firmware.code)
            ).hexdigest(),
            "fault_model": model_fingerprint(fault_model),
        }
        checkpoint = open_campaign_checkpoint(
            checkpoint_dir, f"scan-{kind}-{name}", meta, resume=resume
        )
    try:
        with obs.trace(f"scan.{kind}[{name}]", **labels, stride=stride, units=len(keys)):
            rows = executor.map(
                _scan_unit,
                [_ScanUnit(kind, firmware, key, stride, fault_model, detect, register)
                 for key in keys],
                serial_fn=None if glitcher is None else (lambda unit: _scan_row(unit, glitcher)),
                attempts_of=lambda row: row.attempts,
                categories_of=lambda row: {
                    shape.labels.get(category, category): getattr(row, field_name)
                    for category, field_name in shape.tally.items()
                },
                checkpoint=checkpoint,
                key_of=lambda unit: str(unit.key),
                encode=_encode_row,
                decode=lambda payload: _decode_row(shape.row, payload),
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    rows = [row for row in rows if row is not None]
    if obs.enabled:
        obs.event("scan", kind=kind, **labels, attempts=sum(row.attempts for row in rows),
                  **{field_name: sum(getattr(row, field_name) for row in rows)
                     for field_name in shape.tally.values()})
    return rows, list(executor.failed_units), glitcher


# ----------------------------------------------------------------------
# the four scans
# ----------------------------------------------------------------------

def run_single_glitch_scan(
    guard: str,
    cycles: Iterable[int] = range(8),
    fault_model=None,
    stride: int = 1,
    glitcher: Optional[ClockGlitcher] = None,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> SingleGlitchScan:
    """Table I: scan every (width, offset) for each glitched clock cycle.

    Every success records the guard's comparator register, and each row's
    instruction is read off the pipeline. See :func:`run_scan` for the
    model, glitcher, worker and checkpoint options.
    """
    cycles = list(cycles)
    rows, failed_units, glitcher = run_scan(
        "single", guard, cycles, {"guard": guard}, fault_model=fault_model,
        stride=stride, glitcher=glitcher, workers=workers, progress=progress,
        checkpoint_dir=checkpoint_dir, resume=resume, retries=retries,
        unit_timeout=unit_timeout, obs=obs, chunk_size=chunk_size, profile=profile,
    )
    instructions = map_cycles_to_instructions(glitcher, max(cycles, default=0) + 1)
    for row in rows:
        row.instruction = instructions.get(row.cycle, "-")
    return SingleGlitchScan(guard=guard, rows=rows, failed_units=failed_units)


def run_multi_glitch_scan(
    guard: str,
    cycles: Iterable[int] = range(8),
    fault_model=None,
    stride: int = 1,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> MultiGlitchScan:
    """Table II: the same glitch fired after each of two triggers."""
    rows, failed_units, _ = run_scan(
        "multi", guard, cycles, {"guard": guard}, fault_model=fault_model,
        stride=stride, workers=workers, progress=progress,
        checkpoint_dir=checkpoint_dir, resume=resume, retries=retries,
        unit_timeout=unit_timeout, obs=obs, chunk_size=chunk_size, profile=profile,
    )
    return MultiGlitchScan(guard=guard, rows=rows, failed_units=failed_units)


def run_long_glitch_scan(
    guard: str,
    last_cycles: Iterable[int] = range(10, 21),
    fault_model=None,
    stride: int = 1,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> LongGlitchScan:
    """Table III: one glitch spanning cycles 0..last over two adjacent loops."""
    rows, failed_units, _ = run_scan(
        "long", guard, last_cycles, {"guard": guard}, fault_model=fault_model,
        stride=stride, workers=workers, progress=progress,
        checkpoint_dir=checkpoint_dir, resume=resume, retries=retries,
        unit_timeout=unit_timeout, obs=obs, chunk_size=chunk_size, profile=profile,
    )
    return LongGlitchScan(guard=guard, rows=rows, failed_units=failed_units)


def run_defense_scan(
    image,
    attack: str,
    scenario: str = "",
    defense: str = "",
    fault_model=None,
    stride: int = 1,
    detect_symbol: Optional[str] = "gr_detected",
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> DefenseScanResult:
    """Attack a (possibly defended) firmware image with one Table VI attack.

    Each attack-shape element (one ``(ext_offset, repeat)`` pair, i.e. one
    9,801-point grid) runs against a freshly power-cycled board, so shape
    elements are independent of execution order and the scan tallies are
    identical for any ``workers`` count — including against firmware whose
    nonvolatile seed page evolves across attempts (the random-delay
    defense). Within a shape element the board's seed page still persists
    attempt-to-attempt, exactly like a real bench session.
    """
    try:
        keys = ATTACK_SHAPES[attack]
    except KeyError:
        raise ValueError(f"unknown attack {attack!r}; expected one of {sorted(ATTACK_SHAPES)}")
    rows, failed_units, _ = run_scan(
        "defense", image, keys, {"attack": attack, "scenario": scenario, "defense": defense},
        fault_model=fault_model, stride=stride, detect_symbol=detect_symbol,
        workers=workers, progress=progress, checkpoint_dir=checkpoint_dir,
        resume=resume, retries=retries, unit_timeout=unit_timeout, obs=obs,
        chunk_size=chunk_size, profile=profile,
    )
    result = DefenseScanResult(scenario, defense, attack, failed_units=failed_units)
    for row in rows:
        for name in ("attempts", *SCAN_SHAPES["defense"].tally.values()):
            setattr(result, name, getattr(result, name) + getattr(row, name))
    return result


__all__ = [
    "CycleRow",
    "SingleGlitchScan",
    "MultiCycleRow",
    "MultiGlitchScan",
    "LongRangeRow",
    "LongGlitchScan",
    "DefenseScanResult",
    "ATTACK_SHAPES",
    "ScanShape",
    "SCAN_SHAPES",
    "run_scan",
    "run_single_glitch_scan",
    "run_multi_glitch_scan",
    "run_long_glitch_scan",
    "run_defense_scan",
    "map_cycles_to_instructions",
]
