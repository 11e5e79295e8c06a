"""The benchmark's four workloads: set-up, one repetition, output checks.

Every workload has the same shape. :meth:`Workload.setup` builds what a
user builds once (operand tables, firmware, a generated image and its
warm outcome cache). :meth:`Workload.repetition` is the timed unit of
work and returns the program's raw results; :meth:`Workload.summarize`
turns them, outside the timed region, into a :class:`Rep`: outcomes
counted from the returned tallies, executor units attempted and
quarantined, the simulated statistics that must repeat exactly, and the
output checks that failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: the seed the pinned digests in ``pins.json`` were taken at
DEFAULT_SEED = 0

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())


@dataclass
class Rep:
    """One repetition, as the benchmark scores it."""

    outcomes: int
    units: int
    failed_units: int
    #: simulated statistics: equal across repetitions of one run
    stats: dict
    errors: list = field(default_factory=list)


def digest(payload) -> str:
    """Stable digest of a JSON-able tally structure."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fault_seed(seed: int, *labels) -> int:
    """The ``FaultModel`` seed for one scan of the run seeded ``seed``."""
    text = repr((seed,) + tuple(labels)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "little")


def tallies(by_k: dict) -> dict:
    return {str(k): dict(sorted(counter.items())) for k, counter in sorted(by_k.items())}


class Workload:
    """One workload: ``work`` is its scratch directory, ``scale`` overrides
    :attr:`SCALE` (the tests run short configurations)."""

    name = ""
    #: the workload's size knobs; the benchmark runs the defaults
    SCALE: dict = {}
    #: whether the inputs, and so the pinned digests, depend on the seed
    SEEDED = True

    def __init__(self, work: Path, seed: int, scale: dict | None = None):
        self.work = work
        self.seed = seed
        self.scale = dict(self.SCALE, **(scale or {}))

    def setup(self) -> None:
        raise NotImplementedError

    def repetition(self, index: int):
        raise NotImplementedError

    def summarize(self, raw) -> Rep:
        raise NotImplementedError

    def cleanup(self, index: int) -> None:
        """Drop per-repetition state (outside the timed region)."""

    def final_checks(self) -> list:
        """Checks made once per run, after the measured phase."""
        return []

    def pinned(self, key: str, value: str) -> list:
        """Compare a tally digest against ``pins.json`` (default seed and scale)."""
        expected = self._pins().get(key)
        if expected is not None and value != expected:
            return [f"{key} digest {value} != pinned {expected}"]
        return []

    def pinned_counts(self, metrics: dict) -> list:
        """Compare traced simulation counts (per repetition) against ``pins.json``."""
        return [f"{name} {metrics[name]} != pinned {expected}"
                for name, expected in self._pins().get("traced", {}).items()
                if metrics[name] != expected]

    def _pins(self) -> dict:
        if (self.SEEDED and self.seed != DEFAULT_SEED) or self.scale != self.SCALE:
            return {}
        return PINS.get(self.name, {})


# ----------------------------------------------------------------------
# emulation track
# ----------------------------------------------------------------------

class Fig2Cold(Workload):
    """Full Figure 2 on the vector engine, each repetition on an empty cache."""

    name = "fig2_cold"
    SEEDED = False  # the input is fixed; the golden rates check it at every seed
    #: (panel, flip model, zero_is_invalid) in run_figure2's order
    PANELS = (("and", "and", False), ("or", "or", False),
              ("and-0invalid", "and", True), ("xor", "xor", False))
    GOLDEN = {"and": 0.42522321, "or": 0.12009975,
              "and-0invalid": 0.40345982, "xor": 0.41592407}

    def setup(self) -> None:
        from repro.emu import vector

        vector.warm_tables(root=self.work / "tables")

    def repetition(self, index: int):
        from repro.exec import OutcomeCache
        from repro.glitchsim import campaign

        cache = OutcomeCache(self.work / f"cache-{index}")
        # the arguments run_figure2 passes, one panel at a time, so each
        # panel's failed_units survive
        panels = {
            panel: campaign.run_branch_campaign(
                model, zero_is_invalid=zero_is_invalid, workers=1, cache=cache,
                engine="vector", tally="algebra")
            for panel, model, zero_is_invalid in self.PANELS
        }
        return panels, cache

    def summarize(self, raw) -> Rep:
        from repro.glitchsim import figure2
        from repro.glitchsim.results import summarize_mean_success

        panels, cache = raw
        errors = []
        for panel, result in panels.items():
            rate = summarize_mean_success(figure2(result))
            if abs(rate - self.GOLDEN[panel]) > 5e-9:
                errors.append(f"{panel} mean success {rate:.8f} != golden {self.GOLDEN[panel]}")
        tally = digest({panel: {s.mnemonic: tallies(s.by_k) for s in result.sweeps}
                        for panel, result in panels.items()})
        errors += self.pinned("tallies", tally)
        return Rep(
            outcomes=sum(sum(s.totals.values()) for r in panels.values() for s in r.sweeps),
            units=sum(len(r.sweeps) + len(r.failed_units) for r in panels.values()),
            failed_units=sum(len(r.failed_units) for r in panels.values()),
            # a fresh cache holds exactly the words this repetition emulated
            stats={"tallies": tally, "words_emulated": len(cache)},
            errors=errors,
        )

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self.work / f"cache-{index}", ignore_errors=True)


class ImageRerun(Workload):
    """Re-rank a generated image against the warm cache set-up populated.

    Set-up builds the operand tables, generates and writes the image,
    checks discovery against the generated sites, and populates the
    cache with a cold vector-engine pass.
    """

    name = "image_rerun"
    MODELS = ("and", "or", "xor")
    SCALE = {"sites": 100, "sampled": 3}

    def setup(self) -> None:
        from repro.campaign import discover_sites, run_image_campaign
        from repro.emu import vector
        from repro.exec import OutcomeCache
        from repro.firmware.image import load_image, write_image

        from imagegen import generate_image

        vector.warm_tables(root=self.work / "tables")
        image, expected = generate_image(self.seed, self.scale["sites"])
        self.path = str(self.work / "image.hex")
        write_image(image, self.path)
        image = load_image(self.path)
        sites = discover_sites(image)
        found = {(site.address, site.mnemonic, site.taken) for site in sites}
        if found != expected:
            raise RuntimeError(f"discovery found {len(found)} sites, generated {len(expected)}; "
                               f"{len(found ^ expected)} differ")
        self.cold = run_image_campaign(image, models=self.MODELS, sites=sites,
                                       cache=OutcomeCache(self.work / "cache"),
                                       engine="vector", workers=1)
        self.cold_digest = self._digest(self.cold)
        self.image = image

    @staticmethod
    def _digest(result) -> str:
        return digest({model: {s.site.site_id: tallies(s.by_k) for s in sweeps}
                       for model, sweeps in result.sweeps.items()})

    def repetition(self, index: int):
        from repro.campaign import image_campaign
        from repro.exec import OutcomeCache
        from repro.firmware import image

        cache = OutcomeCache(self.work / "cache")
        loaded = image.load_image(self.path)
        return image_campaign.run_image_campaign(
            loaded, models=self.MODELS, workers=1, cache=cache, engine="vector"), cache

    def summarize(self, raw) -> Rep:
        result, cache = raw
        tally = self._digest(result)
        errors = [] if tally == self.cold_digest else [
            f"re-rank tallies {tally} != cold pass {self.cold_digest}"]
        if cache.misses:
            errors.append(f"{cache.misses} words missed the warm cache")
        errors += self.pinned("tallies", tally)
        return Rep(
            outcomes=sum(sum(s.totals.values()) for sweeps in result.sweeps.values()
                         for s in sweeps),
            units=len(result.sites) * len(self.MODELS),
            failed_units=len(result.failed_units),
            stats={"tallies": tally, "sites": len(result.sites), "misses": cache.misses},
            errors=errors,
        )

    def final_checks(self) -> list:
        """The vector engine's cold pass equals the snapshot engine on sampled sites."""
        from repro.campaign import sweep_site

        ks = (0, 1, 2)
        rng = random.Random(self.seed)
        errors = []
        for site in rng.sample(self.cold.sites, self.scale["sampled"]):
            for model in self.MODELS:
                vector = self.cold.sweep_for(site.site_id, model).by_k
                snapshot = sweep_site(self.image, site, model, k_values=ks, engine="snapshot")
                if any(Counter(vector[k]) != snapshot.by_k[k] for k in ks):
                    errors.append(f"{site.site_id} {model}: vector != snapshot")
        return errors


# ----------------------------------------------------------------------
# hardware track
# ----------------------------------------------------------------------

SCENARIOS = ("while_not_a", "if_success")


def _defended(builds):
    from repro.firmware import guards
    from repro.resistor import ResistorConfig

    stacks = {"none": ResistorConfig.none, "all": ResistorConfig.all}
    return {(scenario, defense): guards.build_defended_guard(scenario, stacks[defense]()).image
            for scenario, defense in builds}


def _defense_row(scan) -> list:
    return [scan.attempts, scan.successes, scan.detections, scan.resets, scan.no_effect]


class HwLongGlitch(Workload):
    """Table VI ``long`` attack on the ``none`` and ``all`` builds of both scenarios."""

    name = "hw_long_glitch"
    SCALE = {"stride": 8}
    BUILDS = tuple((scenario, defense) for scenario in SCENARIOS for defense in ("none", "all"))

    def setup(self) -> None:
        self.images = _defended(self.BUILDS)

    def repetition(self, index: int):
        from repro.hw import scan
        from repro.hw.faults import FaultModel

        return {
            key: scan.run_defense_scan(
                image, "long", scenario=key[0], defense=key[1],
                stride=self.scale["stride"], workers=1,
                fault_model=FaultModel(seed=fault_seed(self.seed, "long", *key)))
            for key, image in self.images.items()
        }

    def summarize(self, raw) -> Rep:
        from repro.hw.scan import ATTACK_SHAPES

        tally = digest({"/".join(key): _defense_row(result) for key, result in raw.items()})
        return Rep(
            outcomes=sum(result.attempts for result in raw.values()),
            units=len(raw) * len(ATTACK_SHAPES["long"]),
            failed_units=sum(len(result.failed_units) for result in raw.values()),
            stats={"tallies": tally},
            errors=self.pinned("tallies", tally),
        )


def grid_points(stride: int, rels) -> list:
    """``(GlitchParams, rel cycle)`` of every single glitch a scan grid fires."""
    from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams

    return [(GlitchParams(rel, width, offset), rel) for rel in rels
            for width in WIDTH_RANGE[::stride] for offset in OFFSET_RANGE[::stride]]


def stratified_seed(seed: int, labels: tuple, points: list, faults: int) -> int:
    """The first fault seed derived from ``seed`` whose grid faults at ``faults`` points.

    Whether a (width, offset) point faults is decided per point, so a
    scan simulates an attempt only at the few points inside the fault
    band, and how many lie on a coarse grid swings with the seed. Fixing
    that count holds the simulated work of every seed equal; the seed
    still decides which points fault and how.
    """
    from repro.hw.faults import FaultModel

    for draw in range(10_000):
        candidate = fault_seed(seed, *labels, draw)
        model = FaultModel(seed=candidate)
        if sum(model.occurrence_decision(params, rel) == "fault"
               for params, rel in points) == faults:
            return candidate
    raise RuntimeError(f"no fault seed for {labels} faults at {faults} points")


class HwShortGlitch(Workload):
    """Table I and II scans on the three guards plus Table VI ``single`` on ``all``.

    Every scan cell (guard and cycle, or defended build) gets its own
    :func:`stratified_seed`, so each run simulates the same number of
    attempts whatever its seed; each guard-and-cycle cell is scanned under
    two seeds, which halves the seed-to-seed variance of the cycles those
    attempts simulate.
    """

    name = "hw_short_glitch"
    #: stride and the number of faulting grid points (the most common
    #: count over seeds) of each scan kind
    SCALE = {"cycles": 8, "copies": 2, "single_stride": 6, "single_faults": 5,
             "multi_stride": 12, "multi_faults": 1,
             "defense_stride": 12, "defense_faults": 11}
    BUILDS = tuple((scenario, "all") for scenario in SCENARIOS)

    def setup(self) -> None:
        from repro.firmware import loops
        from repro.hw.scan import ATTACK_SHAPES

        scale = self.scale
        for guard in loops.GUARD_KINDS:
            for variant in ("single", "double"):
                loops.build_guard_firmware(guard, variant)
        self.images = _defended(self.BUILDS)
        self.seeds = {}
        for kind in ("single", "multi"):
            for cell in self.cells():
                points = grid_points(scale[f"{kind}_stride"], [cell[1]])
                self.seeds[(kind,) + cell] = stratified_seed(
                    self.seed, (kind,) + cell, points, scale[f"{kind}_faults"])
        offsets = [ext for ext, _ in ATTACK_SHAPES["single"]]
        for key in self.images:
            points = grid_points(scale["defense_stride"], offsets)
            self.seeds[key] = stratified_seed(self.seed, ("defense",) + key, points,
                                              scale["defense_faults"])

    def cells(self) -> list:
        """``(guard, cycle, copy)``: each Table I/II cell, scanned ``copies`` times."""
        from repro.firmware.loops import GUARD_KINDS

        return [(guard, cycle, copy) for guard in GUARD_KINDS
                for cycle in range(self.scale["cycles"]) for copy in range(self.scale["copies"])]

    def repetition(self, index: int):
        from repro.hw import scan
        from repro.hw.faults import FaultModel

        scale = self.scale
        cells = self.cells()
        single = {
            cell: scan.run_single_glitch_scan(
                cell[0], cycles=[cell[1]], stride=scale["single_stride"], workers=1,
                fault_model=FaultModel(seed=self.seeds[("single",) + cell]))
            for cell in cells
        }
        multi = {
            cell: scan.run_multi_glitch_scan(
                cell[0], cycles=[cell[1]], stride=scale["multi_stride"], workers=1,
                fault_model=FaultModel(seed=self.seeds[("multi",) + cell]))
            for cell in cells
        }
        defense = {
            key: scan.run_defense_scan(
                image, "single", scenario=key[0], defense=key[1],
                stride=scale["defense_stride"], workers=1,
                fault_model=FaultModel(seed=self.seeds[key]))
            for key, image in self.images.items()
        }
        return single, multi, defense

    def summarize(self, raw) -> Rep:
        from repro.hw.scan import ATTACK_SHAPES

        single, multi, defense = raw
        scans = list(single.values()) + list(multi.values())
        tally = digest({
            "single": {repr(key): [[row.cycle, row.attempts, row.successes, row.resets,
                                    sorted(row.register_values.items())] for row in scan.rows]
                       for key, scan in single.items()},
            "multi": {repr(key): [[row.cycle, row.attempts, row.partial, row.full]
                                  for row in scan.rows] for key, scan in multi.items()},
            "defense": {"/".join(key): _defense_row(result) for key, result in defense.items()},
        })
        return Rep(
            outcomes=sum(scan.total_attempts for scan in scans)
            + sum(result.attempts for result in defense.values()),
            units=sum(len(scan.rows) + len(scan.failed_units) for scan in scans)
            + len(defense) * len(ATTACK_SHAPES["single"]),
            failed_units=sum(len(scan.failed_units) for scan in scans)
            + sum(len(result.failed_units) for result in defense.values()),
            stats={"tallies": tally},
            errors=self.pinned("tallies", tally),
        )


WORKLOADS = {cls.name: cls for cls in (Fig2Cold, ImageRerun, HwLongGlitch, HwShortGlitch)}
