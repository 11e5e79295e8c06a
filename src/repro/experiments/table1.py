"""Table I: single-glitch scans of the three guard loops (RQ2, RQ3, RQ4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.render import render_table
from repro.firmware.loops import GUARD_KINDS, guard_descriptor
from repro.hw.faults import FaultModel
from repro.hw.models import run_model_axis
from repro.hw.scan import SingleGlitchScan, run_single_glitch_scan

#: paper totals: successes, attempts-per-cycle basis, success rate
PAPER_TOTALS = {
    "not_a": {"successes": 585, "rate": 0.00705, "unique_registers": 12},
    "a": {"successes": 272, "rate": 0.00347, "unique_registers": 7},
    "a_ne_const": {"successes": 352, "rate": 0.00449, "unique_registers": 7},
}


@dataclass
class Table1Result:
    #: the first (or only) model's scans — the historical single-model shape
    scans: dict[str, SingleGlitchScan] = field(default_factory=dict)
    #: per-model axis: model label → guard → scan
    by_model: dict[str, dict[str, SingleGlitchScan]] = field(default_factory=dict)

    def render(self) -> str:
        parts = []
        models = self.by_model or {"clock": self.scans}
        for label, scans in models.items():
            model_note = f" [{label} model]" if len(models) > 1 else ""
            for guard, scan in scans.items():
                descriptor = guard_descriptor(guard)
                rows = []
                for row in scan.rows:
                    top = ", ".join(
                        f"{value:#x}×{count}"
                        for value, count in row.register_values.most_common(4)
                    )
                    rows.append([row.cycle, row.instruction, row.successes, top])
                reference = PAPER_TOTALS[guard]
                title = (
                    f"Table I ({descriptor.description}){model_note} — "
                    f"total {scan.total_successes}/{scan.total_attempts} "
                    f"({scan.success_rate * 100:.3f}%), "
                    f"{scan.unique_register_values} unique register values "
                    f"[paper: {reference['successes']} succ, "
                    f"{reference['rate'] * 100:.3f}%, {reference['unique_registers']} unique]"
                )
                parts.append(
                    render_table(
                        title,
                        ["Cycle", "Instruction", "Successes", f"R{descriptor.comparator_register} (top)"],
                        rows,
                    )
                )
                parts.append("")
        return "\n".join(parts)

    def ordering_matches_paper(self) -> bool:
        """The paper's RQ3 finding: while(!a) most vulnerable, while(a) most resilient."""
        rates = {guard: scan.success_rate for guard, scan in self.scans.items()}
        return rates["not_a"] > rates["a_ne_const"] > rates["a"]


def run_table1(
    stride: int = 1,
    cycles=range(8),
    fault_model: FaultModel | str | None = None,
    workers: int = 1,
    progress=None,
    checkpoint_dir=None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout=None,
    obs=None,
    profile=None,
    fault_models=None,
) -> Table1Result:
    """Run Table I, optionally once per fault model.

    ``fault_model``/``profile`` select a single model (name, instance, or
    calibration profile); ``fault_models`` (an iterable of names or
    instances) opens the per-model axis and fills ``result.by_model``.
    The default is the paper's clock model, bit-identical to before the
    registry existed.
    """

    def scans(model, **execution) -> dict[str, SingleGlitchScan]:
        return {
            guard: run_single_glitch_scan(
                guard, cycles=cycles, stride=stride, fault_model=model, **execution
            )
            for guard in GUARD_KINDS
        }

    by_model = run_model_axis(
        "table1", scans, stride, fault_model, fault_models, profile, checkpoint_dir, obs,
        workers=workers, progress=progress, resume=resume, retries=retries,
        unit_timeout=unit_timeout,
    )
    return Table1Result(scans=next(iter(by_model.values())), by_model=by_model)


__all__ = ["Table1Result", "run_table1", "PAPER_TOTALS"]
