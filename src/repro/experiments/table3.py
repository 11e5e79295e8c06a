"""Table III: long glitches spanning both loops (RQ5, §V-D)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.render import render_table
from repro.firmware.loops import GUARD_KINDS
from repro.hw.faults import FaultModel
from repro.hw.models import run_model_axis
from repro.hw.scan import LongGlitchScan, run_long_glitch_scan

#: paper totals: long-glitch success rates
PAPER_TOTALS = {
    "not_a": 0.00101,
    "a": 0.00730,
    "a_ne_const": 0.000992,
}


@dataclass
class Table3Result:
    #: the first (or only) model's scans — the historical single-model shape
    scans: dict[str, LongGlitchScan] = field(default_factory=dict)
    #: per-model axis: model label → guard → scan
    by_model: dict[str, dict[str, LongGlitchScan]] = field(default_factory=dict)

    def render(self) -> str:
        parts = []
        models = self.by_model or {"clock": self.scans}
        for model_name, scans in models.items():
            model_note = f" [{model_name} model]" if len(models) > 1 else ""
            cycle_labels = [f"0-{row.last_cycle}" for row in next(iter(scans.values())).rows]
            rows = []
            for label_index, label in enumerate(cycle_labels):
                row = [label]
                for guard in scans:
                    row.append(scans[guard].rows[label_index].successes)
                rows.append(row)
            totals = ["Total"]
            rates = ["Total (%)"]
            for guard, scan in scans.items():
                totals.append(scan.total_successes)
                rates.append(f"{scan.success_rate * 100:.4f}%")
            rows.append(totals)
            rows.append(rates)
            header = ["Cycles"] + [g for g in scans]
            body = render_table(
                "Table III: long glitches against two subsequent while loops"
                + model_note,
                header, rows,
            )
            reference = ", ".join(
                f"{guard}={rate * 100:.3f}%" for guard, rate in PAPER_TOTALS.items()
            )
            parts.append(body + f"\npaper totals: {reference}")
        return "\n\n".join(parts)


def run_table3(
    stride: int = 1,
    last_cycles=range(10, 21),
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
) -> Table3Result:
    """Run Table III, optionally once per fault model (see :func:`run_table1`)."""

    def scans(model, **execution) -> dict[str, LongGlitchScan]:
        return {
            guard: run_long_glitch_scan(
                guard, last_cycles=last_cycles, stride=stride, fault_model=model, **execution
            )
            for guard in GUARD_KINDS
        }

    by_model = run_model_axis(
        "table3", scans, stride, fault_model, fault_models, profile, checkpoint_dir, obs,
        workers=workers, progress=progress, resume=resume, retries=retries,
        unit_timeout=unit_timeout,
    )
    return Table3Result(scans=next(iter(by_model.values())), by_model=by_model)


__all__ = ["Table3Result", "run_table3", "PAPER_TOTALS"]
