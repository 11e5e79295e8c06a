"""Table II: partial and full multi-glitch attacks (RQ5)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.render import render_table
from repro.firmware.loops import GUARD_KINDS, guard_descriptor
from repro.hw.faults import FaultModel
from repro.hw.models import run_model_axis
from repro.hw.scan import MultiGlitchScan, run_multi_glitch_scan

#: paper totals per guard: (partial rate, full rate, reduction factor)
PAPER_TOTALS = {
    "not_a": {"partial": 0.01330, "full": 0.00494, "factor": 6.0},
    "a": {"partial": 0.00420, "full": 0.00068, "factor": 3.0},
    "a_ne_const": {"partial": 0.00413, "full": 0.00258, "factor": 1.6},
}


@dataclass
class Table2Result:
    #: the first (or only) model's scans — the historical single-model shape
    scans: dict[str, MultiGlitchScan] = field(default_factory=dict)
    #: per-model axis: model label → guard → scan
    by_model: dict[str, dict[str, MultiGlitchScan]] = field(default_factory=dict)

    def render(self) -> str:
        parts = []
        models = self.by_model or {"clock": self.scans}
        for label, scans in models.items():
            model_note = f" [{label} model]" if len(models) > 1 else ""
            rows = []
            for guard, scan in scans.items():
                reference = PAPER_TOTALS[guard]
                rows.append([
                    guard_descriptor(guard).description,
                    scan.total_partial,
                    f"{scan.partial_rate * 100:.4f}%",
                    scan.total_full,
                    f"{scan.full_rate * 100:.4f}%",
                    f"{reference['partial'] * 100:.3f}% / {reference['full'] * 100:.3f}%",
                ])
            header = [
                "Guard", "Partial", "Partial %", "Full", "Full %", "Paper (partial/full)",
            ]
            body = render_table(
                "Table II: multi-glitch attacks (two back-to-back triggers)"
                + model_note,
                header, rows,
            )
            notes = [
                "",
                "Per-cycle rows:",
            ]
            for guard, scan in scans.items():
                per_cycle = ", ".join(f"c{r.cycle}:{r.partial}/{r.full}" for r in scan.rows)
                notes.append(f"  {guard:<12} {per_cycle}")
            parts.append(body + "\n" + "\n".join(notes))
        return "\n\n".join(parts)

    def multi_glitch_harder_everywhere(self) -> bool:
        """§V-C's core claim: a full multi-glitch is significantly rarer
        than a partial one for every guard."""
        return all(
            scan.total_full < scan.total_partial or scan.total_partial == 0
            for scan in self.scans.values()
        )


def run_table2(
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
) -> Table2Result:
    """Run Table II, optionally once per fault model (see :func:`run_table1`)."""

    def scans(model, **execution) -> dict[str, MultiGlitchScan]:
        return {
            guard: run_multi_glitch_scan(
                guard, cycles=cycles, stride=stride, fault_model=model, **execution
            )
            for guard in GUARD_KINDS
        }

    by_model = run_model_axis(
        "table2", scans, stride, fault_model, fault_models, profile, checkpoint_dir, obs,
        workers=workers, progress=progress, resume=resume, retries=retries,
        unit_timeout=unit_timeout,
    )
    return Table2Result(scans=next(iter(by_model.values())), by_model=by_model)


__all__ = ["Table2Result", "run_table2", "PAPER_TOTALS"]
