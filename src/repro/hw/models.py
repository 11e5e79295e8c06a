"""The fault-model zoo: a registry of injection techniques and calibrations.

The paper's quantitative tables are conditioned on one phenomenology —
the clock-glitch model in :mod:`repro.hw.faults` — but the related work
shows defense rankings shift with the injection technique.  This module
makes fault models first-class pluggable objects:

- :data:`FAULT_MODELS` maps a short name (``clock``, ``voltage``, ``em``,
  ``skip``, ``replay``) to a factory, so glitchers, scans, experiment
  drivers, and the CLI construct models by name;
- :class:`CalibrationProfile` bundles a named (seed, amplitude, band)
  parameterization — one per bench setup — and :data:`PROFILES` holds the
  built-in calibrations;
- :func:`resolve_fault_model` is the single resolution point every layer
  shares: it accepts a model instance, a registered name, or a profile
  name, and returns ``None`` untouched so default campaigns keep their
  exact historical (clock-model) behaviour.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.errors import GlitchConfigError
from repro.hw.em import EMFaultModel, SkipReplayModel
from repro.hw.faults import FaultModel
from repro.hw.voltage import VoltageFaultModel

#: registered model name → factory accepting calibration keyword arguments
FAULT_MODELS: dict[str, Callable[..., FaultModel]] = {}


def register_fault_model(name: str, factory: Callable[..., FaultModel]) -> None:
    """Register (or replace) a fault-model factory under ``name``."""
    FAULT_MODELS[name] = factory


register_fault_model("clock", FaultModel)
register_fault_model("voltage", VoltageFaultModel)
register_fault_model("em", EMFaultModel)
register_fault_model("skip", lambda **kwargs: SkipReplayModel(effect="skip", **kwargs))
register_fault_model("replay", lambda **kwargs: SkipReplayModel(effect="replay", **kwargs))


@dataclass(frozen=True)
class CalibrationProfile:
    """A named, reproducible bench calibration for one registered model.

    ``params`` is a tuple of ``(keyword, value)`` pairs forwarded to the
    model factory (kept as a tuple so profiles stay hashable/frozen);
    ``seed`` overrides the model's default seed when set.
    """

    name: str
    model: str
    description: str = ""
    seed: Optional[int] = None
    params: tuple[tuple[str, float], ...] = ()

    def build(self) -> FaultModel:
        """Construct the calibrated model instance."""
        if self.model not in FAULT_MODELS:
            raise GlitchConfigError(
                f"profile {self.name!r} names unknown model {self.model!r}; "
                f"registered: {sorted(FAULT_MODELS)}"
            )
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return FAULT_MODELS[self.model](**kwargs)


#: profile name → calibration
PROFILES: dict[str, CalibrationProfile] = {}


def register_profile(profile: CalibrationProfile) -> None:
    """Register (or replace) a calibration profile under its name."""
    PROFILES[profile.name] = profile


register_profile(CalibrationProfile(
    name="cw-lite-clock",
    model="clock",
    description="ChipWhisperer-Lite clock glitcher against the STM32F071 — "
                "the paper's bench; identical to the default clock model.",
))
register_profile(CalibrationProfile(
    name="cw-lite-voltage",
    model="voltage",
    description="ChipWhisperer-Lite crowbar voltage glitcher, stock "
                "capacitor bank (48-cycle recharge dead time).",
))
register_profile(CalibrationProfile(
    name="em-probe-4mm",
    model="em",
    description="4 mm EM injection probe per Moro et al.: precise "
                "instruction replacement, slightly wider power band.",
    params=(("fault_amplitude", 0.92), ("width_sigma", 13.0)),
))
register_profile(CalibrationProfile(
    name="skip-precise",
    model="skip",
    description="Idealized instruction-skip attacker with a perfect "
                "trigger (countermeasure worst-case analysis).",
    params=(("fault_amplitude", 0.97), ("crash_amplitude", 0.10)),
))
register_profile(CalibrationProfile(
    name="replay-precise",
    model="replay",
    description="Idealized instruction-replay attacker (stale prefetch "
                "buffer served in place of the faulted fetch).",
    params=(("fault_amplitude", 0.97), ("crash_amplitude", 0.10)),
))


def resolve_fault_model(
    fault_model: Union[FaultModel, str, None] = None,
    profile: Union[CalibrationProfile, str, None] = None,
) -> Optional[FaultModel]:
    """Resolve a model selection to an instance (or ``None`` for the default).

    ``fault_model`` may be a ready instance, a :data:`FAULT_MODELS` name,
    or ``None``; ``profile`` a :class:`CalibrationProfile` or a
    :data:`PROFILES` name.  A profile wins the calibration: combining it
    with a model *name* is allowed as a consistency assertion (the names
    must agree), but combining it with a pre-built instance is an error.
    ``None``/``None`` returns ``None`` so callers keep their historical
    defaults bit-identically.
    """
    if profile is not None:
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError:
                raise GlitchConfigError(
                    f"unknown calibration profile {profile!r}; "
                    f"registered: {sorted(PROFILES)}"
                ) from None
        if isinstance(fault_model, FaultModel):
            raise GlitchConfigError(
                "pass either a pre-built fault_model instance or a profile, "
                "not both: the profile builds its own calibrated instance"
            )
        if isinstance(fault_model, str) and fault_model != profile.model:
            raise GlitchConfigError(
                f"profile {profile.name!r} calibrates the {profile.model!r} "
                f"model but fault_model={fault_model!r} was requested"
            )
        return profile.build()
    if fault_model is None:
        return None
    if isinstance(fault_model, str):
        try:
            factory = FAULT_MODELS[fault_model]
        except KeyError:
            raise GlitchConfigError(
                f"unknown fault model {fault_model!r}; "
                f"registered: {sorted(FAULT_MODELS)}"
            ) from None
        return factory()
    return fault_model


def model_label(model: Optional[FaultModel]) -> str:
    """Short registry-style label for a model instance (``None`` → clock)."""
    if model is None:
        return "clock"
    if isinstance(model, SkipReplayModel):
        return model.effect
    if isinstance(model, EMFaultModel):
        return "em"
    if isinstance(model, VoltageFaultModel):
        return "voltage"
    return "clock"


def model_fingerprint(model: Optional[FaultModel]) -> str:
    """The label and constructor parameters of a model, as a checkpoint key.

    Two models with the same fingerprint draw the same fault streams, so a
    checkpoint written under one may resume under the other.  Only
    constructor parameters (read back from the same-named attributes) are
    included, never run state such as the voltage model's recharge marker.
    ``None`` is the default clock model, exactly as the glitcher resolves it.
    """
    if model is None:
        model = FaultModel()
    names = set()
    for cls in type(model).__mro__:
        if issubclass(cls, FaultModel) and "__init__" in vars(cls):
            for name, parameter in inspect.signature(cls.__init__).parameters.items():
                if name != "self" and parameter.kind not in (
                    parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD
                ):
                    names.add(name)
    params = ", ".join(f"{name}={getattr(model, name, None)!r}" for name in sorted(names))
    return f"{model_label(model)}({params})"


def resolve_model_axis(
    fault_model: Union[FaultModel, str, None] = None,
    fault_models=None,
    profile: Union[CalibrationProfile, str, None] = None,
) -> list[tuple[str, Optional[FaultModel]]]:
    """Resolve the per-model experiment axis to ``[(label, model), ...]``.

    ``fault_models`` (an iterable of names/instances) opens the multi-model
    axis and is mutually exclusive with the single-selection arguments.
    The default axis is ``[("clock", None)]`` — the paper's bench, with
    ``None`` preserved so downstream defaults stay bit-identical.
    """
    if fault_models:
        if fault_model is not None or profile is not None:
            raise GlitchConfigError(
                "pass either fault_models (the multi-model axis) or a single "
                "fault_model/profile selection, not both"
            )
        axis: list[tuple[str, Optional[FaultModel]]] = []
        for entry in fault_models:
            model = resolve_fault_model(entry)
            label = entry if isinstance(entry, str) else model_label(model)
            axis.append((label, model))
        return axis
    model = resolve_fault_model(fault_model, profile)
    if model is None:
        return [("clock", None)]
    label = fault_model if isinstance(fault_model, str) else model_label(model)
    return [(label, model)]


def model_checkpoint_dir(checkpoint_dir, label: str, axis) -> Optional[str]:
    """Per-model checkpoint subdirectory for multi-model experiment axes.

    With a single-model axis the directory is passed through unchanged
    (so existing single-model checkpoints keep resuming); with several
    models each gets its own subdirectory keyed by its label.
    """
    if checkpoint_dir is None or len(axis) <= 1:
        return checkpoint_dir
    import os

    return os.path.join(str(checkpoint_dir), label)


def run_model_axis(
    name: str,
    run_model: Callable[..., Any],
    stride: int,
    fault_model: Union[FaultModel, str, None] = None,
    fault_models=None,
    profile: Union[CalibrationProfile, str, None] = None,
    checkpoint_dir=None,
    obs=None,
    **execution,
) -> dict[str, Any]:
    """Run one experiment driver once per model on its axis.

    Calls ``run_model(model, checkpoint_dir=..., obs=..., **execution)`` for
    every ``(label, model)`` of :func:`resolve_model_axis`, inside one
    ``name`` trace span, with each model's :func:`model_checkpoint_dir`.
    Returns ``{label: result}`` in axis order; the first entry is the
    driver's historical single-model result.
    """
    from repro.obs import coerce_observer

    axis = resolve_model_axis(fault_model, fault_models, profile)
    obs = coerce_observer(obs)
    with obs.trace(name, stride=stride):
        return {
            label: run_model(
                model, checkpoint_dir=model_checkpoint_dir(checkpoint_dir, label, axis),
                obs=obs, **execution,
            )
            for label, model in axis
        }


__all__ = [
    "FAULT_MODELS",
    "PROFILES",
    "CalibrationProfile",
    "register_fault_model",
    "register_profile",
    "resolve_fault_model",
    "resolve_model_axis",
    "model_label",
    "model_fingerprint",
    "model_checkpoint_dir",
    "run_model_axis",
]
