"""Design and simulation toolkit for decentralized event-triggered control.

Sensors transmit their state component to a shared controller only when
a local error threshold fires, and never before a per-sensor dwell time
has passed; the package computes those thresholds and dwell times from
a quadratic stability certificate, simulates the resulting closed loop,
and verifies the guarantees the design makes.

Entry points: :func:`design_nonlinear` produces trigger parameters from
a certificate and :func:`design_lti` from the plant matrices, both
through :func:`dwell_times`; :func:`run` simulates a scenario, and the
bundled benchmarks live in :mod:`etcontrol.models`. The ``etcontrol``
command exposes the same paths from the shell.
"""

from .design import (DesignResult, LipschitzData, LyapunovCertificate,
                     TriggerConfig, design_lti, design_nonlinear, dwell_times,
                     peak_cubic_gain, validate_certificate, validate_weights)
from .errors import DesignError, SimulationError
from .feedback import (ContainmentRecord, ParameterUpdate, QuadraticBound,
                       UpdateSchedule, apply_update, containment_sphere,
                       update_due)
from .linalg import (SpectralSummary, is_hurwitz, solve_lyapunov,
                     spectral_norm, spectral_summary, sym_eig)
from .models import (Scenario, SystemModel, batch_reactor, cubic_oscillator,
                     design_scenario, load_lti, scenario_by_name)
from .riccati import RiccatiCoefficients, crossing_time, crossing_time_numeric
from .simulate import (SimulationTrace, TransmissionEvent, containment_margins,
                       decay_excess, run, summarize, summary_from_events,
                       write_events_json, write_summary_json, write_trace_csv)

__version__ = "0.1.0"

__all__ = [
    "ContainmentRecord", "DesignError", "DesignResult",
    "LipschitzData", "LyapunovCertificate", "ParameterUpdate", "QuadraticBound",
    "RiccatiCoefficients", "Scenario", "SimulationError", "SimulationTrace",
    "SpectralSummary", "SystemModel", "TransmissionEvent", "TriggerConfig",
    "UpdateSchedule", "apply_update", "batch_reactor", "containment_margins",
    "containment_sphere", "crossing_time", "crossing_time_numeric",
    "cubic_oscillator", "decay_excess", "design_lti", "design_nonlinear",
    "design_scenario", "dwell_times", "is_hurwitz", "load_lti",
    "peak_cubic_gain", "run",
    "scenario_by_name", "solve_lyapunov", "spectral_norm", "spectral_summary",
    "summarize", "summary_from_events", "sym_eig", "update_due",
    "validate_certificate", "validate_weights", "write_events_json",
    "write_summary_json", "write_trace_csv",
    "__version__",
]
