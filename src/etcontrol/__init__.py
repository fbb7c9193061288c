"""Design and simulation toolkit for decentralized event-triggered control.

Sensors transmit their state component to a shared controller only when
a local error threshold fires, and never before a per-sensor dwell time
has passed; the package computes those thresholds and dwell times from
a quadratic stability certificate, simulates the resulting closed loop,
and verifies the guarantees the design makes.

Entry points: :func:`design_nonlinear` produces trigger parameters from
a certificate at a level, and :func:`design_lti` is its case at level
``inf`` for plant matrices; :func:`run` simulates a scenario, and the
bundled benchmarks live in :mod:`etcontrol.models`. The ``etcontrol``
command exposes the same paths from the shell.

The package namespace holds what a user calls. The building blocks
underneath (linear algebra in :mod:`etcontrol.linalg`, crossing times in
:mod:`etcontrol.riccati`, containment and on-line updates in
:mod:`etcontrol.feedback`, the cubic oscillator's bounds in
:mod:`etcontrol.models`) are imported from their modules.
"""

from .design import (DesignResult, LipschitzData, LyapunovCertificate,
                     TriggerConfig, design_lti, design_nonlinear, dwell_times)
from .errors import DesignError, SimulationError
from .feedback import UpdateSchedule
from .models import (Scenario, SystemModel, batch_reactor, cubic_oscillator,
                     design_scenario, load_lti, scenario_by_name)
from .simulate import (SimulationTrace, containment_margins, decay_excess, run,
                       summarize, summary_from_events, write_events_json,
                       write_summary_json, write_trace_csv)

__version__ = "0.1.0"

__all__ = [
    "DesignError", "DesignResult", "LipschitzData", "LyapunovCertificate",
    "Scenario", "SimulationError", "SimulationTrace", "SystemModel",
    "TriggerConfig", "UpdateSchedule", "batch_reactor", "containment_margins",
    "cubic_oscillator", "decay_excess", "design_lti", "design_nonlinear",
    "design_scenario", "dwell_times", "load_lti", "run", "scenario_by_name",
    "summarize", "summary_from_events", "write_events_json",
    "write_summary_json", "write_trace_csv",
    "__version__",
]
