"""Record the pinned event sequences of short bundled-scenario runs.

``tests/test_event_sequences.py`` runs every entry of
``tests/data/event_sequences.json`` again and asserts exact equality with
what is recorded there: each transmission as a (sensor, boundary index)
pair, the boundary index of each parameter update, and the ``repr`` of
the final certificate value. The file was written by this script on the
commit before the containment bound gained its memo, and must not be
re-recorded to make a changed engine pass:

    PYTHONPATH=src python tests/record_event_sequences.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from etcontrol.feedback import UpdateSchedule
from etcontrol.models import batch_reactor, cubic_oscillator
from etcontrol.simulate import run

PATH = Path(__file__).with_name("data") / "event_sequences.json"

SCENARIOS = {"batch_reactor": batch_reactor, "cubic_oscillator": cubic_oscillator}

# (scenario, mode, horizon, scale, feedback schedule as (dwell, decay)):
# every static mode on both bundled scenarios, the linear plant at two
# extreme scales, and feedback at the default and a fast schedule.
RUNS = [
    ("batch_reactor", "decentralized", 1.0, 1.0, None),
    ("batch_reactor", "centralized", 1.0, 1.0, None),
    ("batch_reactor", "centralized-nodwell", 1.0, 1.0, None),
    ("batch_reactor", "decentralized", 1.0, 1e-3, None),
    ("batch_reactor", "decentralized", 1.0, 1e3, None),
    ("cubic_oscillator", "decentralized", 1.0, 1.0, None),
    ("cubic_oscillator", "centralized", 1.0, 1.0, None),
    ("cubic_oscillator", "centralized-nodwell", 1.0, 1.0, None),
    ("cubic_oscillator", "feedback", 2.0, 1.0, None),
    ("cubic_oscillator", "feedback", 2.0, 1.0, (0.1, 0.9)),
]


def record(model, mode, horizon, scale, schedule):
    """Run one entry and return its sequences as a JSON-ready dict."""
    trace = run(SCENARIOS[model](), mode=mode, horizon=horizon, scale=scale,
                schedule=None if schedule is None else UpdateSchedule(*schedule))
    events = trace.events
    boundary = np.searchsorted(trace.times, events.time)
    assert np.array_equal(trace.times[boundary], events.time)
    update_times = [u.time for u in trace.updates]
    updates = np.searchsorted(trace.times, update_times)
    assert np.array_equal(trace.times[updates], update_times)
    return {
        "model": model, "mode": mode, "horizon": horizon, "scale": scale,
        "schedule": None if schedule is None else list(schedule),
        "events": [[int(i), int(k)] for i, k in zip(events.sensor, boundary)],
        "updates": [int(k) for k in updates],
        "final_lyapunov": repr(float(trace.lyapunov[-1])),
    }


def main():
    entries = [record(*spec) for spec in RUNS]
    PATH.parent.mkdir(exist_ok=True)
    text = "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"
    PATH.write_text(text, encoding="utf-8")
    print(f"wrote {len(entries)} runs to {PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
