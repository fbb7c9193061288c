"""Pinned event sequences of short runs on the bundled scenarios.

Each entry of ``data/event_sequences.json`` is run again and must
reproduce exactly the recorded (sensor, boundary index) transmissions,
update boundaries and final certificate value. How the file was made is
described in ``record_event_sequences.py``.
"""

import json

import pytest

from record_event_sequences import PATH, record

ENTRIES = json.loads(PATH.read_text(encoding="utf-8"))


def _id(entry):
    tag = f"{entry['model']}-{entry['mode']}-scale{entry['scale']:g}"
    if entry["schedule"] is not None:
        tag += "-schedule{:g},{:g}".format(*entry["schedule"])
    return tag


def test_covers_every_mode_on_both_scenarios():
    pairs = {(e["model"], e["mode"]) for e in ENTRIES}
    static = ("decentralized", "centralized", "centralized-nodwell")
    for model in ("batch_reactor", "cubic_oscillator"):
        assert {(model, mode) for mode in static} <= pairs
    assert ("cubic_oscillator", "feedback") in pairs
    scales = {e["scale"] for e in ENTRIES if e["model"] == "batch_reactor"}
    assert {1e-3, 1e3} <= scales
    assert all(e["horizon"] <= 2.0 for e in ENTRIES)
    assert any(e["updates"] for e in ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES, ids=_id)
def test_run_reproduces_recorded_sequences(entry):
    schedule = None if entry["schedule"] is None else tuple(entry["schedule"])
    fresh = record(entry["model"], entry["mode"], entry["horizon"],
                   entry["scale"], schedule)
    assert fresh["updates"] == entry["updates"]
    assert fresh["events"] == entry["events"]
    assert fresh["final_lyapunov"] == entry["final_lyapunov"]
