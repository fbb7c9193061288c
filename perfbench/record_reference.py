"""Record the seed-0 references of the two simulate workloads.

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes ``perfbench/reference/<workload>.json``: the event sequence
(sensor, time), the update count and the states at every
``REFERENCE_STRIDE``-th boundary. The seed-0 check of ``run.py``
compares every op against these files, so record them again only when
the bundled scenarios are meant to behave differently.
"""

import json
import tempfile
from pathlib import Path

from workloads import REFERENCE_DIR, WORKLOADS


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ("lti_simulate", "feedback_simulate"):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory() as out_dir:
            result = workload.op(workload.inputs(0)[0], Path(out_dir))
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(workload.reference(result.trace)) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
