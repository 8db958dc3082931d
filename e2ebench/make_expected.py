#!/usr/bin/env python3
"""Regenerate expected.json, the stored outputs the benchmark checks.

For every shipped noise seed it records the sha256 of the final U/V fields
of the ``solve`` job and the modeled ``elapsed_seconds`` and
``events_processed`` of both ``virtual`` jobs. Run from a source checkout
whose outputs are known good::

    python3 e2ebench/make_expected.py

Regenerating is only right when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import (  # noqa: E402
    EXPECTED, SHIPPED_SEEDS, Solve, Virtual, field_digest, virtual_values,
)


def main() -> None:
    from repro.core.execute import execute_job

    work = HERE.parent / ".e2ebench_work" / "expected"
    work.mkdir(parents=True, exist_ok=True)
    table = {"solve": {}, "virtual": {}}
    try:
        for seed in range(SHIPPED_SEEDS):
            spec = Solve.spec_for(seed, work)
            execute_job(spec)
            table["solve"][str(seed)] = field_digest(spec.settings.output)
            vector, nic = Virtual.specs_for(seed)
            table["virtual"][str(seed)] = {
                "vector": virtual_values(execute_job(vector)),
                "nic": virtual_values(execute_job(nic)),
            }
            print(seed, table["solve"][str(seed)][:12], table["virtual"][str(seed)],
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
