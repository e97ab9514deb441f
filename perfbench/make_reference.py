"""Regenerate reference.json: the outputs the correctness gate compares against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every request any workload seed can generate (``workloads.reference_requests``)
and stores, per request without its ``--seed``, the check names, the table
fields that ``gate.py`` compares, and the vertex count.  Refuses to store an
output with a failed check that is not a documented known defect.
"""

from __future__ import annotations

import json
import sys

import gate
import run
import workloads


def main() -> int:
    requests = workloads.reference_requests()
    env = run.child_env()
    reference = {}
    # a few requests per pass keeps each pass well inside the pass timeout
    for lo in range(0, len(requests), 8):
        outcome = run.run_pass(requests[lo:lo + 8], env)
        for request in outcome["requests"]:
            report = request["report"]
            unexplained = [c["name"] for c in (report or {}).get("checks", [])
                           if not c["passed"] and not gate.known_defect(request["argv"], c["name"])]
            if report is None or unexplained:
                print(f"refusing {request['argv']}: {request['error'] or unexplained}",
                      file=sys.stderr)
                return 1
            reference[workloads.reference_key(request["argv"])] = gate.reference_entry(report)
        print(f"{len(reference)}/{len(requests)} requests", file=sys.stderr, flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
