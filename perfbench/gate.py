"""Correctness gate: one request's CLI outcome against the stored reference.

A request fails if it exits nonzero, reports a failed check, or gives a value
outside the reference tolerance.  Every comparison is written as
``not (abs(x - ref) <= tol)`` so that NaN and inf fail closed.
"""

from __future__ import annotations

from workloads import reference_key

# Absolute tolerances per table field.  Certified values are closed forms or
# exact vertex maxima; the empirical proxies are sums over 10^5-10^6 grid
# points whose last digits move when the summation order changes.
TOLERANCES = {
    "kappa_prime_1": 1e-9, "bound": 1e-9, "subgroup_bound": 1e-9, "delta": 1e-9,
    "theorem3": 1e-9, "prop4": 1e-9, "prop5": 1e-9, "fan_main": 1e-9,
    "peyriere": 1e-8, "entropy_est": 1e-8, "fan_consistency": 1e-6,
}
EXACT_FIELDS = ("q", "B", "peyriere_converged")


def known_defect(argv: list[str], check_name: str) -> str | None:
    """The documented defect a failed check is due to, or None."""
    if argv[0] == "sweep" and check_name.endswith("/fan_consistency_bounded"):
        a = float(argv[argv.index("--a") + 1])
        if abs(a) < 1.0:
            return "fan_consistency_bounded only holds at |a| = 1 (false FAIL at a < 1)"
    return None


def _differs(value, ref, tol: float) -> bool:
    if value is None or ref is None:
        return value is not ref
    return not (abs(float(value) - float(ref)) <= tol)


def reference_entry(report: dict) -> dict:
    """What the reference stores for one CLI report."""
    entry = {"checks": sorted(c["name"] for c in report["checks"])}
    results = report["results"]
    if "table" in results:
        fields = list(EXACT_FIELDS) + list(TOLERANCES)
        entry["table"] = [{k: row.get(k) for k in fields if k in row} for row in results["table"]]
    if "vertex_count" in results:
        entry["vertex_count"] = results["vertex_count"]
        entry["raw_bound"] = results["raw_bound"]
    return entry


def check_request(outcome: dict, reference: dict) -> list[tuple[str, str | None]]:
    """Failure reasons for one request, each with the known defect it is due to (or None).

    An empty list means the request passed.
    """
    argv = outcome["argv"]
    report = outcome["report"]
    if report is None:
        return [(f"exit {outcome['exit']} without a report: {outcome['error']}", None)]
    reasons = []
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    for name in failed:
        reasons.append((f"check failed: {name}", known_defect(argv, name)))
    if outcome["exit"] != (1 if failed else 0):
        reasons.append((f"exit {outcome['exit']}", None))
    ref = reference.get(reference_key(argv))
    if ref is None:
        return reasons + [("no reference stored for this request", None)]
    got = reference_entry(report)
    if got["checks"] != ref["checks"]:
        reasons.append(("check list differs from the reference", None))
    if not (got.get("vertex_count") == ref.get("vertex_count")):
        reasons.append((f"vertex_count {got.get('vertex_count')} != {ref.get('vertex_count')}", None))
    if "raw_bound" in ref and _differs(got.get("raw_bound"), ref["raw_bound"], TOLERANCES["bound"]):
        reasons.append((f"raw_bound {got.get('raw_bound')} != {ref['raw_bound']}", None))
    rows, ref_rows = got.get("table", []), ref.get("table", [])
    if len(rows) != len(ref_rows):
        reasons.append((f"{len(rows)} table rows, reference has {len(ref_rows)}", None))
    for row, ref_row in zip(rows, ref_rows):
        for key, ref_value in ref_row.items():
            value = row.get(key)
            if key in EXACT_FIELDS:
                bad = value != ref_value
            else:
                bad = _differs(value, ref_value, TOLERANCES[key])
            if bad:
                reasons.append((f"q={row.get('q')} {key}={value!r}, reference {ref_value!r}", None))
    return reasons

