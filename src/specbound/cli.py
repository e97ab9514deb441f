"""Command-line front end: bound computation, verification suites, and the
Riesz comparison table over one q or a q range, each written to stdout as one
text, JSON or CSV report.

The commands pass the options the user set through to the library, whose
signatures hold every default and whose functions hold the formulas of the
verify checks and the residual of sweep's fan check.  The six other row checks
are stated here, two in ``cmd_bound`` and four in ``cmd_sweep``, as residuals.
Each subparser is the only declaration of its options: an option whose
default lives in the library is absent from the parsed options unless the user
set it.  A verify option is named as its suite's keyword, and ``cmd_verify``
passes each selected suite the set options its signature names.  Each command
reads that one options dict and returns its results and checks; ``main`` times
the call and builds the report, a plain dict whose config block is the same
options dict, and writes it to stdout as ``render`` encodes it.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error
(including a verify option no selected suite reads), violated precondition,
empty range or a report that cannot be written to stdout, 3 resource guard
tripped or memory exhausted, 4 numerical failure.  JSON payloads are
deterministic for a fixed config except for the wall_time_s field.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import sys
import time

from . import __version__
from . import kappa_bound as kb
from . import riesz_products as rp
from . import verify
from . import zq_spectral as zq
from .errors import (InvalidInputError, NumericalError, PreconditionError, ResourceLimitError,
                     check_budget, shown)

TABLE_COLUMNS = [
    "q", "B", "kappa_prime_1", "bound", "subgroup_bound", "delta",
    "theorem3", "prop4", "prop5", "fan_main",
    "peyriere", "peyriere_converged", "entropy_est",
]
CHECK_COLUMNS = ["name", "passed", "residual", "bound", "detail"]


# a row is priced at SWEEP_ROW_Q + q units of 6e-6 s, so a range of MAX_SWEEP_Q
# units runs in about a minute at most (2-core VM: a row costs 0.15 s on average
# over q = 319..1000, and --q 317..707 takes 48-65 s).  A row at q = 1e6 costs
# 0.6 s; the q term, ten times that, bounds one row's transient peak (217 MB at
# 1e6), as a finished row keeps no polytope (--q 910000..1000000 --step 10000: 247 MB)
SWEEP_ROW_Q = 25000
MAX_SWEEP_Q = 10**7


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(rows: list[dict], columns: list[str]) -> str:
    import csv  # only CSV reports load it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands: each returns (results, checks) for ``main`` to wrap in a report
# ---------------------------------------------------------------------------

def _bound_row(result: kb.DimensionBound) -> dict:
    return {
        "q": result.q,
        "B": ",".join(str(m) for m in result.members),
        "kappa_prime_1": float(result.kappa_prime_1),
        "bound": float(result.bound),
        "subgroup_bound": float(result.subgroup_bound),
        "delta": float(result.delta),
    }


def cmd_bound(options: dict) -> tuple[dict, list[verify.CheckResult]]:
    result = kb.dimension_bound(zq.ResidueSet(options["q"], options.get("b", ())))
    results = {
        "table": [_bound_row(result)],
        "raw_bound": result.raw_bound,
        "subgroup_generator": result.subgroup_generator,
        "proper_inclusion": result.proper_inclusion,
        "witness_vertex": list(result.witness_vertex),
        "vertex_count": result.vertex_count,
        "vertex_source": result.vertex_source,
        "symmetrized": result.symmetrized,
    }
    checks = [
        verify.CheckResult("bound/delta_nonnegative", -result.delta, 1e-12,
                           "certified bound dominates the subgroup bound"),
        verify.CheckResult("bound/value_in_unit_interval",
                           max(-result.bound, result.bound - 1.0), 0.0, ""),
    ]
    return results, checks


def cmd_sweep(options: dict) -> tuple[dict, list[verify.CheckResult]]:
    sweep = [rp.RieszParams(options["a"], q) for q in options["q_range"]]
    rp.max_entropy_level(sweep[-1])  # a range past the entropy grid runs no row
    rows = []
    checks = []
    for params in sweep:
        q = params.q
        table = rp.bound_table_row(params)
        dim = kb.dimension_bound(zq.ResidueSet(q, [1, q - 1]))
        row = _bound_row(dim)
        row.update((k, v) for k, v in table._asdict().items() if k not in ("q", "a"))
        gap = rp.fan_gap(params, table.theorem3, table.fan_main)
        row["fan_consistency"] = abs(gap)
        rows.append(row)
        checks += [
            verify.CheckResult(f"riesz/q={q}/theorem3_in_unit_interval",
                               max(-table.theorem3, table.theorem3 - 1.0), 0.0, ""),
            verify.CheckResult(f"riesz/q={q}/theorem3_matches_vertex_bound",
                               abs(table.theorem3 - dim.raw_bound), 1e-9,
                               "closed form vs the bound over the band's Gale vertices"),
        ]
        if table.peyriere_converged:
            checks.append(verify.CheckResult(
                f"riesz/q={q}/certified_below_peyriere",
                table.theorem3 - table.peyriere, rp.PEYRIERE_SLACK,
                "a lower bound must not exceed the dimension estimate"))
        checks.append(verify.CheckResult(
            f"riesz/q={q}/certified_below_entropy",
            table.theorem3 - table.entropy_est, rp.ENTROPY_SLACK,
            "entropy proxy dominates any valid lower bound"))
        checks.append(verify.CheckResult(
            f"sweep/q={q}/fan_consistency_bounded",
            gap, rp.FAN_CONSISTENCY_ALLOWANCE,
            "(theorem3 - fan_main) * q * log q, absolute at |a| = 1"))
    return {"table": rows, "extra_columns": ["fan_consistency"]}, checks


def cmd_verify(options: dict) -> tuple[dict, list[verify.CheckResult]]:
    # no check samples, so no suite reads --seed; it is accepted, within
    # 0..2**64-1, for scripts that send it
    if not 0 <= options["seed"] < 2 ** 64:
        raise InvalidInputError(f"seed must be in 0..2**64-1, got {shown(options['seed'])}")
    suite = options["suite"]
    keywords = {s: inspect.signature(fn).parameters for s, fn in verify.SUITES.items()}
    selected = list(verify.SUITES) if suite == "all" else [suite]
    read = {name for s in selected for name in keywords[s]}
    ignored = sorted({"--" + name.replace("_", "-") for params in keywords.values()
                      for name in params if name in options and name not in read})
    if ignored:
        raise InvalidInputError(f"suite {suite!r} does not read {', '.join(ignored)}")
    checks: list[verify.CheckResult] = []
    for s in selected:
        checks += verify.SUITES[s](**{name: options[name] for name in keywords[s]
                                      if name in options})
    results = {
        "suite": suite,
        "total": len(checks),
        "failed": sum(not c.passed for c in checks),
    }
    return results, checks


# ---------------------------------------------------------------------------
# rendering and argument handling
# ---------------------------------------------------------------------------

def render(envelope: dict, fmt: str) -> str:
    """The report as JSON, CSV or text; ``envelope`` holds only JSON types."""
    if fmt == "json":
        return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
    results = envelope["results"]
    if fmt == "csv":
        if "table" in results:
            return _csv(results["table"], TABLE_COLUMNS + results.get("extra_columns", []))
        return _csv(envelope["checks"], CHECK_COLUMNS)
    lines = [f"specbound {envelope['version']}: {envelope['config'].get('command')}"]
    table = results.get("table")
    if table:
        for row in table:
            parts = [f"{k}={_csv_cell(v)}" for k, v in row.items() if v is not None and v != ""]
            lines.append("  " + "  ".join(parts))
    for key, value in results.items():
        if key in ("table", "extra_columns"):
            continue
        lines.append(f"  {key}: {value}")
    for c in envelope["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        residual = "" if c["residual"] is None else f"  residual={c['residual']:.3e}"
        lines.append(f"  [{mark}] {c['name']}{residual}  bound={c['bound']:.3e}")
        if not c["passed"] and c.get("detail"):
            lines.append(f"         {c['detail']}")
    lines.append(f"  wall_time_s: {envelope['wall_time_s']:.3f}")
    return "\n".join(lines) + "\n"


def _parse_residues(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse residue list {shown(text)}") from exc


def _parse_p_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse p list {shown(text)}") from exc
    if not all(math.isfinite(p) for p in values):
        raise InvalidInputError(f"p values must be finite, got {shown(text)}")
    return values


def _parse_range(text: str, step: str) -> tuple[int, ...]:
    """'8..128' with step '1', '3' (additive) or 'x2' (multiplicative).

    The work of the range is checked against ``MAX_SWEEP_Q`` before the range
    is built, from the count and the sum of its q values.
    """
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse q range {shown(text)}") from exc
    if hi < lo:
        raise InvalidInputError(f"empty q range {shown(text)}")
    if lo < 1:
        raise InvalidInputError(f"q range must start at 1 or more, got {shown(text)}")
    multiplicative = step.startswith("x")
    try:
        inc = int(step[1:] if multiplicative else step)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse step {shown(step)}") from exc
    if multiplicative:
        if inc < 2:
            raise InvalidInputError("multiplicative step must be >= 2")
        values = [lo]  # at most log2(hi) + 1 values
        while values[-1] * inc <= hi:
            values.append(values[-1] * inc)
        count, total = len(values), sum(values)
    else:
        if inc < 1:
            raise InvalidInputError("additive step must be >= 1")
        count = (hi - lo) // inc + 1
        total = count * lo + inc * count * (count - 1) // 2
    check_budget(f"the sweep's q values plus {SWEEP_ROW_Q} per row", total + SWEEP_ROW_Q * count,
                 MAX_SWEEP_Q)
    return tuple(values) if multiplicative else tuple(range(lo, hi + 1, inc))


def _parse_lists(options: dict) -> None:
    """Replace the text of --b, --p and sweep's --q/--step by tuples, in place."""
    if "b" in options:
        options["b"] = _parse_residues(options["b"])
    if "p" in options:
        options["p"] = _parse_p_list(options["p"])
    if "step" in options:
        options["q_range"] = _parse_range(options.pop("q"), options.pop("step"))


class _Parser(argparse.ArgumentParser):
    """A usage error keeps argparse's wording and exit code 2, on one stderr line,
    with each word over 39 characters (an echoed argument) as :func:`shown` prints it."""

    def error(self, message: str):
        words = (shown(word.strip("'")) if len(word) > 39 else word for word in message.split(" "))
        self.exit(2, f"{self.prog}: error: {' '.join(words)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specbound",
        description="Dimension bounds for circle measures with restricted spectrum",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        # an option declared without a default is left out of the parsed
        # options unless set, so the library's signature supplies its default
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--format", dest="output_format", choices=("text", "json", "csv"),
                       default="text")
        return p

    p_bound = add_command("bound", "certified dimension bound for (q, B)")
    p_bound.add_argument("--q", type=int, required=True)
    p_bound.add_argument("--b", help="comma-separated residues, e.g. '1,3' (default: none)")

    p_verify = add_command("verify", "run a named property suite")
    # each option is named as the keyword of the suites that read it, except
    # --seed, which no suite reads
    p_verify.add_argument("--suite", required=True, choices=(*verify.SUITES, "all"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--q", type=int)
    p_verify.add_argument("--q-max", type=int)
    p_verify.add_argument("--a", type=float)
    p_verify.add_argument("--n", type=int, help="martingale grid depth N")
    p_verify.add_argument("--p", help="comma list of exponents, e.g. '1.25,2,4'")

    p_sweep = add_command("sweep", "Riesz product comparison table for one q or a q range")
    p_sweep.add_argument("--q", required=True, help="one value, or a range like '8..128'")
    p_sweep.add_argument("--step", default="1", help="'k' additive or 'xk' multiplicative")
    p_sweep.add_argument("--a", type=float, default=1.0)
    return parser


COMMANDS = {
    "bound": cmd_bound,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    try:
        _parse_lists(options)
        start = time.monotonic()
        results, checks = COMMANDS[options["command"]](options)
        envelope = {"version": __version__, "config": options, "results": results,
                    "checks": [c.as_dict() for c in checks],
                    "wall_time_s": time.monotonic() - start}
    except (InvalidInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    text = render(envelope, options["output_format"])
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # drop the stream: the interpreter's own flush at exit would fail on
        # the text still buffered and turn exit status 2 into 120
        sys.stdout = None
        print(f"error: cannot write report to stdout: {exc}", file=sys.stderr)
        return 2
    return 0 if all(c["passed"] for c in envelope["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
