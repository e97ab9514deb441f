"""Command-line front end: bound computation, Riesz comparison tables,
verification suites, and q-sweeps with machine-readable output.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error
or violated precondition, 3 resource guard tripped, 4 numerical failure.
JSON payloads are deterministic for a fixed config and seed except for the
wall_time_s field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import kappa_bound as kb
from . import riesz_products as rp
from . import verify
from . import zq_spectral as zq
from .errors import InvalidInputError, NumericalError, PreconditionError, ResourceLimitError

TABLE_COLUMNS = [
    "q", "B", "kappa_prime_1", "bound", "subgroup_bound", "delta",
    "theorem3", "prop4", "prop5", "fan_main",
    "peyriere", "peyriere_converged", "entropy_est",
]
CHECK_COLUMNS = ["name", "passed", "residual", "detail"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    q: int | None = None
    b: tuple[int, ...] | None = None
    a: float | None = None
    levels: int | None = None         # martingale grid depth N
    p_values: tuple[float, ...] | None = None
    entropy_level: int | None = None
    peyriere_depth: int | None = None
    peyriere_grid: int | None = None
    suite: str | None = None
    q_max: int | None = None
    q_range: tuple[int, ...] | None = None
    even_only: bool = False
    subsets: int | None = None
    output_format: str = "text"
    output: str | None = None
    seed: int = 0

    def as_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in raw.items() if v is not None}


@dataclass
class ReportEnvelope:
    version: str
    config: dict
    results: dict
    checks: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "config": self.config,
            "results": self.results,
            "checks": self.checks,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _table_csv(rows: list[dict], extra_columns: list[str] | None = None) -> str:
    columns = TABLE_COLUMNS + (extra_columns or [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def _checks_csv(checks: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CHECK_COLUMNS)
    for c in checks:
        writer.writerow([_csv_cell(c.get(col)) for col in CHECK_COLUMNS])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
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


def cmd_bound(config: RunConfig) -> ReportEnvelope:
    start = time.monotonic()
    b = zq.ResidueSet.of(config.q, config.b or ())
    result = kb.dimension_bound(b)
    row = _bound_row(result)
    results = {
        "table": [row],
        "raw_bound": result.raw_bound,
        "subgroup": list(result.subgroup),
        "proper_inclusion": result.proper_inclusion,
        "witness_vertex": list(result.witness_vertex),
        "vertex_count": result.vertex_count,
        "symmetrized": result.symmetrized,
    }
    checks = [
        verify.CheckResult("bound/delta_nonnegative", result.delta >= -1e-12,
                           result.delta, "certified bound dominates the subgroup bound").as_dict(),
        verify.CheckResult("bound/value_in_unit_interval",
                           0.0 <= result.bound <= 1.0, result.bound, "").as_dict(),
    ]
    return ReportEnvelope(__version__, config.as_dict(), results, checks,
                          time.monotonic() - start)


def _riesz_row(config: RunConfig, q: int) -> tuple[dict, list[dict]]:
    params = rp.RieszParams(config.a if config.a is not None else 1.0, q)
    table = rp.bound_table_row(
        params,
        peyriere_depth=config.peyriere_depth,
        peyriere_grid=config.peyriere_grid,
        entropy_level=config.entropy_level if config.entropy_level is not None else 5,
    )
    dim = kb.dimension_bound(zq.ResidueSet.of(q, [1, q - 1]))
    row = _bound_row(dim)
    row.update({
        "theorem3": table.theorem3,
        "prop4": table.prop4,
        "prop5": table.prop5,
        "fan_main": table.fan_main,
        "peyriere": table.peyriere,
        "peyriere_converged": table.peyriere_converged,
        "entropy_est": table.entropy_est,
    })
    checks = [
        verify.CheckResult(f"riesz/q={q}/theorem3_in_unit_interval",
                           0.0 <= table.theorem3 <= 1.0, table.theorem3, "").as_dict(),
        verify.CheckResult(f"riesz/q={q}/theorem3_matches_vertex_bound",
                           abs(table.theorem3 - dim.raw_bound) <= 1e-9,
                           abs(table.theorem3 - dim.raw_bound),
                           "closed form vs vertex enumeration").as_dict(),
    ]
    if table.peyriere_converged:
        checks.append(verify.CheckResult(
            f"riesz/q={q}/certified_below_peyriere",
            table.theorem3 <= table.peyriere + 0.02,
            table.theorem3 - table.peyriere,
            "a lower bound must not exceed the dimension estimate").as_dict())
    if table.entropy_est is not None:
        checks.append(verify.CheckResult(
            f"riesz/q={q}/certified_below_entropy",
            table.theorem3 <= table.entropy_est + 0.05,
            table.theorem3 - table.entropy_est,
            "entropy proxy dominates any valid lower bound").as_dict())
    return row, checks


def cmd_riesz(config: RunConfig) -> ReportEnvelope:
    start = time.monotonic()
    row, checks = _riesz_row(config, config.q)
    return ReportEnvelope(__version__, config.as_dict(), {"table": [row]}, checks,
                          time.monotonic() - start)


def cmd_sweep(config: RunConfig) -> ReportEnvelope:
    start = time.monotonic()
    qs = [q for q in config.q_range if not config.even_only or q % 2 == 0]
    if not qs:
        raise InvalidInputError("sweep range is empty")
    rows = []
    checks = []
    for q in qs:
        row, row_checks = _riesz_row(config, q)
        fan_consistency = abs(row["theorem3"] - row["fan_main"]) * q * math.log(q)
        row["fan_consistency"] = fan_consistency
        rows.append(row)
        checks.extend(row_checks)
        checks.append(verify.CheckResult(
            f"sweep/q={q}/fan_consistency_bounded", fan_consistency <= 10.0,
            fan_consistency, "|theorem3 - fan_main| * q * log q").as_dict())
    return ReportEnvelope(__version__, config.as_dict(),
                          {"table": rows, "extra_columns": ["fan_consistency"]},
                          checks, time.monotonic() - start)


def cmd_verify(config: RunConfig) -> ReportEnvelope:
    start = time.monotonic()
    suite = config.suite
    if suite not in set(verify.SUITES) | {"all"}:
        raise InvalidInputError(
            f"unknown suite {suite!r}; choose from {sorted(verify.SUITES)} or 'all'"
        )
    checks: list[verify.CheckResult] = []
    if suite in ("kappa", "all"):
        checks += verify.kappa_suite(q_max=config.q_max or 10, seed=config.seed)
    if suite in ("riesz-identities", "all"):
        checks += verify.riesz_identity_suite(q_max=config.q_max or 16, seed=config.seed)
    if suite in ("martingale", "all"):
        checks += verify.martingale_suite(
            q=config.q or 3,
            a=config.a if config.a is not None else 1.0,
            depth=config.levels or 6,
            p_values=config.p_values or (1.25, 2.0, 4.0),
            seed=config.seed,
            n_subsets=config.subsets or 100,
        )
    results = {
        "suite": suite,
        "total": len(checks),
        "failed": sum(not c.passed for c in checks),
    }
    return ReportEnvelope(__version__, config.as_dict(), results,
                          [c.as_dict() for c in checks], time.monotonic() - start)


# ---------------------------------------------------------------------------
# rendering and argument handling
# ---------------------------------------------------------------------------

def render(envelope: ReportEnvelope, fmt: str) -> str:
    if fmt == "json":
        return envelope.to_json() + "\n"
    if fmt == "csv":
        if "table" in envelope.results:
            return _table_csv(envelope.results["table"],
                              envelope.results.get("extra_columns"))
        return _checks_csv(envelope.checks)
    lines = [f"specbound {envelope.version}: {envelope.config.get('command')}"]
    table = envelope.results.get("table")
    if table:
        for row in table:
            parts = [f"{k}={_csv_cell(v)}" for k, v in row.items() if v is not None and v != ""]
            lines.append("  " + "  ".join(parts))
    for key, value in envelope.results.items():
        if key in ("table", "extra_columns"):
            continue
        lines.append(f"  {key}: {value}")
    for c in envelope.checks:
        mark = "PASS" if c["passed"] else "FAIL"
        residual = "" if c.get("residual") is None else f"  residual={c['residual']:.3e}"
        lines.append(f"  [{mark}] {c['name']}{residual}")
        if not c["passed"] and c.get("detail"):
            lines.append(f"         {c['detail']}")
    lines.append(f"  wall_time_s: {envelope.wall_time_s:.3f}")
    return "\n".join(lines) + "\n"


def _parse_residues(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse residue list {text!r}") from exc


def _parse_p_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse p list {text!r}") from exc
    if not all(math.isfinite(p) for p in values):
        raise InvalidInputError(f"p values must be finite, got {text!r}")
    return values


def _parse_range(text: str, step: str) -> tuple[int, ...]:
    """'8..128' with step '1', '3' (additive) or 'x2' (multiplicative)."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse q range {text!r}") from exc
    if hi < lo:
        raise InvalidInputError(f"empty q range {text!r}")
    values = []
    if step.startswith("x"):
        try:
            factor = int(step[1:])
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse step {step!r}") from exc
        if factor < 2:
            raise InvalidInputError("multiplicative step must be >= 2")
        q = lo
        while q <= hi:
            values.append(q)
            q *= factor
    else:
        try:
            inc = int(step)
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse step {step!r}") from exc
        if inc < 1:
            raise InvalidInputError("additive step must be >= 1")
        values = list(range(lo, hi + 1, inc))
    return tuple(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbound",
        description="Dimension bounds for circle measures with restricted spectrum",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", dest="output_format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout "
                            "(relative paths resolve under $SPECBOUND_OUTPUT_DIR)")
        p.add_argument("--seed", type=int, default=0)

    p_bound = sub.add_parser("bound", help="certified dimension bound for (q, B)")
    p_bound.add_argument("--q", type=int, required=True)
    p_bound.add_argument("--b", default="", help="comma-separated residues, e.g. '1,3'")
    add_common(p_bound)

    p_riesz = sub.add_parser("riesz", help="bound comparison table for the product measure")
    p_riesz.add_argument("--q", type=int, required=True)
    p_riesz.add_argument("--a", type=float, default=1.0)
    p_riesz.add_argument("--entropy-level", type=int, default=5)
    p_riesz.add_argument("--pey-depth", type=int, default=None)
    p_riesz.add_argument("--pey-grid", type=int, default=None)
    add_common(p_riesz)

    p_verify = sub.add_parser("verify", help="run a named property suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--q", type=int, default=None)
    p_verify.add_argument("--q-max", type=int, default=None)
    p_verify.add_argument("--a", type=float, default=None)
    p_verify.add_argument("--n", type=int, default=None, help="martingale grid depth N")
    p_verify.add_argument("--p", default=None, help="comma list of exponents, e.g. '1.25,2,4'")
    p_verify.add_argument("--subsets", type=int, default=None)
    add_common(p_verify)

    p_sweep = sub.add_parser("sweep", help="bound formulas across a q range")
    p_sweep.add_argument("--q", required=True, help="range like '8..128' or a single value")
    p_sweep.add_argument("--step", default="1", help="'k' additive or 'xk' multiplicative")
    p_sweep.add_argument("--even-only", action="store_true")
    p_sweep.add_argument("--a", type=float, default=1.0)
    p_sweep.add_argument("--entropy-level", type=int, default=None)
    p_sweep.add_argument("--pey-depth", type=int, default=None)
    p_sweep.add_argument("--pey-grid", type=int, default=None)
    add_common(p_sweep)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "bound":
        return RunConfig(command="bound", q=args.q, b=_parse_residues(args.b),
                         output_format=args.output_format, output=args.output,
                         seed=args.seed)
    if args.command == "riesz":
        return RunConfig(command="riesz", q=args.q, a=args.a,
                         entropy_level=args.entropy_level,
                         peyriere_depth=args.pey_depth, peyriere_grid=args.pey_grid,
                         output_format=args.output_format, output=args.output,
                         seed=args.seed)
    if args.command == "verify":
        return RunConfig(command="verify", suite=args.suite, q=args.q, q_max=args.q_max,
                         a=args.a, levels=args.n,
                         p_values=_parse_p_list(args.p) if args.p else None,
                         subsets=args.subsets,
                         output_format=args.output_format, output=args.output,
                         seed=args.seed)
    if args.command == "sweep":
        return RunConfig(command="sweep", a=args.a,
                         q_range=_parse_range(args.q, args.step),
                         even_only=args.even_only,
                         entropy_level=args.entropy_level,
                         peyriere_depth=args.pey_depth, peyriere_grid=args.pey_grid,
                         output_format=args.output_format, output=args.output,
                         seed=args.seed)
    raise InvalidInputError(f"unknown command {args.command!r}")


COMMANDS = {
    "bound": cmd_bound,
    "riesz": cmd_riesz,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _emit(envelope: ReportEnvelope, config: RunConfig) -> None:
    text = render(envelope, config.output_format)
    if config.output:
        path = config.output
        if not os.path.isabs(path):
            path = os.path.join(os.environ.get("SPECBOUND_OUTPUT_DIR", "."), path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        envelope = COMMANDS[config.command](config)
    except (InvalidInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    _emit(envelope, config)
    return 0 if envelope.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
