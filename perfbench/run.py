"""specbound benchmark: CLI workloads timed end to end, or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

One client sends a workload's request list in a closed loop.  Each pass runs
the whole list in a fresh interpreter (``pass_worker.py``), the way a CLI user
runs it, so no in-process cache carries over between passes.  Passes repeat
until the next one would end after ``--seconds``; at least one always runs.
Before each pass, two fresh interpreters time the set-up alone.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass (see ``tracer.py``) and
the tracing overhead against one untraced pass.  Every request is checked
against ``reference.json`` (see ``gate.py``).  A run record and, when traced,
the spans go to ``perfbench/out/``.  See RATIONALE.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES_PER_PASS = 2
SETUP_CODE = "import specbound.cli as cli; cli.build_parser()"
PASS_TIMEOUT_S = 170
# One BLAS thread: a single client on a small shared machine measures steadier,
# and the package's matrices are small enough that threads do not pay.
BLAS_THREADS = "1"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The layer each workload exists to stress; the traced run reports whether it
# really holds the largest share of the time.
PREDICTED_DOMINANT = {
    "bound-halfband": ("kappa_bound.polytope_vertices",),
    "sweep-riesz": ("riesz_products.peyriere_dimension",),
    "verify-all": ("quadrature.tanh_sinh_full",),
    "martingale-deep": ("verify.martingale_suite", "gv_martingale."),
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def time_setup(env) -> float:
    """Seconds for a fresh interpreter to import ``specbound.cli`` and build its parser."""
    start = time.perf_counter()
    # Through pipes: waiting on a piped child returns at its exit, while waiting
    # on an unpiped child with a timeout polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   capture_output=True, timeout=PASS_TIMEOUT_S)
    return time.perf_counter() - start


def run_pass(requests: list[list[str]], env, spans_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "pass_worker.py")]
    if spans_file is not None:
        cmd.append(str(spans_file))
    start = time.perf_counter()
    proc = subprocess.run(cmd, input=json.dumps(requests), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"pass worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    outcome = json.loads(proc.stdout.splitlines()[-1])
    outcome["wall_s"] = wall
    return outcome


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def gate_passes(passes: list[dict], reference: dict) -> dict:
    attempted = failed = failed_known = 0
    reasons: Counter = Counter()
    for outcome in passes:
        for request in outcome["requests"]:
            attempted += 1
            found = gate.check_request(request, reference)
            if not found:
                continue
            failed += 1
            if all(defect for _reason, defect in found):
                failed_known += 1
            for reason, defect in found:
                reasons[f"{' '.join(request['argv'])}: {reason}"
                        + (f" [known defect: {defect}]" if defect else "")] += 1
    return {"attempted": attempted, "failed": failed, "failed_known": failed_known,
            "reasons": dict(reasons)}


def trace_report(workload: str, stats: dict) -> list[str]:
    """Where the traced time went, and whether every wrapper this workload must reach fired."""
    total = sum(stat["self_s"] for stat in stats.values())
    lines = [f"  traced request time {total:.3f} s; self time by layer:"]
    ranked = sorted(stats.items(), key=lambda item: -item[1]["self_s"])
    for name, stat in ranked:
        share = stat["self_s"] / total if total else 0.0
        lines.append(f"    {name:52s} {stat['self_s']:9.4f} s {share:7.1%}  calls={stat['calls']}")
    modules: Counter = Counter()
    for name, stat in stats.items():
        modules[name.split(".")[0]] += stat["self_s"]
    lines.append("  self time by module: " + ", ".join(
        f"{m} {t / total:.1%}" for m, t in modules.most_common()) if total else "")
    predicted = PREDICTED_DOMINANT[workload]
    in_group = [n for n in stats if any(n == p or (p.endswith(".") and n.startswith(p))
                                        for p in predicted)]
    group_s = sum(stats[n]["self_s"] for n in in_group)
    rival = max((item for item in ranked if item[0] not in in_group),
                key=lambda item: item[1]["self_s"], default=("none", {"self_s": 0.0}))
    verdict = "confirmed" if group_s > rival[1]["self_s"] else "NOT confirmed"
    lines.append(f"  predicted dominant layer {' + '.join(predicted)}: {verdict} "
                 f"({group_s / total if total else 0:.1%} of traced time; largest other "
                 f"{rival[0]} {rival[1]['self_s'] / total if total else 0:.1%})")
    silent = [t for t, (_hook, home) in tracer.TARGETS.items()
              if home == workload and stats.get(t, {}).get("calls", 0) == 0]
    lines.append("  wrappers this workload must reach: "
                 + ("all fired" if not silent else "NOT FIRED: " + ", ".join(silent)))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = workloads.requests(workload, seed)
    reference = json.loads(REFERENCE.read_text())
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    lines = [f"{workload} seed={seed} trace={int(trace)} requests={len(requests)}"]
    record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
              "python": sys.version.split()[0], "blas_threads": BLAS_THREADS,
              "requests": requests}

    if trace:
        untraced = run_pass(requests, env)
        spans_file = OUT / f"spans-{tag}.jsonl"
        traced = run_pass(requests, env, spans_file)
        passes = [untraced, traced]
        stats = traced["layers"]
        metrics = tracer.layer_metrics(stats)
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        lines.append(f"  tracing overhead: traced wall_s {traced['wall_s']:.3f} s - untraced "
                     f"wall_s {untraced['wall_s']:.3f} s = {metrics['trace.overhead_s']:.3f} s")
        lines += trace_report(workload, stats)
        record.update(layers=stats, patched=traced["patched"],
                      spans_file=str(spans_file.relative_to(ROOT)))
        units = {name: unit for name, unit, _better in tracer.LAYER_METRICS}
    else:
        time_setup(env)  # untimed: compiles the bytecode cache, which a user pays once
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            # set-up samples spread over the run see the same machine drift as the passes
            setup += [time_setup(env) for _ in range(SETUP_SAMPLES_PER_PASS)]
            passes.append(run_pass(requests, env))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        samples = {
            "wall_s": summary([p["wall_s"] for p in passes]),
            "setup_s": summary(setup),
            "peak_rss_mb": summary([p["peak_rss_kb"] / 1024 for p in passes]),
        }
        metrics = {name: s["median"] for name, s in samples.items()}
        # Time per request list over the whole run, the inverse of throughput.  The
        # machine drifts between a fast and a slow state over tens of seconds, and
        # across runs this mean spread 20-35% less than the median of the passes.
        metrics["wall_s"] = statistics.fmean(samples["wall_s"]["values"])
        for name, s in samples.items():
            how = f"mean of {s['n']}; median {s['median']:.4f}" if name == "wall_s" else (
                f"median of {s['n']}")
            lines.append(f"  {name} = {metrics[name]:.4f} {END_TO_END_UNITS[name]} "
                         f"({how}; quartiles {s['q1']:.4f}..{s['q3']:.4f})")
        record["samples"] = samples
        units = END_TO_END_UNITS

    verdict = gate_passes(passes, reference)
    failed_frac = verdict["failed"] / verdict["attempted"]
    lines.append(f"  failed_frac = {failed_frac:.4f} fraction ({verdict['failed']} of "
                 f"{verdict['attempted']} requests; {verdict['failed_known']} due to known defects)")
    lines += [f"    {count} x {reason}" for reason, count in sorted(verdict["reasons"].items())]
    record.update(numpy=passes[0]["numpy"], verdict=verdict, failed_frac=failed_frac,
                  request_seconds=[[r["seconds"] for r in p["requests"]] for p in passes],
                  metrics=metrics)
    record_file = OUT / f"record-{tag}.json"
    record_file.write_text(json.dumps(record, indent=1))
    lines.append(f"  run record: {record_file.relative_to(ROOT)}")
    print("\n".join(lines), flush=True)
    return {
        "correct": verdict["failed"] == verdict["failed_known"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specbound" / "cli.py").is_file():
        print(f"error: no specbound sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
