"""Run one request list in this fresh interpreter; print the outcome as one JSON line.

Usage: PYTHONPATH=SRC_DIR python3 pass_worker.py [SPANS_FILE] < requests.json

Each request goes through ``specbound.cli.main`` with ``--format json``, as a
CLI call would.  With SPANS_FILE given, the public functions of the package are
wrapped by ``tracer.install`` first, and the spans are written there at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_request(main, argv: list[str]) -> dict:
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv + ["--format", "json"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
        error = "usage error"
    except Exception as exc:  # a CLI user would see this traceback; record it as a failure
        code = 1
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = None
    return {"argv": argv, "exit": code, "error": error, "seconds": seconds, "report": report}


def main() -> int:
    spans_file = sys.argv[1] if len(sys.argv) > 1 else None
    requests = json.load(sys.stdin)
    from specbound import cli

    outcome = {"numpy": sys.modules["numpy"].__version__}
    if spans_file:
        import tracer
        trace = tracer.Tracer()
        outcome["patched"] = tracer.install(trace)
        results = []
        for request_id, argv in enumerate(requests):
            trace.request_id = request_id
            results.append(trace.span("request", run_request, cli.main, argv))
        outcome["layers"] = trace.layer_stats()
        trace.write_spans(spans_file)
    else:
        results = [run_request(cli.main, argv) for argv in requests]
    outcome["requests"] = results
    outcome["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(outcome) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
