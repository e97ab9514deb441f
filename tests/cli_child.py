"""Run the command line, or an import, in a fresh interpreter and read what it
reports about itself."""

import json
import os
import subprocess
import sys

import specbound

# after ``cli.main`` returns, the child writes its own high-water mark
# (``VmHWM:  <kB> kB``) as the last line of stderr.  ru_maxrss taken by the
# parent would also count the pages the child shared with it before exec
REPORT_PEAK_RSS = ("with open('/proc/self/status') as status:\n"
                   "    sys.stderr.write(next(l for l in status if l.startswith('VmHWM:')))\n")


def _child_env(**extra) -> dict:
    src = os.path.dirname(os.path.dirname(specbound.__file__))
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(argv, report: str, **kwargs) -> subprocess.CompletedProcess:
    """``specbound argv`` on one BLAS thread; ``report`` runs after ``cli.main``."""
    env = _child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = ("import sys\n"
             "from specbound import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             f"{report}"
             "sys.exit(code)\n")
    return subprocess.run([sys.executable, "-c", child, *argv], env=env, text=True, **kwargs)


def loaded_after_import(module: str, candidates: list[str]) -> list[str]:
    """The ``candidates``, full module names, that importing ``specbound.<module>`` loads,
    in a fresh interpreter."""
    code = ("import json, sys\n"
            f"import specbound.{module}\n"
            f"print(json.dumps([m for m in {candidates!r} if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def peak_rss_kb(proc: subprocess.CompletedProcess) -> int:
    """The child's peak resident set, from its ``REPORT_PEAK_RSS`` line."""
    return int(proc.stderr.split()[-2])
