"""Request lists for each benchmark workload, generated from a workload seed.

A request is the argument list of one ``specbound`` CLI call.  The seed only
chooses inputs; the program sees plain CLI arguments.  ``reference_key`` names
the stored reference a request's output is compared against.
"""

from __future__ import annotations

import random
from itertools import combinations

WORKLOADS = ("bound-halfband", "sweep-riesz", "verify-all", "martingale-deep")

SWEEP_Q = ("--q", "8..128", "--step", "x2")
# The seeded sweep amplitude is drawn from this grid, so that every amplitude
# the benchmark can send has a stored reference row set.
SWEEP_AMPLITUDES = tuple(f"{0.5 + 0.05 * i:.2f}" for i in range(10))
SEEDED_BOUND_Q = range(14, 19)
SEEDED_BOUND_PAIRS = 2
MARTINGALE_GRIDS = ((3, 8), (5, 6), (7, 5))


def half_band(q: int) -> tuple[int, ...]:
    """B = {+-1, ..., +-floor(q/4)} mod q."""
    h = q // 4
    return tuple(sorted({*range(1, h + 1), *(q - j for j in range(1, h + 1))}))


def pair_sets(q: int, pairs: int):
    """Every reflection-closed B made of ``pairs`` pairs {m, q-m} with 2m != q."""
    for combo in combinations(range(1, (q + 1) // 2), pairs):
        yield tuple(sorted({*combo, *(q - m for m in combo)}))


def _bound(q: int, b) -> list[str]:
    return ["bound", "--q", str(q), "--b", ",".join(str(m) for m in b)]


def _half_bands() -> list[list[str]]:
    return [_bound(16, half_band(16)), _bound(18, half_band(18))]


def _sweep(a: str) -> list[str]:
    return ["sweep", *SWEEP_Q, "--a", a]


def _martingale(seed: int, q: int, n: int) -> list[str]:
    return ["verify", "--suite", "martingale", "--seed", str(seed), "--q", str(q), "--n", str(n)]


def requests(workload: str, seed: int) -> list[list[str]]:
    """The request list one pass of ``workload`` sends, in order."""
    rng = random.Random(f"{workload}:{seed}")
    program_seed = rng.randrange(10 ** 6)
    if workload == "bound-halfband":
        reqs = _half_bands()
        for q in SEEDED_BOUND_Q:
            reqs.append(_bound(q, rng.choice(list(pair_sets(q, SEEDED_BOUND_PAIRS)))))
        return reqs
    if workload == "sweep-riesz":
        return [_sweep("1"), _sweep(rng.choice(SWEEP_AMPLITUDES))]
    if workload == "verify-all":
        return [["verify", "--suite", "all", "--seed", str(program_seed)]]
    if workload == "martingale-deep":
        return [_martingale(program_seed, q, n) for q, n in MARTINGALE_GRIDS]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def reference_key(argv: list[str]) -> str:
    """The request with its ``--seed`` removed: checks a seed drives keep their names."""
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token == "--seed":
            skip = True
        else:
            out.append(token)
    return " ".join(out)


def reference_requests() -> list[list[str]]:
    """Every request any seed can generate, up to its ``--seed`` value."""
    reqs = _half_bands()
    for q in SEEDED_BOUND_Q:
        reqs += [_bound(q, b) for b in pair_sets(q, SEEDED_BOUND_PAIRS)]
    reqs += [_sweep("1")] + [_sweep(a) for a in SWEEP_AMPLITUDES]
    reqs.append(["verify", "--suite", "all", "--seed", "0"])
    reqs += [_martingale(0, q, n) for q, n in MARTINGALE_GRIDS]
    return reqs
