"""Named verification suites: every structural identity and inequality the
dimension-bound machinery relies on, run with explicit residuals.

Each suite returns a flat list of :class:`CheckResult`; a suite passes iff all
its checks do.  No check samples: each one runs at its exact worst case or on a
fixed grid that covers its domain, so a report depends on its sizes alone.
The martingale suite runs the checks of :mod:`gv_martingale` and synthesizes nothing.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import gv_martingale as gv
from . import kappa_bound as kb
from . import riesz_products as rp
from . import zq_spectral as zq
from .errors import InvalidInputError, check_budget, shown

FD_STEPS = np.array([1e-2, 1e-3, 1e-4])
FD_Q_MAX = 8  # largest q whose kappa'(1) gets the difference-quotient checks
# vertex-subset solves, sum of C(q, d_B) over the symmetric B that the kappa
# suite enumerates exhaustively (bands solve none): q_max 16 needs 2560269
# (9-13 s on a 2-core VM), q_max 17 needs 5766402 and is refused
MAX_KAPPA_SUBSETS = 3 * 10 ** 6
SINGLE_STEP_P = np.array([1.1, 1.25, 2.0, 4.0, 5.0])  # exponents of the single-step check


class CheckResult(NamedTuple):
    """Passes when its residual is at most its bound (so NaN fails) or is None (no cases)."""

    name: str
    residual: float | None
    bound: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual is None or bool(self.residual <= self.bound)

    def as_dict(self) -> dict:
        """JSON-safe view: a non-finite residual becomes None, noted in detail."""
        residual, detail = self.residual, self.detail
        if residual is not None and not math.isfinite(residual):
            detail = f"{detail} (residual {float(residual)} is not finite)".lstrip()
            residual = None
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": None if residual is None else float(residual),
            "bound": float(self.bound),
            "detail": detail,
        }


def symmetric_residue_sets(q: int):
    """All reflection-closed subsets of 1..q-1, the empty set first, enumerated
    deterministically."""
    orbits = []
    for m in range(1, q // 2 + 1):
        orbits.append((m,) if 2 * m == q else (m, q - m))
    for r in range(len(orbits) + 1):
        for combo in itertools.combinations(orbits, r):
            yield zq.ResidueSet(q, [x for orbit in combo for x in orbit])


def _worst(name: str, entries: list[tuple[float, str]], bound: float) -> CheckResult:
    """Collapse per-case residuals into one check, keeping the largest (a NaN first)."""
    if not entries:
        return CheckResult(name, None, bound, "no cases")
    residual, detail = entries[int(np.argmax([v for v, _ in entries]))]
    return CheckResult(name, residual, bound, detail)


# ---------------------------------------------------------------------------
# kappa suite: polytope geometry, bound dominance, derivative sandwich
# ---------------------------------------------------------------------------

def kappa_suite(q_max: int = 10) -> list[CheckResult]:
    """Polytope, bound and derivative checks for every symmetric B with q <= ``q_max``.

    The feasibility, subspace-membership and single-step checks read the
    rows of :func:`kb.representatives`, which kappa and kappa'(1) maximize
    over: one vertex per dihedral orbit for a band, the vertex set for any
    other B.  A band passes the first two on its representatives exactly when
    every vertex does.  Each map j -> c +- j permutes the coordinates, so it
    keeps min v, and W_B is invariant under it because B is symmetric, so it
    keeps the distance to W_B.

    The single-step check states ||1 + b||_p <= e^kappa(1/p), the power mean
    of 1 + b on the left, at every representative b and every p in
    ``SINGLE_STEP_P``, with ``kb.SLACK`` and a 1e-15 floor; its residual is
    the worst excess of the left side over the slackened right, and its
    detail names the B and p.  The power mean is convex in b, so over the
    polytope it peaks at a vertex, and it is symmetric in the coordinates, so
    that vertex can be taken among the representatives: this is the exact
    worst case.  One :func:`kb.kappa` call per B takes the 1/p and, for
    q <= ``FD_Q_MAX``, the three 1 - h of ``FD_STEPS``, so each B's
    representatives are read once for all its exponents.

    Raises :class:`ResourceLimitError` before any enumeration once the C(q, d_B)
    vertex-subset solves of the B that are not bands add up to over
    ``MAX_KAPPA_SUBSETS`` (3e6).  A symmetric B has d_B = |B|.
    """
    if q_max < 3:
        raise InvalidInputError(f"kappa suite needs q_max >= 3, got {shown(q_max)}")
    solves = 0
    for q in range(3, q_max + 1):
        solves += sum(math.comb(q, len(b.members))
                      for b in symmetric_residue_sets(q)
                      if kb.band_multiplier(b) is None)
        check_budget(f"kappa-suite vertex-subset solves up to q={q}", solves, MAX_KAPPA_SUBSETS)
    feasibility: list[tuple[float, str]] = []
    membership: list[tuple[float, str]] = []
    witness: list[tuple[float, str]] = []
    dominance: list[tuple[float, str]] = []
    strictness: list[tuple[float, str]] = []
    positivity: list[tuple[float, str]] = []
    fd_monotone: list[tuple[float, str]] = []
    fd_close: list[tuple[float, str]] = []
    single_step: list[tuple[float, str]] = []
    monotone_b: list[tuple[float, str]] = []

    for q in range(3, q_max + 1):
        bounds: dict[frozenset, float] = {}
        for b in symmetric_residue_sets(q):
            tag = f"q={q} B={sorted(b.members)}"
            polytope = kb.FeasiblePolytope.from_residues(b)
            vertices = np.concatenate([np.zeros((0, q)), *kb.representatives(polytope)])
            thetas = np.concatenate((1.0 / SINGLE_STEP_P, 1.0 - FD_STEPS if q <= FD_Q_MAX else []))
            kappas = kb.kappa(thetas, polytope)
            if len(vertices):
                off = np.linalg.norm(polytope.basis.project_off(vertices.T), axis=0)
                feasibility.append((float((-1.0 - vertices.min())), tag))
                membership.append((float(off.max()), tag))
                rhs = np.exp(kappas[:len(SINGLE_STEP_P)]) * (1.0 + kb.SLACK) + 1e-15
                excess = (kb.power_mean(1.0 + vertices.T, SINGLE_STEP_P) - rhs[:, None]).max(axis=1)
                single_step += [(float(e), f"{tag} p={p}") for e, p in zip(excess, SINGLE_STEP_P)]
            result = kb.dimension_bound(b)
            re_eval = -np.sum(kb.xlogx(np.clip(1.0 + np.array(result.witness_vertex), 0, None))) / q
            witness.append((abs(re_eval - result.kappa_prime_1), tag))
            dominance.append((result.subgroup_bound - result.bound, tag))
            if result.proper_inclusion:
                strictness.append((result.subgroup_bound - result.bound, tag))
            if set(b.members) != set(range(1, q)):
                positivity.append((-result.bound, tag))
            bounds[b.members] = result.bound

            if q <= FD_Q_MAX:
                # (kappa(1) - kappa(1-h))/h rises toward kappa'(1) as h shrinks, by convexity
                quotients = -kappas[len(SINGLE_STEP_P):] / FD_STEPS
                chain = [*quotients, result.kappa_prime_1]
                drift = max(chain[i] - chain[i + 1] for i in range(len(chain) - 1))
                fd_monotone.append((drift, tag))
                fd_close.append((abs(quotients[-1] - result.kappa_prime_1), tag))

        for small, small_bound in bounds.items():
            for large, large_bound in bounds.items():
                if small < large:
                    monotone_b.append((large_bound - small_bound,
                                       f"q={q} {sorted(small)} subset of {sorted(large)}"))

    checks = [
        _worst("kappa/vertex_feasibility", feasibility, 1e-10),
        _worst("kappa/vertex_subspace_membership", membership, 1e-10),
        _worst("kappa/witness_reproduces_value", witness, 1e-12),
        _worst("kappa/bound_dominates_subgroup", dominance, 1e-12),
        _worst("kappa/strict_gain_when_proper", strictness, -1e-6),
        _worst("kappa/positive_bound_off_full_set", positivity, -1e-12),
        _worst("kappa/fd_quotients_increase_to_derivative", fd_monotone, 1e-10),
        _worst("kappa/fd_quotient_close_at_1e-4", fd_close, 1e-3),
        _worst("kappa/single_step_reformulation", single_step, 0.0),
        _worst("kappa/monotone_in_residue_set", monotone_b, 1e-12),
        _counterexample_check(),
    ]
    return checks


def _counterexample_check(q: int = 4, l: int = 1) -> CheckResult:
    """Complex atomic measure whose spectrum is restricted yet has dimension zero:
    documents that non-negativity is a necessary hypothesis of the bounds.  The
    residual is at most 0 when every weight has modulus within 1e-12 of 1/q and
    some |imaginary part| is at least 0.1/q; each frequency outside C_B adds 1."""
    spec = zq.counterexample_measure(q, l)
    outside_cb = int(np.sum(~zq.in_cb(spec.frequencies, zq.ResidueSet(q, [l]))))
    # the inverse transform on Z_q of the indicator of residue l
    weights = np.exp(2j * np.pi * l * np.arange(q) / q) / q
    uniform = float(np.max(np.abs(np.abs(weights) - 1.0 / q)))
    # weights must be genuinely complex, not just off the non-negative cone
    margin = max(uniform - 1e-12, 0.1 / q - float(np.max(np.abs(weights.imag)))) + outside_cb
    detail = (
        f"complex measure with spectrum in the class {l} mod {q}: {q} atoms of "
        f"modulus 1/{q}, not non-negative, dimension 0 -- the restricted-spectrum "
        f"dimension bound needs non-negativity"
    )
    return CheckResult("kappa/counterexample_needs_nonnegativity", margin, 0.0, detail)


# ---------------------------------------------------------------------------
# riesz identity suite: closed forms, quadrature identity, auxiliary lemmas
# ---------------------------------------------------------------------------

def riesz_identity_suite(q_max: int = 16) -> list[CheckResult]:
    """Closed forms, the quadrature identity and the auxiliary lemmas of the Riesz product.

    The sum-integral identity, the Chebyshev factorization and the prop4 report
    take the even q in 4..q_max, the factorization at 1001 evenly spaced
    amplitudes in [-1, 1].  ``q_max`` must lie in 4..512, checked before any
    quadrature.  That keeps a margin below q = 894, where the factorization's
    running node product falls to subnormal floats and its mismatch first
    exceeds the 1e-9 bound; for every even q <= 512 the mismatch on the grid
    is at most 5.5e-12 (at q = 486), and the identity residual is 2.8e-14 at
    q = 512.  The vertex-solver cross-check and the endpoint optimality take
    q = 3..min(q_max, 12), prop5 q = 3..max(q_max, 32), the fan main term
    q = 8, 16, ..., 128.  The 1-Lipschitz check compares every neighbouring
    pair of 20001 evenly spaced amplitudes in [-1, 1]: when no neighbouring
    pair exceeds its distance, the triangle inequality gives that for every
    pair of grid points.
    """
    if not 4 <= q_max <= 512:
        raise InvalidInputError("riesz identities need q_max in 4..512, past which the Chebyshev "
                                f"node product underflows, got q_max={shown(q_max)}")
    amplitudes = np.linspace(-1.0, 1.0, 1001)
    identity = [(rp.chebyshev_identity_residual(q), f"q={q}")
                for q in range(4, q_max + 1, 2)]
    factorization = [(rp.chebyshev_product_relerr(q, amplitudes), f"q={q}")
                     for q in range(4, q_max + 1, 2)]
    cross: list[tuple[float, str]] = []
    endpoint: list[tuple[float, str]] = []
    for q in range(3, min(q_max, 12) + 1):
        # built without its residue set, the polytope is enumerated by the
        # exhaustive solver, independent of the sine products a band takes
        polytope = kb.FeasiblePolytope(zq.wb_basis(zq.ResidueSet(q, [1, q - 1])))
        cross.append((abs(rp.kappa_prime_riesz(q) - kb.kappa_prime_1(polytope).value), f"q={q}"))
        endpoint.append((rp.endpoint_optimality_gap(q), f"q={q}"))

    deriv = rp.g_derivative_bound_check()
    lipschitz = deriv.lipschitz_constant
    grid = np.linspace(-1.0, 1.0, 20001)
    lip_excess = float(np.max(np.abs(np.diff(rp.factor_entropy(grid))) - np.diff(grid)))
    fan = [(rp.fan_gap(params, rp.bound_theorem3(params.q), rp.fan_main_term(params)),
            f"q={params.q}") for params in (rp.RieszParams(1.0, q) for q in (8, 16, 32, 64, 128))]
    prop5_dom = [(rp.bound_prop5(q) - rp.bound_theorem3(q), f"q={q}")
                 for q in range(3, max(q_max, 32) + 1)]
    prop4_gaps = {q: rp.bound_prop4(q) - rp.bound_theorem3(q) for q in range(4, q_max + 1, 2)}
    prop4_residual = float(np.max([abs(gap - rp.prop4_gap(q)) for q, gap in prop4_gaps.items()]))
    return [
        _worst("riesz/sum_integral_identity", identity, 1e-7),
        _worst("riesz/chebyshev_factorization", factorization, 1e-9),
        _worst("riesz/closed_form_matches_vertex_solver", cross, 1e-9),
        _worst("riesz/entropy_objective_peaks_at_endpoints", endpoint, 1e-9),
        CheckResult("riesz/derivative_bounded_by_2",
                    deriv.sup_estimate, 2.0,
                    "exact sup of the factor-entropy derivative over |a| <= 1"),
        CheckResult("riesz/lipschitz_constant_in_window",
                    max(1.2 - lipschitz, lipschitz - 1.25), 0.0,
                    "sup of sin(x)(1 + log(1 + cos x)) on [0, pi/2]"),
        CheckResult("riesz/factor_entropy_1_lipschitz", lip_excess, 1e-6,
                    "neighbouring pairs of 20001 amplitudes in [-1, 1]"),
        _worst("riesz/fan_main_term_agreement", fan, rp.FAN_CONSISTENCY_ALLOWANCE),
        _worst("riesz/prop5_below_theorem3", prop5_dom, 1e-9),
        CheckResult("riesz/prop4_sign_discrepancy_report", prop4_residual, 1e-12,
                    "verbatim prop4 minus theorem3, as derived: " + ", ".join(
                        f"q={q}: {gap:+.6f}" for q, gap in prop4_gaps.items())),
    ]


# ---------------------------------------------------------------------------
# martingale suite: projections, differences, growth, set averages, sandwich
# ---------------------------------------------------------------------------

def martingale_suite(q: int = 3, a: float = 1.0, n: int = 6,
                     p: tuple[float, ...] = (1.25, 2.0, 4.0)) -> list[CheckResult]:
    """The martingale checks on the Riesz product at (q, a) over the q**n grid.

    The growth check runs once at each exponent in ``p``, and the set-average
    chain once at each distinct exponent, with 1 replaced by 2 (the chain needs
    p > 1).  The chain checks every subset of the grid with one sort, so the
    grid's own size guard (``gv.MAX_GRID`` points) also bounds its work.  A
    repeated exponent raises :class:`InvalidInputError`: it would repeat its
    growth check.
    """
    seen: set[float] = set()
    for exponent in map(float, p):
        if exponent in seen:
            raise InvalidInputError(f"exponent {exponent} is repeated in p")
        seen.add(exponent)
    params = rp.RieszParams(a, q)
    b = zq.ResidueSet(q, [1, q - 1])
    grid = gv.QadicGrid(q, n)
    seq = gv.martingale_levels(rp.riesz_spectrum(params, n), grid)
    f = seq.class_values[grid.levels]
    sup = max(1.0, float(np.max(np.abs(f))))

    two_path = float(np.max(np.abs(
        f - rp.partial_product_values(params, n, grid.size)
    ))) / sup

    projection = [(gv.spectral_projection_check(seq, k) / sup, f"k={k}")
                  for k in range(grid.levels + 1)]

    direct_average = []
    for k in range(grid.levels + 1):
        direct = f.reshape(grid.size // q ** k, q ** k).mean(axis=0)
        direct_average.append(
            (float(np.max(np.abs(direct - seq.class_values[k]))) / sup, f"k={k}")
        )

    tree_sums = []
    for k in range(1, grid.levels + 1):
        # each atom's q differences summed along a contiguous row, pairwise, as the levels are
        sums = np.ascontiguousarray(seq.differences(k).T).sum(axis=1)
        tree_sums.append((float(np.max(np.abs(sums))) / sup, f"k={k}"))

    sibling_synthesis = gv.sibling_synthesis_check(seq) / sup
    membership = gv.wb_membership_check(seq, b) / sup
    nonneg = float(np.min([np.min(values) for values in seq.class_values]))

    chain_p = [exponent if exponent > 1 else 2.0 for exponent in map(float, p)]
    growth = {e: gv.growth_check(seq, b, e) for e in dict.fromkeys((*p, *chain_p))}
    growth_checks = []
    for exponent in p:
        report = growth[exponent]
        # np.min and np.minimum keep a NaN slack, so that it fails
        slack = float(np.min((report.worst_step_slack, report.worst_atom_slack, report.global_slack)))
        growth_checks.append(CheckResult(
            f"martingale/growth_p={exponent}", -slack, 0.0,
            f"kappa(1/p)={report.kappa_theta:.6f}; " + ("; ".join(report.failures) or "all steps and atoms pass"),
        ))

    chain_entries = []
    for exponent in dict.fromkeys(chain_p):
        chain = gv.set_average_check(seq, growth[exponent])
        chain_entries += [(-chain.hoelder_slack, f"#C={chain.hoelder_size} (p={exponent})"),
                          (-chain.growth_slack, f"#C={chain.growth_size} (p={exponent})")]

    sandwich_level = min(n, 4)
    sandwich = gv.phi_kernel_mass_sandwich(
        rp.riesz_spectrum(params, sandwich_level), gv.QadicGrid(q, sandwich_level)
    )

    return [
        CheckResult("martingale/two_path_sampling", two_path, 1e-10,
                    "factor product vs spectrum synthesis"),
        _worst("martingale/spectral_projection", projection, 1e-10),
        _worst("martingale/direct_average_agreement", direct_average, 1e-10),
        _worst("martingale/difference_vectors_sum_to_zero", tree_sums, 1e-12),
        CheckResult("martingale/sibling_synthesis_from_spectrum",
                    sibling_synthesis, 1e-10,
                    "inverse cyclic transform of the digit-filtered spectrum"),
        CheckResult("martingale/differences_in_admissible_subspace",
                    membership, 1e-10, f"B={sorted(b.members)}"),
        CheckResult("martingale/levels_nonnegative", -nonneg, 1e-10,
                    "non-negative source keeps every level non-negative"),
        *growth_checks,
        _worst("martingale/set_average_chain", chain_entries, 0.0),
        CheckResult("martingale/plateau_kernel_sandwich",
                    -float(np.minimum(sandwich.min_lower_margin, sandwich.min_upper_margin)), 1e-10,
                    f"worst grid point {sandwich.worst_point}"),
    ]


SUITES = {
    "kappa": kappa_suite,
    "riesz-identities": riesz_identity_suite,
    "martingale": martingale_suite,
}
