"""Named verification suites: every structural identity and inequality the
dimension-bound machinery relies on, run with explicit residuals.

Each suite returns a flat list of :class:`CheckResult`; a suite passes iff all
its checks do.  Randomized checks draw from a single seeded generator so that
failures are reproducible from the reported configuration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gv_martingale as gv
from . import kappa_bound as kb
from . import riesz_products as rp
from . import zq_spectral as zq

FD_STEPS = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-safe view: a non-finite residual becomes None, noted in detail."""
        residual, detail = self.residual, self.detail
        if residual is not None and not math.isfinite(residual):
            detail = f"{detail} (residual {float(residual)} is not finite)".lstrip()
            residual = None
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": None if residual is None else float(residual),
            "detail": detail,
        }


def symmetric_residue_sets(q: int, nonempty: bool = True):
    """All reflection-closed subsets of 1..q-1, enumerated deterministically."""
    orbits = []
    for m in range(1, q // 2 + 1):
        orbits.append((m,) if 2 * m == q else (m, q - m))
    start = 1 if nonempty else 0
    for r in range(start, len(orbits) + 1):
        for combo in itertools.combinations(orbits, r):
            yield zq.ResidueSet.of(q, [x for orbit in combo for x in orbit])


def _worst(name: str, entries: list[tuple[float, str]], threshold: float,
           larger_is_worse: bool = True) -> CheckResult:
    """Collapse per-case residuals into one check, keeping the worst offender."""
    if not entries:
        return CheckResult(name, True, None, "no cases")
    values = [v for v, _ in entries]
    worst_ix = int(np.argmax(values)) if larger_is_worse else int(np.argmin(values))
    worst_val, worst_detail = entries[worst_ix]
    ok = worst_val <= threshold if larger_is_worse else worst_val >= threshold
    return CheckResult(name, bool(ok), worst_val, worst_detail)


# ---------------------------------------------------------------------------
# kappa suite: polytope geometry, bound dominance, derivative sandwich
# ---------------------------------------------------------------------------

def kappa_suite(q_max: int = 10, seed: int = 0, fd_q_max: int = 8) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    feasibility: list[tuple[float, str]] = []
    membership: list[tuple[float, str]] = []
    witness: list[tuple[float, str]] = []
    dominance: list[tuple[float, str]] = []
    strictness: list[tuple[float, str]] = []
    positivity: list[tuple[float, str]] = []
    fd_monotone: list[tuple[float, str]] = []
    fd_close: list[tuple[float, str]] = []
    reform: list[tuple[float, str]] = []
    monotone_b: list[tuple[float, str]] = []

    for q in range(3, q_max + 1):
        bounds: dict[frozenset, float] = {}
        for b in symmetric_residue_sets(q, nonempty=False):
            tag = f"q={q} B={sorted(b.members)}"
            polytope = kb.FeasiblePolytope.from_residues(b)
            vertices = polytope.vertex_set
            if len(vertices):
                off = np.linalg.norm(polytope.basis.project_off(vertices.T), axis=0)
                feasibility.append((float((-1.0 - vertices.min())), tag))
                membership.append((float(off.max()), tag))
            result = kb.dimension_bound(b)
            re_eval = -np.sum(kb.xlogx(np.clip(1.0 + np.array(result.witness_vertex), 0, None))) / q
            witness.append((abs(re_eval - result.kappa_prime_1), tag))
            dominance.append((result.subgroup_bound - result.bound, tag))
            if result.proper_inclusion:
                strictness.append((result.bound - result.subgroup_bound, tag))
            if set(b.members) != set(range(1, q)):
                positivity.append((result.bound, tag))
            bounds[b.members] = result.bound

            if q <= fd_q_max:
                quotients = [kb.kappa_left_derivative_fd(polytope, h) for h in FD_STEPS]
                # by convexity the quotients rise toward kappa'(1) as h shrinks
                chain = quotients + [result.kappa_prime_1]
                drift = max(chain[i] - chain[i + 1] for i in range(len(chain) - 1))
                fd_monotone.append((drift, tag))
                fd_close.append((abs(quotients[-1] - result.kappa_prime_1), tag))

            if len(vertices):
                for _ in range(3):
                    weights = rng.dirichlet(np.ones(len(vertices)))
                    b_vec = weights @ vertices
                    p = float(rng.uniform(1.1, 5.0))
                    ok = kb.def_reform_check(1.0, b_vec, p, polytope)
                    reform.append((0.0 if ok else 1.0, f"{tag} p={p:.3f}"))

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
        _worst("kappa/strict_gain_when_proper", strictness, 1e-6, larger_is_worse=False),
        _worst("kappa/positive_bound_off_full_set", positivity, 1e-12, larger_is_worse=False),
        _worst("kappa/fd_quotients_increase_to_derivative", fd_monotone, 1e-10),
        _worst("kappa/fd_quotient_close_at_1e-4", fd_close, 1e-3),
        _worst("kappa/single_step_reformulation", reform, 0.5),
        _worst("kappa/monotone_in_residue_set", monotone_b, 1e-12),
        _counterexample_check(),
    ]
    return checks


def _counterexample_check(q: int = 4, l: int = 1) -> CheckResult:
    """Complex atomic measure whose spectrum is restricted yet has dimension zero:
    documents that non-negativity is a necessary hypothesis of the bounds."""
    spec = zq.counterexample_measure(q, l)
    b = zq.ResidueSet.of(q, [l])
    outside = [n for n, _ in spec.items() if not zq.in_cb(int(n), b)]
    profile = np.array([1.0 if r == l else 0.0 for r in range(q)], dtype=complex)
    weights = zq.inverse_dft_zq(profile)
    atoms = int(np.sum(np.abs(weights) > 1e-12))
    uniform = float(np.max(np.abs(np.abs(weights) - 1.0 / q)))
    # weights must be genuinely complex, not just off the non-negative cone
    complex_weights = bool(np.max(np.abs(weights.imag)) > 0.1 / q)
    passed = not outside and atoms == q and uniform < 1e-12 and complex_weights
    detail = (
        f"complex measure with spectrum in the class {l} mod {q}: {atoms} atoms of "
        f"modulus 1/{q}, not non-negative, dimension 0 -- the restricted-spectrum "
        f"dimension bound needs non-negativity"
    )
    return CheckResult("kappa/counterexample_needs_nonnegativity", passed, uniform, detail)


# ---------------------------------------------------------------------------
# riesz identity suite: closed forms, quadrature identity, auxiliary lemmas
# ---------------------------------------------------------------------------

def riesz_identity_suite(q_max: int = 16, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    identity = [(rp.chebyshev_identity_residual(q), f"q={q}")
                for q in range(4, q_max + 1, 2)]
    factorization = [(rp.chebyshev_product_relerr(q, seed=seed), f"q={q}")
                     for q in range(4, q_max + 1, 2)]
    cross: list[tuple[float, str]] = []
    endpoint: list[tuple[float, str]] = []
    for q in range(3, min(q_max, 12) + 1):
        polytope = kb.FeasiblePolytope.from_residues(zq.ResidueSet.of(q, [1, q - 1]))
        cross.append((abs(rp.kappa_prime_riesz(q) - kb.kappa_prime_1(polytope).value), f"q={q}"))
        endpoint.append((rp.endpoint_optimality_gap(q), f"q={q}"))

    deriv = rp.g_derivative_bound_check()
    pairs = rng.uniform(-1.0, 1.0, size=(10_000, 2))
    lip_excess = float(np.max(
        np.abs(rp.factor_entropy(pairs[:, 0]) - rp.factor_entropy(pairs[:, 1]))
        - np.abs(pairs[:, 0] - pairs[:, 1])
    ))
    fan = [(abs(rp.bound_theorem3(q) - rp.fan_main_term(rp.RieszParams(1.0, q))) * q * math.log(q),
            f"q={q}") for q in (8, 16, 32, 64, 128)]
    prop5_dom = [(rp.bound_prop5(q) - rp.bound_theorem3(q), f"q={q}")
                 for q in range(3, max(q_max, 32) + 1)]
    prop4_gap = ", ".join(
        f"q={q}: {rp.bound_prop4(q) - rp.bound_theorem3(q):+.6f}" for q in range(4, q_max + 1, 2)
    )
    return [
        _worst("riesz/sum_integral_identity", identity, 1e-7),
        _worst("riesz/chebyshev_factorization", factorization, 1e-9),
        _worst("riesz/closed_form_matches_vertex_solver", cross, 1e-9),
        _worst("riesz/entropy_objective_peaks_at_endpoints", endpoint, 1e-9),
        CheckResult("riesz/derivative_bounded_by_2", deriv.sup_estimate <= 2.0,
                    deriv.sup_estimate, "grid sup of the factor-entropy derivative"),
        CheckResult("riesz/lipschitz_constant_in_window",
                    1.2 <= deriv.lipschitz_constant <= 1.25, deriv.lipschitz_constant,
                    "sup of sin(x)(1 + log(1 + cos x)) on [0, pi/2]"),
        CheckResult("riesz/factor_entropy_1_lipschitz", lip_excess <= 1e-6, lip_excess,
                    "10^4 random amplitude pairs"),
        _worst("riesz/fan_main_term_agreement", fan, 10.0),
        _worst("riesz/prop5_below_theorem3", prop5_dom, 1e-9),
        CheckResult("riesz/prop4_sign_discrepancy_report", True, None,
                    f"verbatim prop4 minus theorem3 (sign bookkeeping unresolved): {prop4_gap}"),
    ]


# ---------------------------------------------------------------------------
# martingale suite: projections, differences, growth, set averages, sandwich
# ---------------------------------------------------------------------------

def _dftlemma_residual(seq: gv.MartingaleSequence) -> float:
    """Rebuild every sibling-difference vector from the spectrum alone.

    At level k the difference vector over the children of parent class c is
    sum_{m=1}^{q-1} e_m(c) * omega_m with
    e_m(c) = sum over frequencies l = d * q**(N-k), d = m (mod q), q not | d,
    of c_l * exp(2*pi*i*l*c/q**N) = c_l * exp(2*pi*i*d*c/q**k); the
    reconstruction must match the averaged levels pointwise.  Since
    omega_m[j] = exp(2*pi*i*j*m/q) and d = m (mod q), entry j of the
    synthesized vector is sum_d c_l * exp(2*pi*i*d*(c + j*q**(k-1))/q**k): the
    length-q**k inverse DFT of the coefficients binned by d mod q**k, read at
    c + j*q**(k-1).  Memory is O(q**k), at most the grid size.
    """
    spec = seq.source
    grid = seq.grid
    q = grid.q
    freqs = spec.frequencies
    coeffs = spec.coefficients
    worst = 0.0
    for k in range(1, grid.levels + 1):
        step = q ** (grid.levels - k)
        period = q ** k
        d = freqs // step
        exact = (np.mod(freqs, step) == 0) & (np.mod(d, q) != 0)
        binned = np.zeros(period, dtype=complex)
        np.add.at(binned, np.mod(d[exact], period), coeffs[exact])
        synthesized = (np.fft.ifft(binned) * period).real.reshape(q, period // q)
        actual = seq.sibling_matrix(k) - seq.class_values[k - 1][None, :]
        worst = max(worst, float(np.max(np.abs(synthesized - actual))))
    return worst


def martingale_suite(q: int = 3, a: float = 1.0, depth: int = 6,
                     p_values: tuple[float, ...] = (1.25, 2.0, 4.0),
                     seed: int = 0, n_subsets: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    params = rp.RieszParams(a, q)
    b = zq.ResidueSet.of(q, [1, q - 1])
    grid = gv.QadicGrid(q, depth)
    spec = rp.riesz_spectrum(params, depth)
    f = gv.sample_on_grid(spec, grid)
    seq = gv.martingale_levels(f, grid, source=spec)
    sup = max(1.0, float(np.max(np.abs(f))))

    two_path = float(np.max(np.abs(
        f - rp.partial_product_values(params, depth, grid.size)
    ))) / sup

    projection = [(gv.spectral_projection_check(spec, grid, k, seq=seq) / sup, f"k={k}")
                  for k in range(grid.levels + 1)]

    direct_average = []
    leaf = seq.class_values[grid.levels]
    for k in range(grid.levels + 1):
        direct = leaf.reshape(grid.size // q ** k, q ** k).mean(axis=0)
        direct_average.append(
            (float(np.max(np.abs(direct - seq.class_values[k]))) / sup, f"k={k}")
        )

    tree_sums = []
    for k in range(1, grid.levels + 1):
        diffs = seq.sibling_matrix(k) - seq.class_values[k - 1][None, :]
        tree_sums.append((float(np.max(np.abs(diffs.sum(axis=0)))) / sup, f"k={k}"))

    sibling_synthesis = _dftlemma_residual(seq) / sup
    membership = gv.wb_membership_check(seq, b) / sup
    nonneg = float(min(np.min(seq.class_values[k]) for k in range(grid.levels + 1)))

    growth_checks = []
    for p in p_values:
        report = gv.growth_check(seq, b, p)
        slack = min(report.worst_step_slack, report.worst_atom_slack, report.global_slack)
        growth_checks.append(CheckResult(
            f"martingale/growth_p={p}", report.passed, -slack,
            f"kappa(1/p)={report.kappa_theta:.6f}; " + ("; ".join(report.failures) or "all steps and atoms pass"),
        ))

    subset_entries = []
    for i in range(n_subsets):
        count = int(rng.integers(1, grid.size))
        subset = rng.choice(grid.size, size=count, replace=False)
        p = float(p_values[i % len(p_values)])
        report = gv.set_average_check(seq, subset, p if p > 1 else 2.0, b)
        margin = min(report.hoelder_rhs - report.average, report.growth_rhs - report.hoelder_rhs)
        subset_entries.append((0.0 if report.passed else 1.0, f"subset {i} (#C={count}, margin={margin:.3e})"))

    sandwich_level = min(depth, 4)
    sandwich = gv.phi_kernel_mass_sandwich(
        rp.riesz_spectrum(params, sandwich_level), sandwich_level
    )

    return [
        CheckResult("martingale/two_path_sampling", two_path <= 1e-10, two_path,
                    "factor product vs spectrum synthesis"),
        _worst("martingale/spectral_projection", projection, 1e-10),
        _worst("martingale/direct_average_agreement", direct_average, 1e-10),
        _worst("martingale/difference_vectors_sum_to_zero", tree_sums, 1e-12),
        CheckResult("martingale/sibling_synthesis_from_spectrum",
                    sibling_synthesis <= 1e-10, sibling_synthesis,
                    "inverse cyclic transform of the digit-filtered spectrum"),
        CheckResult("martingale/differences_in_admissible_subspace",
                    membership <= 1e-10, membership, f"B={sorted(b.members)}"),
        CheckResult("martingale/levels_nonnegative", nonneg >= -1e-10, -nonneg,
                    "non-negative source keeps every level non-negative"),
        *growth_checks,
        _worst("martingale/set_average_chain", subset_entries, 0.5),
        CheckResult("martingale/plateau_kernel_sandwich", sandwich.passed,
                    -min(sandwich.min_lower_margin, sandwich.min_upper_margin),
                    f"worst grid point {sandwich.worst_point}"),
    ]


SUITES = {
    "kappa": kappa_suite,
    "riesz-identities": riesz_identity_suite,
    "martingale": martingale_suite,
}
