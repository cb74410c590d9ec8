"""Constructive realization of feasible targets near a factor product.

Given an open pair ``(w1, w2)`` and a target ``z_tilde`` of admissible
rank near ``z = w1 @ w2``, produce perturbations ``(dw1, dw2)`` with
``(w1 + dw1) @ (w2 + dw2) == z_tilde`` exactly (to rounding): the
candidate of least norm that meets the target.  Only the radius
``delta0``, half the product's least nonzero singular value, is
certified; the witness is measured, not bounded.  It scales with the
target distance where a factor is full rank on its side or ``r = k``;
a completion along new directions (``r < k``, or the full-rank
completion) scales with its square root, even on rank-keeping targets.

The rank-deficient-regime pipeline:

1. rotate into the frame where the product is diagonal;
2. classify target columns into an independent block and a dependent
   block via the bounded-coefficient row-basis selection (applied to
   columns), checking that the diagonal pivot columns stay independent;
   the target's spectrum, taken once for its rank check, is rotated into
   the frame of step 1 rather than decomposed again;
3. complete the leading square block of the right factor to an
   invertible matrix using a scaled null-space basis of the left factor,
   read off the spectrum the openness check took;
4. read off both perturbations from closed forms, un-permute, rotate
   back, and verify the product equation.

In the full-rank regime a factor of full rank on its side is inverted
off its own spectrum; otherwise ``null_completion`` completes a factor
inside the other's null space in closed form, along the right singular
vectors it lacks, so it succeeds exactly where the openness flag says a
completion exists, with no seed and no retry; the SVD that verified the
completed factor's rank gives its pseudo-inverse.  Every spectrum of
``w1``, ``w2`` and the product, and each angle-ordered null basis, is
the one the openness check took.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    InputError,
    NotOpen,
    NumericalFailure,
    OpenMapError,
    RankInfeasible,
)
from .matrixio import as_matrix
from .numcore import DEFAULT_TOL, Spectrum, bounded_basis, certified_radius, spectrum
# read by perfbench's test_tracing_replaces_every_alias_and_restores_them
from .numcore import rank  # noqa: F401
from .openness import (
    REGIME_DEFICIENT,
    _openness_and_spectra,
    check_delta,
    draw_directions,
    null_completion,
    sample_feasible_target,
)


@dataclass
class RealizationWitness:
    """The least-norm candidate, measured; only ``delta0`` (``None``
    outside the rank-deficient regime) is certified."""

    delta_w1: np.ndarray
    delta_w2: np.ndarray
    target_residual: float
    delta_norm: float
    input_delta: float
    delta0: float | None = None


def _least_witness(candidates, pair, z_tilde, input_delta, tol, delta0):
    """The first witness of least ``delta_norm`` among the ``(dw1, dw2)`` of
    ``candidates`` whose product is within ``residual_abs · max(1, ‖z_tilde‖)``."""
    bound = tol.residual_abs * max(1.0, float(np.linalg.norm(z_tilde)))
    best, least = None, np.inf
    for dw1, dw2 in candidates:
        residual = float(np.linalg.norm((pair.w1 + dw1) @ (pair.w2 + dw2) - z_tilde))
        least = min(least, residual)
        norm = float(max(np.linalg.norm(dw1), np.linalg.norm(dw2)))
        if residual <= bound and (best is None or norm < best.delta_norm):
            best = RealizationWitness(dw1, dw2, residual, norm, float(input_delta), delta0)
    if best is None:
        raise NumericalFailure(f"realized product misses the target: least residual {least:.3e}")
    return best


def _pinv(u, sv, v):
    """The pseudo-inverse ``v diag(1/sv) uᵀ`` of ``u diag(sv) vᵀ`` with every
    ``sv`` counted nonzero, formed as ``np.linalg.pinv`` forms it."""
    return v @ ((1 / sv)[:, None] * u.T)


def _realize_full_rank(pair, z_tilde, input_delta, rep, sp1, sp2, null1, null2t, tol):
    """Direct completion in the regime where the image is everything, off
    the openness check's ``Spectrum`` of ``pair.w1`` and ``pair.w2`` and
    its ordered ``N(w1)`` and ``N(w2.T)``.  A factor of full rank on its
    side is inverted off its spectrum; else each flagged side is completed
    (the flags force ``k >= m``, or ``k >= n``) at five scales, and the
    least witness wins."""
    m, n = pair.m, pair.n
    w1, w2 = pair.w1, pair.w2
    r_delta = z_tilde - pair.product
    if rep.rank_w1 == m:
        dw2 = _pinv(sp1.u, sp1.s, sp1.v[:, :m]) @ r_delta
        return _least_witness([(np.zeros_like(w1), dw2)], pair, z_tilde, input_delta, tol, None)
    if rep.rank_w2 == n:
        dw1 = r_delta @ _pinv(sp2.u[:, :n], sp2.s, sp2.v)
        return _least_witness([(dw1, np.zeros_like(w2))], pair, z_tilde, input_delta, tol, None)

    # a one-sided completion exists by openness; scale it against the
    # target distance (rank-raising targets force sqrt-sized witnesses)
    nr = np.linalg.norm(r_delta)
    scales = sorted({np.sqrt(max(nr, 1e-300)) * 2.0**j for j in range(-2, 3)})
    flags = rep.condition_flags
    c1s = c2s = [None] * len(scales)
    if flags["w1_completion_exists"]:
        c1s = null_completion(w1.T, null2t, sp1.T, tol, scales=scales, transposed=True)
    if flags["w2_completion_exists"]:
        c2s = null_completion(w2, null1, sp2, tol, scales=scales)

    def candidates():
        for c1, c2 in zip(c1s, c2s):
            if c1 is not None:
                yield c1[0].T, _pinv(*c1[1:]) @ r_delta
            if c2 is not None:
                yield r_delta @ _pinv(*c2[1:]), c2[0]

    return _least_witness(candidates(), pair, z_tilde, input_delta, tol, None)


def _column_classification(st, sp_st_t, r, k, tol):
    """Permutation putting the pivot columns first, then the remaining
    independent columns, then fills up to k; returns (perm, coeff matrix
    for the far block over the first k columns).
    ``sp_st_t`` is the ``Spectrum`` of ``st.T``."""
    bb = bounded_basis(st.T, tol, sp_st_t)
    basis = list(bb.basis_rows)
    r_t = len(basis)
    if not set(range(r)).issubset(basis):
        raise IllConditioned(
            "a diagonal pivot column classified as dependent; the target "
            "perturbation is too large for a trustworthy classification"
        )
    rest_basis = [c for c in basis if c >= r]
    nonbasis = list(bb.nonbasis_rows)
    front = list(range(r)) + rest_basis + nonbasis[: k - r_t]
    far = nonbasis[k - r_t :]

    # coefficients of far columns over the basis columns, re-indexed to
    # positions inside the front block (zeros for the dependent fillers)
    a_bar = np.zeros((k, len(far)))
    a_bar[[front.index(col) for col in basis]] = bb.coeffs[k - r_t :].T
    return front + far, a_bar


def _realize_rank_deficient(pair, z_tilde, input_delta, sp, sp_z, sp1, tol):
    """``sp``, ``sp_z`` and ``sp1`` are the ``Spectrum`` of
    ``pair.product``, of ``z_tilde`` and of ``pair.w1``."""
    m, k, n = pair.m, pair.k, pair.n
    u, s, v, r = sp.u, sp.s, sp.v, sp.rank

    delta0 = certified_radius(s, r, input_delta)
    st = u.T @ z_tilde @ v
    # st.T = (v.T V_z) S_z (u.T U_z).T for z_tilde = U_z S_z V_z.T
    sp_st_t = Spectrum(v.T @ sp_z.v, sp_z.s, u.T @ sp_z.u, sp_z.rank, sp_z.ambiguous)
    perm, a_bar = _column_classification(st, sp_st_t, r, k, tol)
    c1 = st[:, perm[:k]]
    rhs = np.hstack([c1[:, :r] - np.eye(m, r) * s[:r], c1[:, r:]]).T

    # N(u.T @ w1) = N(w1), of dimension k - r: an open pair of this regime
    # has rank(w1) equal to the product rank
    nb = sp1.v[:, sp1.rank:]
    scales = [0.0]
    if r < k:
        # scale balancing the two perturbation blocks: the inverse of the
        # completed square factor acts as 1/scale on the new-rank block
        r2_norm = np.linalg.norm(c1[:, r:])
        scales = sorted(
            {np.sqrt(max(r2_norm, 1e-300)) * 2.0**j for j in range(-3, 4)}
            | {max(input_delta, 1e-300)}
        )
    w2b1 = (pair.w2 @ v)[:, :k]

    def candidates():
        for scale in scales:
            wt21 = np.zeros((k, k))
            wt21[:, r:] = scale * nb
            m_block = w2b1 + wt21
            try:
                w1b0 = np.linalg.solve(m_block.T, rhs).T
            except np.linalg.LinAlgError:
                continue
            dw2b = np.zeros((k, n))
            dw2b[:, perm] = np.hstack([wt21, m_block @ a_bar])
            yield u @ w1b0, dw2b @ v.T

    return _least_witness(candidates(), pair, z_tilde, input_delta, tol, delta0)


def realize(pair, z_tilde, tol=DEFAULT_TOL):
    """Realize ``z_tilde`` as a product of perturbed factors: the
    candidate of least ``delta_norm`` that meets the target.  Only
    ``delta0`` is certified; no bound on ``delta_norm`` is reported.

    Raises ``InputError`` when the target's shape is not the product's.
    Refuses with ``NotOpen`` when the point is not locally open,
    ``RankInfeasible`` when the target leaves the image of the map, and
    ``DeltaTooLarge`` when the target distance exceeds the certified
    radius ``delta0`` (reported on the error).
    """
    z_tilde = as_matrix(z_tilde, "z_tilde")
    if z_tilde.shape != (pair.m, pair.n):
        raise InputError(
            f"target shape {z_tilde.shape} does not match the product "
            f"shape {(pair.m, pair.n)}"
        )
    sp_z = spectrum(z_tilde, tol)
    if sp_z.rank > pair.rank_cap:
        raise RankInfeasible(
            f"target rank {sp_z.rank} exceeds the image bound {pair.rank_cap}"
        )
    report, sp1, sp2, spp, null1, null2t = _openness_and_spectra(pair, tol)
    if not report.open:
        raise NotOpen("the product map is not locally open at this pair")
    input_delta = float(np.linalg.norm(z_tilde - pair.product))
    if input_delta == 0.0:
        zeros = (np.zeros_like(pair.w1), np.zeros_like(pair.w2))
        return _least_witness([zeros], pair, z_tilde, 0.0, tol, None)
    if report.regime == REGIME_DEFICIENT:
        return _realize_rank_deficient(pair, z_tilde, input_delta, spp, sp_z, sp1, tol)
    return _realize_full_rank(
        pair, z_tilde, input_delta, report, sp1, sp2, null1, null2t, tol
    )


def measure_delta_ratio(pair, deltas, trials, tol=DEFAULT_TOL, seed=0):
    """Empirical proportionality constant between target distance and
    factor-perturbation size; one row per requested distance, whose
    targets come from ``draw_directions([seed, row], trials, ...)``."""
    for delta in deltas:
        check_delta(delta)
    z = pair.product
    table = []
    for d_idx, delta in enumerate(deltas):
        row = {
            "delta": float(delta),
            "trials": int(trials),
            "successes": 0,
            "max_ratio": None,
            "max_residual": 0.0,
            "errors": [],
        }
        g = draw_directions([seed, d_idx], trials, z.shape)
        for target in sample_feasible_target(z, pair.rank_cap, delta, g):
            try:
                wit = realize(pair, target, tol)
            except OpenMapError as exc:
                row["errors"].append(type(exc).__name__)
                continue
            row["successes"] += 1
            if wit.input_delta > 0:
                ratio = wit.delta_norm / wit.input_delta
                if row["max_ratio"] is None or ratio > row["max_ratio"]:
                    row["max_ratio"] = float(ratio)
            row["max_residual"] = max(row["max_residual"], wit.target_residual)
        table.append(row)
    return table
