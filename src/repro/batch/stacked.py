"""Stacked assembly and solve of same-shape birth-death chains.

Given one :class:`~repro.batch.chains.ChainTemplate` and a ``(4, K)``
rate matrix (one column per group member), this module assembles the
``K`` transposed-generator systems as a single ``(K, size, size)``
array and solves them in one LAPACK gesv call via numpy's stacked
``np.linalg.solve``.

Bit-identity with the scalar path is engineered, not hoped for:

* every off-diagonal cell is written by exactly one edge, so a single
  fancy-index assignment reproduces the scalar ``matrix[o, t] += rate``
  (on a zero cell) exactly;
* diagonal cells accumulate their origin's edge rates sequentially in
  emission order via the template's slot schedule -- the same
  left-to-right float subtraction chain as the scalar loop;
* stacked ``np.linalg.solve`` on ``(K, n, n) x (K, n, 1)`` performs an
  independent LU solve per slice, bitwise equal to the scalar per-chain
  ``solve`` (the rhs is lifted to a column matrix because numpy >= 2
  treats a 2-D rhs as one matrix, not a stack of vectors);
* reductions (normalization total, unavailability, failure flux) are
  computed per member with the scalar's exact operation order:
  contiguous per-row ``.sum()`` for the normalizer, and zero-seeded
  ``np.cumsum`` rows for the state-ordered accumulations (cumsum is a
  strict left-to-right chain, matching ``acc += term`` loops).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..units import HOURS_PER_YEAR
from .chains import KIND_FAILURE, KIND_SPARE, ChainTemplate


def _assemble_into(template: ChainTemplate, rates: np.ndarray,
                   systems: np.ndarray) -> None:
    """Assemble one group's systems into a pre-zeroed ``(K, n, n)`` view.

    Each slice equals the scalar path's ``generator.T`` with the last
    row replaced by the normalization constraint.
    """
    size = template.size
    # (E, K): the scalar per-edge ``coeff * rate`` multiply, batched.
    vals = template.edge_coeff[:, None] * rates[template.edge_kind]
    # Off-diagonal of the *transposed* generator: cell (target, origin)
    # is owned by exactly one edge, so assignment == the scalar "+=" on
    # a fresh zero cell.
    systems[:, template.edge_target, template.edge_origin] = vals.T
    # Diagonal: subtract each origin's edge rates in emission order.
    for rows in template.diag_rows:
        origins = template.edge_origin[rows]
        systems[:, origins, origins] -= vals[rows].T
    # Replace the last balance equation with sum(pi) = 1.
    systems[:, size - 1, :] = 1.0


def assemble_systems(template: ChainTemplate,
                     rates: np.ndarray) -> np.ndarray:
    """Build the ``(K, size, size)`` stacked linear systems."""
    systems = np.zeros((rates.shape[1], template.size, template.size))
    _assemble_into(template, rates, systems)
    return systems


#: Byte budget of one assembled block of systems.  Larger size classes
#: are assembled and solved block by block, so no stack bigger than
#: this is ever allocated (stacks of several MB would otherwise stay in
#: the heap once glibc raises its mmap threshold).
_BLOCK_BYTES = 2 ** 20


def solve_size_class(groups: Sequence[Tuple[ChainTemplate, np.ndarray]]) \
        -> List[np.ndarray]:
    """Solve several same-size shape groups in stacked LAPACK calls.

    ``np.linalg.solve`` over a ``(K, n, n)`` stack factorizes each
    slice independently, so concatenating groups that share a matrix
    size changes nothing per member while amortizing the gufunc
    dispatch across every group in the class.  Members are solved in
    blocks of at most ``_BLOCK_BYTES`` of systems; each slice keeps its
    own LU factorization, so the block size never changes a result.
    Returns per-group ``(K_g, size)`` probability arrays in input
    order.

    Raises :class:`numpy.linalg.LinAlgError` when any member is
    singular or degenerate; the caller retries per group, then falls
    back to scalar solves (which reproduce the scalar least-squares /
    EvaluationError behavior exactly).
    """
    size = groups[0][0].size
    block = max(1, _BLOCK_BYTES // (size * size * 8))
    out = [np.empty((rates.shape[1], size)) for _, rates in groups]
    # One block's (group index, first member, end member) segments.
    segments: List[Tuple[int, int, int]] = []
    filled = 0
    for index, (_, rates) in enumerate(groups):
        count = rates.shape[1]
        low = 0
        while low < count:
            take = min(count - low, block - filled)
            segments.append((index, low, low + take))
            filled += take
            low += take
            if filled == block:
                _solve_block(groups, segments, filled, size, out)
                segments = []
                filled = 0
    if segments:
        _solve_block(groups, segments, filled, size, out)
    return out


def _solve_block(groups: Sequence[Tuple[ChainTemplate, np.ndarray]],
                 segments: Sequence[Tuple[int, int, int]], members: int,
                 size: int, out: List[np.ndarray]) -> None:
    """Assemble, solve and normalize one block into ``out``."""
    systems = np.zeros((members, size, size))
    start = 0
    for index, low, high in segments:
        template, rates = groups[index]
        _assemble_into(template, rates[:, low:high],
                       systems[start:start + high - low])
        start += high - low
    rhs = np.zeros((members, size))
    rhs[:, size - 1] = 1.0
    # numpy >= 2 treats a 2-D rhs as one matrix; lift to column vectors.
    solution = np.linalg.solve(systems, rhs[..., None])[..., 0]
    clipped = np.clip(solution, 0.0, None)
    for k in range(members):
        row = clipped[k]
        total = row.sum()
        if total <= 0:
            # Degenerate chain: re-solved per member via the scalar
            # path, which raises the exact scalar EvaluationError.
            raise np.linalg.LinAlgError(
                "stacked solve produced a zero vector")
        row /= total
    start = 0
    for index, low, high in segments:
        out[index][low:high] = clipped[start:start + high - low]
        start += high - low


def solve_stacked(template: ChainTemplate,
                  rates: np.ndarray) -> np.ndarray:
    """Steady-state probabilities, ``(K, size)``, scalar-bit-identical."""
    return solve_size_class([(template, rates)])[0]


def _ordered_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row left-to-right accumulation starting from 0.0.

    ``cumsum`` is a strict sequential chain; seeding with a zero column
    reproduces ``acc = 0.0; for x in row: acc += x`` bitwise (including
    the 0.0 + first-term step, which matters for signed zeros).
    """
    K, width = matrix.shape
    seeded = np.zeros((K, width + 1))
    seeded[:, 1:] = matrix
    return np.cumsum(seeded, axis=1)[:, -1]


def reduce_group(template: ChainTemplate, rates: np.ndarray,
                 probabilities: np.ndarray) \
        -> Tuple[np.ndarray, np.ndarray]:
    """Per-member (unavailability, failures_per_year) arrays.

    Replays the scalar mode loops: unavailability accumulates the down
    states in discovery order; the failure flux accumulates over *all*
    states in discovery order (the scalar loop also adds zero terms for
    fully-unmanned states, so the float chains match term for term).
    """
    down = probabilities[:, template.down_index]
    unavailability = _ordered_row_sums(down)
    failure_rates = rates[KIND_FAILURE][:, None]      # (K, 1)
    if template.kind == "inplace":
        # Scalar: ``probability * (n - r) * failure_rate`` -- left
        # associated, so multiply probabilities by the manned counts
        # first.
        contributions = (probabilities
                         * template.flux_manned[None, :]) * failure_rates
    else:
        # Scalar: ``probability * ((n-w)*fr + idle*sr)`` -- the term is
        # built first here.
        term = (template.flux_manned[None, :] * failure_rates
                + template.flux_idle[None, :] * rates[KIND_SPARE][:, None])
        contributions = probabilities * term
    flux = _ordered_row_sums(contributions)
    return unavailability, flux * HOURS_PER_YEAR
