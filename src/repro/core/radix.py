"""Radix-based bias decomposition (Section 4.1) and floating-point handling (4.3).

The transformation at the heart of Bingo: every integer bias ``w`` is split
into the powers of two present in its binary representation,

    D(w) = { 2^k  |  w & 2^k != 0 },                      (Eq. 3)

and the sub-biases of all neighbours sharing bit position ``k`` are pooled
into radix group ``p_k`` whose total weight is

    W(p_k) = Σ_i (w_i & 2^k) = |G_k| * 2^k.               (Eq. 4)

Within one group every member carries the identical sub-bias ``2^k``, so
intra-group sampling is uniform and the only biased choice left is *which
group*, a set of at most ``K = ceil(log2(max_bias)) + 1`` alternatives.

Floating-point biases are handled by multiplying by an amortization factor
λ, radix-decomposing the integer part and pooling the leftover fractional
parts into one extra *decimal group* (Section 4.3).  λ is chosen so the
decimal group's share of total weight stays below ``1/d``, preserving O(1)
expected sampling time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import InvalidBiasError
from repro.utils.validation import check_bias

#: Upper bound on the number of radix groups (64-bit biases).
MAX_GROUPS = 64

#: Default amortization factor search cap (λ = 10^6 resolves micro-biases).
MAX_AMORTIZATION_EXPONENT = 6

#: Exclusive bound on a λ-scaled bias's integer part: the radix groups and
#: the whole-array build hold integer parts as int64.
SCALED_INTEGER_LIMIT = 2**63


def popcount(value: int) -> int:
    """Number of set bits in ``value`` — the number of groups a bias joins."""
    if value < 0:
        raise ValueError("popcount is only defined for non-negative integers")
    return bin(value).count("1")


def decompose_bias(bias: int) -> list[int]:
    """Equation (3): the bit positions ``k`` with ``bias & 2^k != 0``.

    Returns the positions (not the powers), sorted ascending, e.g.
    ``decompose_bias(5) == [0, 2]`` because ``5 = 2^0 + 2^2``.
    """
    if isinstance(bias, bool) or not isinstance(bias, int):
        raise InvalidBiasError(bias)
    if bias <= 0:
        raise InvalidBiasError(bias)
    positions = []
    value = bias
    position = 0
    while value:
        if value & 1:
            positions.append(position)
        value >>= 1
        position += 1
    return positions


def num_groups_for_bias(max_bias: int) -> int:
    """K, the number of radix groups needed for biases up to ``max_bias``."""
    if max_bias <= 0:
        raise InvalidBiasError(max_bias)
    return max_bias.bit_length()


def group_weights(biases: Sequence[int]) -> dict[int, int]:
    """Equation (4): total sub-bias per radix group for a bias multiset.

    Returns a mapping ``bit position -> W(p_k)``; positions whose group would
    be empty are omitted.
    """
    counts: dict[int, int] = {}
    for bias in biases:
        for position in decompose_bias(int(bias)):
            counts[position] = counts.get(position, 0) + 1
    return {position: count * (1 << position) for position, count in counts.items()}


def split_scaled_bias(bias: float, lam: float) -> tuple[int, float]:
    """Split ``bias * lam`` into (integer part, fractional part).

    The integer part feeds the radix groups; the fractional part goes to the
    decimal group.  Values whose fraction is negligibly small (absolute
    tolerance 1e-9 relative to the scaled bias) are snapped to integers so
    integer workloads never populate the decimal group.  An integer part of
    :data:`SCALED_INTEGER_LIMIT` or more raises :class:`InvalidBiasError`.
    """
    check_bias(bias)
    if lam <= 0:
        raise ValueError("amortization factor must be positive")
    scaled = bias * lam
    integer_part = int(math.floor(scaled))
    fraction = scaled - integer_part
    tolerance = 1e-9 * max(1.0, scaled)
    if fraction <= tolerance:
        fraction = 0.0
    elif fraction >= 1.0 - tolerance:
        integer_part += 1
        fraction = 0.0
    if integer_part >= SCALED_INTEGER_LIMIT:
        raise _unscalable(bias, lam)
    return integer_part, fraction


def _unscalable(bias: float, lam: float) -> InvalidBiasError:
    return InvalidBiasError(
        bias, f"bias scaled by lam={lam:g} must stay below 2**63"
    )


def split_scaled_arrays(biases, lam: float):
    """Vectorized :func:`split_scaled_bias` returning NumPy columns.

    Returns ``(integer_parts, fractions)``: an ``int64`` and a ``float64``
    array, elementwise identical to calling the scalar function on each
    bias — including the branch precedence of the tolerance snapping
    (snap-down to an integer is checked *before* snap-up, which matters
    once the scaled bias is large enough that the two tolerance windows
    overlap).  Invalid biases (non-positive / non-finite) and integer parts
    of :data:`SCALED_INTEGER_LIMIT` or more raise :class:`InvalidBiasError`.
    """
    import numpy as np

    if lam <= 0:
        raise ValueError("amortization factor must be positive")
    bias_array = np.ascontiguousarray(biases, dtype=np.float64)
    finite = np.isfinite(bias_array)
    if not finite.all() or (bias_array[finite] <= 0).any():
        check_bias(float(bias_array[~(finite & (bias_array > 0))][0]))
    scaled = bias_array * lam
    integer_parts = np.floor(scaled)
    fractions = scaled - integer_parts
    tolerance = 1e-9 * np.maximum(1.0, scaled)
    snap_down = fractions <= tolerance
    snap_up = ~snap_down & (fractions >= 1.0 - tolerance)
    integer_parts[snap_up] += 1.0
    fractions[snap_down | snap_up] = 0.0
    over = integer_parts >= SCALED_INTEGER_LIMIT
    if over.any():
        raise _unscalable(float(bias_array[over][0]), lam)
    return integer_parts.astype(np.int64), fractions


def split_scaled_biases(biases, lam: float):
    """:func:`split_scaled_arrays` as Python lists (the per-vertex insert form)."""
    integer_parts, fractions = split_scaled_arrays(biases, lam)
    return integer_parts.tolist(), fractions.tolist()


def choose_amortization_factor(
    biases: Sequence[float],
    *,
    max_exponent: int = MAX_AMORTIZATION_EXPONENT,
) -> float:
    """Pick λ = 10^m (smallest m) so the decimal group stays negligible.

    The paper requires ``W_D / (W_I + W_D) < 1/d`` so that the expected
    intra-group work remains O(1) even though the decimal group falls back to
    ITS / rejection sampling.  The search walks m = 0, 1, 2, ... and returns
    the first power of ten satisfying the criterion, or ``10^max_exponent``
    if none does (the benchmarks then still run, just with a slightly larger
    decimal share).

    ``biases`` may be any sequence or a ``float64`` array (the engines pass
    the graph's bias column).  Each candidate λ splits the whole column in
    one vectorized pass; both weight totals accumulate left to right
    (``np.cumsum`` is sequential), so λ is the one a per-bias loop picks.

    No λ pushes a bias past :data:`SCALED_INTEGER_LIMIT`: a λ is tried only
    after the one below it failed the criterion, which bounds every scaled
    bias under that λ by ``degree ** 2`` (the decimal weight is below
    ``degree`` and at least ``total / degree``).  A bias that overflows at
    λ = 1 raises :class:`InvalidBiasError`.
    """
    import numpy as np

    if not isinstance(biases, np.ndarray):
        for bias in biases:
            check_bias(bias)
    column = np.ascontiguousarray(biases, dtype=np.float64)
    degree = len(column)
    if degree == 0:
        return 1.0
    for exponent in range(max_exponent + 1):
        lam = 10.0 ** exponent
        integer_parts, fractions = split_scaled_arrays(column, lam)
        integer_weight = float(np.cumsum(integer_parts, dtype=np.float64)[-1])
        decimal_weight = float(np.cumsum(fractions)[-1])
        total = integer_weight + decimal_weight
        if total <= 0:
            continue
        if decimal_weight == 0.0 or decimal_weight / total < 1.0 / degree:
            return lam
    return 10.0 ** max_exponent


def exact_group_probability(biases: Sequence[int], position: int) -> float:
    """P(p_k) from Equation (5) for the given bias multiset."""
    weights = group_weights(biases)
    total = sum(weights.values())
    if total == 0:
        return 0.0
    return weights.get(position, 0) / total


def exact_selection_probability(biases: Sequence[int], index: int) -> float:
    """P(v_i) recovered through the factorization (Equation 7 / 8).

    Used by tests to confirm Theorem 4.1: the reconstructed probability must
    equal ``w_i / Σ w`` exactly.
    """
    weights = group_weights(biases)
    total = sum(weights.values())
    if total == 0:
        return 0.0
    bias = int(biases[index])
    probability = 0.0
    for position in weights:
        sub_bias = bias & (1 << position)
        if sub_bias:
            # P(p_k) * P(v_i | p_k) = (W_k / total) * (2^k / W_k) = 2^k / total
            probability += sub_bias / total
    return probability
