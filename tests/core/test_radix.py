"""Tests for radix decomposition (Equations 3-4) and the floating-point helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidBiasError
from repro.core.radix import (
    choose_amortization_factor,
    decompose_bias,
    exact_group_probability,
    exact_selection_probability,
    group_weights,
    num_groups_for_bias,
    popcount,
    split_scaled_arrays,
    split_scaled_bias,
    split_scaled_biases,
)


class TestPopcount:
    @pytest.mark.parametrize("value,expected", [(0, 0), (1, 1), (5, 2), (255, 8), (256, 1)])
    def test_known_values(self, value, expected):
        assert popcount(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)


class TestDecompose:
    @pytest.mark.parametrize(
        "bias,positions",
        [(1, [0]), (2, [1]), (3, [0, 1]), (5, [0, 2]), (4, [2]), (12, [2, 3]), (255, list(range(8)))],
    )
    def test_known_decompositions(self, bias, positions):
        assert decompose_bias(bias) == positions

    @pytest.mark.parametrize("bias", [0, -3, 1.5, True, "4"])
    def test_invalid_biases_rejected(self, bias):
        with pytest.raises(InvalidBiasError):
            decompose_bias(bias)

    @given(bias=st.integers(min_value=1, max_value=1 << 40))
    @settings(max_examples=200, deadline=None)
    def test_decomposition_reconstructs_bias(self, bias):
        assert sum(1 << k for k in decompose_bias(bias)) == bias

    @given(bias=st.integers(min_value=1, max_value=1 << 40))
    @settings(max_examples=100, deadline=None)
    def test_group_count_matches_popcount(self, bias):
        assert len(decompose_bias(bias)) == popcount(bias)


class TestGroupWeights:
    def test_running_example_vertex2(self):
        """Paper Section 4.1: biases {5, 4, 3} give group weights 2, 2, 8."""
        weights = group_weights([5, 4, 3])
        assert weights == {0: 2, 1: 2, 2: 8}

    def test_empty_input(self):
        assert group_weights([]) == {}

    @given(biases=st.lists(st.integers(min_value=1, max_value=1 << 16), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_total_weight_preserved(self, biases):
        """Equation 4 conserves total bias: Σ_k W(p_k) == Σ_i w_i."""
        assert sum(group_weights(biases).values()) == sum(biases)

    def test_num_groups_for_bias(self):
        assert num_groups_for_bias(1) == 1
        assert num_groups_for_bias(5) == 3
        assert num_groups_for_bias(255) == 8
        with pytest.raises(InvalidBiasError):
            num_groups_for_bias(0)


class TestExactProbabilities:
    def test_group_probability_running_example(self):
        """P(2^2) = 8 / 12 for vertex 2 of the running example."""
        assert exact_group_probability([5, 4, 3], 2) == pytest.approx(8 / 12)
        assert exact_group_probability([5, 4, 3], 0) == pytest.approx(2 / 12)

    @given(biases=st.lists(st.integers(min_value=1, max_value=1 << 12), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_theorem_41_selection_probability(self, biases):
        """Theorem 4.1: the factorized probability equals w_i / Σ w exactly."""
        total = sum(biases)
        for index, bias in enumerate(biases):
            assert exact_selection_probability(biases, index) == pytest.approx(bias / total)


class TestFloatingPoint:
    def test_split_integer_bias_has_no_fraction(self):
        integer, fraction = split_scaled_bias(7, 1.0)
        assert integer == 7
        assert fraction == 0.0

    def test_split_paper_example(self):
        """Figure 7: bias 0.554 with λ=10 gives integer 5 and decimal 0.54."""
        integer, fraction = split_scaled_bias(0.554, 10.0)
        assert integer == 5
        assert fraction == pytest.approx(0.54, abs=1e-9)

    def test_split_snaps_tiny_fractions(self):
        integer, fraction = split_scaled_bias(3.0000000001, 1.0)
        assert integer == 3
        assert fraction == 0.0

    def test_split_rejects_invalid(self):
        with pytest.raises(InvalidBiasError):
            split_scaled_bias(0.0, 10.0)
        with pytest.raises(ValueError):
            split_scaled_bias(1.0, 0.0)

    def test_choose_amortization_integer_biases(self):
        assert choose_amortization_factor([1, 2, 3]) == 1.0

    def test_choose_amortization_paper_example(self):
        """Figure 7's biases resolve with λ = 10 (decimal share 1/16 < 1/3)."""
        lam = choose_amortization_factor([0.554, 0.726, 0.32])
        assert lam == 10.0

    def test_choose_amortization_keeps_decimal_share_small(self):
        biases = [0.101, 0.257, 0.33, 0.49, 0.73]
        lam = choose_amortization_factor(biases)
        integer = sum(split_scaled_bias(b, lam)[0] for b in biases)
        decimal = sum(split_scaled_bias(b, lam)[1] for b in biases)
        assert decimal / (integer + decimal) < 1.0 / len(biases)

    def test_choose_amortization_empty(self):
        assert choose_amortization_factor([]) == 1.0


class TestScaledIntegerBound:
    """A λ-scaled integer part must stay below 2**63 on every split path."""

    def test_scalar_split_refuses_integer_part_of_2_63_or_more(self):
        with pytest.raises(InvalidBiasError, match="2\\*\\*63"):
            split_scaled_bias(2e13, 1e6)
        with pytest.raises(InvalidBiasError):
            split_scaled_bias(2.0**63, 1.0)
        assert split_scaled_bias(9.2e18, 1.0) == (9_200_000_000_000_000_000, 0.0)

    def test_vector_split_refuses_instead_of_wrapping(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBiasError):
                split_scaled_arrays([1.0] * 15 + [2e13], 1e6)
            with pytest.raises(InvalidBiasError):
                split_scaled_biases([2e13] * 16, 1e6)
            integer_parts, fractions = split_scaled_arrays([0.5, 9.2e18], 1.0)
        assert integer_parts.tolist() == [0, 9_200_000_000_000_000_000]
        assert fractions.tolist() == [0.5, 0.0]

    def test_choose_amortization_refuses_a_bias_past_the_bound(self):
        with pytest.raises(InvalidBiasError):
            choose_amortization_factor([1.0, 1e19])

    @pytest.mark.parametrize(
        "bias, lam",
        [
            (float(np.nextafter(2.0**63, 0.0)), 1.0),
            (2.0**63, 1.0),
            (1e19, 1.0),
            (9.2e12, 1e6),
            (9.3e12, 1e6),
            (0.5, 1e6),
        ],
        ids=["just-below", "at-bound", "1e19", "9.2e12-at-1e6", "9.3e12-at-1e6", "small"],
    )
    def test_scalar_and_vector_splits_share_one_bound(self, bias, lam):
        try:
            expected = split_scaled_bias(bias, lam)
        except InvalidBiasError:
            with pytest.raises(InvalidBiasError):
                split_scaled_arrays([1.0, bias], lam)
            assert bias * lam >= 2.0**63
            return
        integer_parts, fractions = split_scaled_arrays([1.0, bias], lam)
        assert (integer_parts.tolist()[1], fractions.tolist()[1]) == expected
        assert expected[0] < 2**63
