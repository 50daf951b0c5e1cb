"""Tests for floating-point bias handling (Section 4.3, Figure 7)."""

import pytest

from repro.core.radix import choose_amortization_factor
from repro.core.vertex_sampler import BingoVertexSampler
from repro.errors import InvalidBiasError
from tests.conftest import total_variation

#: The Figure 7 example: vertex 2 with floating-point biases.
FIGURE7_NEIGHBORS = [(1, 0.554), (4, 0.726), (5, 0.32)]


class TestFigure7Example:
    def test_group_structure(self):
        """λ=10 scales the biases to 5.54, 7.26, 3.20; integer parts 5, 7, 3."""
        sampler = BingoVertexSampler.from_neighbors(FIGURE7_NEIGHBORS, rng=1, lam=10.0)
        sizes = sampler.group_sizes()
        # 5 = 101b, 7 = 111b, 3 = 011b → group 2^0: {1,4,5}, 2^1: {4,5}, 2^2: {1,4}
        assert sizes == {0: 3, 1: 2, 2: 2}
        assert sampler.decimal_group_size() == 3

    def test_decimal_share_below_one_over_degree(self):
        sampler = BingoVertexSampler.from_neighbors(FIGURE7_NEIGHBORS, rng=1, lam=10.0)
        # Paper: W_D / (W_I + W_D) = 1/16 < 1/3.
        assert sampler.decimal_share() == pytest.approx(1.0 / 16.0, rel=1e-6)
        assert sampler.decimal_share() < 1.0 / len(sampler)

    def test_exact_probabilities_preserved(self):
        sampler = BingoVertexSampler.from_neighbors(FIGURE7_NEIGHBORS, rng=1, lam=10.0)
        total = sum(bias for _, bias in FIGURE7_NEIGHBORS)
        for candidate, bias in FIGURE7_NEIGHBORS:
            assert sampler.structure_probability(candidate) == pytest.approx(
                bias / total, rel=1e-9
            )

    def test_empirical_distribution(self):
        sampler = BingoVertexSampler.from_neighbors(FIGURE7_NEIGHBORS, rng=9, lam=10.0)
        empirical = sampler.empirical_distribution(40_000)
        assert total_variation(empirical, sampler.exact_probabilities()) < 0.02

    def test_auto_lambda_selection(self):
        biases = [bias for _, bias in FIGURE7_NEIGHBORS]
        lam = choose_amortization_factor(biases)
        assert lam == 10.0


class TestFloatUpdates:
    def test_insert_and_delete_with_fractions(self):
        sampler = BingoVertexSampler.from_neighbors(FIGURE7_NEIGHBORS, rng=2, lam=10.0)
        sampler.insert(7, 0.149)
        assert sampler.decimal_group_size() == 4
        sampler.delete(4)
        assert sampler.decimal_group_size() == 3
        total = 0.554 + 0.32 + 0.149
        assert sampler.structure_probability(7) == pytest.approx(0.149 / total, rel=1e-9)
        sampler.check_invariants()

    def test_integer_biases_with_lambda_produce_empty_decimal_group(self):
        sampler = BingoVertexSampler.from_neighbors([(0, 2), (1, 3)], rng=3, lam=10.0)
        assert sampler.decimal_group_size() == 0

    def test_mixed_integer_and_float_biases(self):
        sampler = BingoVertexSampler.from_neighbors(
            [(0, 2.5), (1, 4), (2, 0.75)], rng=4, lam=4.0
        )
        total = 2.5 + 4 + 0.75
        for candidate, bias in [(0, 2.5), (1, 4.0), (2, 0.75)]:
            assert sampler.structure_probability(candidate) == pytest.approx(bias / total)
        empirical = sampler.empirical_distribution(30_000)
        assert total_variation(empirical, sampler.exact_probabilities()) < 0.02

    def test_deletion_after_swap_keeps_decimal_indices_consistent(self):
        sampler = BingoVertexSampler.from_neighbors(
            [(0, 1.5), (1, 2.25), (2, 3.75), (3, 4.5)], rng=5, lam=2.0
        )
        sampler.delete(0)   # forces the tail neighbour to move into slot 0
        sampler.delete(2)
        sampler.check_invariants()
        remaining_total = 2.25 + 4.5
        assert sampler.structure_probability(1) == pytest.approx(2.25 / remaining_total)
        assert sampler.structure_probability(3) == pytest.approx(4.5 / remaining_total)


class TestUnscalableBias:
    """Every sampler insert path refuses a bias whose λ-scaled integer part
    reaches 2**63, and leaves the sampler as it was."""

    @staticmethod
    def _sampler():
        return BingoVertexSampler.from_neighbors([(1, 0.5), (2, 3.0)], rng=1, lam=1e6)

    def test_insert_refuses_and_keeps_state(self):
        sampler = self._sampler()
        with pytest.raises(InvalidBiasError):
            sampler.insert(9, 2e13)
        assert dict(sampler.candidates()) == {1: 0.5, 2: 3.0}
        sampler.check_invariants()

    @pytest.mark.parametrize("count", [1, 15, 16, 40])
    def test_insert_many_refuses_and_keeps_state(self, count):
        # Slices below 16 take the scalar split, the others the vector one.
        sampler = self._sampler()
        candidates = list(range(10, 10 + count))
        biases = [1.0] * (count - 1) + [2e13]
        with pytest.raises(InvalidBiasError):
            sampler.insert_many(candidates, biases)
        assert dict(sampler.candidates()) == {1: 0.5, 2: 3.0}
        sampler.check_invariants()
