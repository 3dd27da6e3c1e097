import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmix.shift import LpVector, apply_section, apply_shift, canonical_shift


class TestCanonicalModel:
    def test_cumulative_weights_telescope_exactly(self, chain):
        m = canonical_shift(2.5, p_exp=2.0, depth=64, chain=chain)
        assert m.W[4] == 32.0
        m2 = canonical_shift(1.0, p_exp=2.0, depth=16, chain=chain)
        assert np.array_equal(m2.W[1:], np.arange(1, 17, dtype=float))

    def test_divergent_weight_sum_rejected(self, chain):
        with pytest.raises(ValueError, match="diverges"):
            canonical_shift(0.4, p_exp=2.0, chain=chain)

    def test_alpha_at_most_half_rejected(self, chain):
        with pytest.raises(ValueError, match="1/2"):
            canonical_shift(0.5, p_exp=4.0, chain=chain)

    def test_seed_family_starts_with_zero_and_is_admissible(self, model2):
        assert model2.seed_values[0] == 0.0
        assert model2.seed_values[1] == 1.0
        assert model2.seed_values[2] == -1.0
        for n in range(1, model2.n_seeds + 1):
            assert abs(model2.seed(n)) ** model2.p_exp <= model2.chain.inner_at(n)

    def test_seed_values_are_dyadic(self, model2):
        for a in model2.seed_values:
            assert (a * 32.0) == int(a * 32.0)

    def test_weight_tail_sum_converges(self, model2):
        # partial sums of W^-p are Cauchy over the truncation
        s = np.cumsum(model2.W ** -model2.p_exp)
        assert s[-1] - s[len(s) // 2] < 1e-2


class TestOperator:
    def test_zero_steps_is_identity(self, model2):
        v = LpVector(scaled=np.array([1.0, 2.0, 3.0]), model=model2)
        assert apply_shift(model2, v, 0) is v

    def test_base_vector_is_annihilated(self, model2):
        v = LpVector(scaled=np.ones(1), model=model2)
        out = apply_shift(model2, v, 1)
        assert out.norm() == 0.0

    def test_single_step_ratio(self, chain):
        m = canonical_shift(2.0, depth=16, chain=chain)
        v = LpVector(scaled=np.array([0.0, 0.0, 0.0, m.W[3]]), model=m)  # y_3 = 1
        out = apply_shift(m, v, 1)
        assert out.coords()[2] == 9.0 / 4.0

    def test_section_at_zero_is_the_seed(self, model2):
        for n in (1, 2, 5):
            v = apply_section(model2, n, 0)
            assert v.coords()[0] == model2.seed(n)

    def test_section_depth_five(self, chain):
        m = canonical_shift(2.0, depth=16, chain=chain)
        v = apply_section(m, 2, 5)  # seed amplitude 1
        assert v.coords()[5] == 1.0 / 25.0

    def test_shift_of_section_is_shallower_section(self, model2):
        got = apply_shift(model2, apply_section(model2, 4, 7), 3)
        want = apply_section(model2, 4, 4)
        assert np.array_equal(got.scaled, want.scaled)

    def test_depth_beyond_truncation_rejected(self, model2):
        with pytest.raises(ValueError, match="truncation"):
            apply_section(model2, 2, model2.depth + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=256),
        m=st.integers(min_value=0, max_value=255),
    )
    def test_cocycle_identity_bitwise(self, model2, n, k, m):
        if m >= k:
            m = k - 1 if k > 1 else 0
        got = apply_shift(model2, apply_section(model2, n, k), m)
        want = apply_section(model2, n, k - m)
        assert np.array_equal(got.scaled, want.scaled)

    def test_full_unwind_recovers_seed(self, model2):
        for n, k in ((2, 13), (7, 200)):
            got = apply_shift(model2, apply_section(model2, n, k), k)
            assert got.coords()[0] == model2.seed(n)

    def test_envelope_dominates_section_norms(self, model2):
        # the orbit-norm bound inner(n) / W_k covers every admissible seed
        for n in (1, 2, 7, 20):
            for k in (1, 9, 128):
                actual = apply_section(model2, n, k).norm()
                assert actual <= model2.chain.inner_at(n) / model2.W[k] + 1e-15

    def test_section_norm_decay(self, model2):
        for n in (2, 3, 9):
            for k in (1, 7, 64, 256):
                v = apply_section(model2, n, k)
                want = abs(model2.seed(n)) / k**model2.alpha
                if want == 0.0:
                    assert v.norm() == 0.0
                else:
                    assert v.norm() == pytest.approx(want, rel=1e-12)


class TestDensityProxy:
    def test_dyadic_targets_reachable_by_section_sums(self, model2):
        # greedy per-coordinate match against the seed grid
        targets = [
            [0.5, 0.25, 0.0, -0.125],
            [-0.75, 0.0, 0.0625],
            [1.0, -0.5, 0.25, -0.125, 0.0625],
        ]
        delta = 0.1
        for t in targets:
            combo = np.zeros(len(t))
            for k, y in enumerate(t):
                if y == 0.0:
                    continue
                want_amp = y * model2.W[k]
                best = min(model2.seed_values, key=lambda a: abs(a - want_amp))
                combo[k] = best / model2.W[k]
            err = LpVector(scaled=(combo - np.array(t)) * model2.W[: len(t)], model=model2).norm()
            assert err < delta


def test_coords_roundtrip_and_csv(model2):
    v = LpVector(scaled=np.array([0.5, 0.0, 1.25]) * model2.W[:3], model=model2)
    assert v.coords().tolist() == [0.5, 0.0, 1.25]
