import numpy as np
import pytest

from flowcast.clustering import agglomerate, embed_stations
from flowcast.cp import AlsConfig, cp_fit
from flowcast.synthetic import SyntheticSpec, generate_synthetic, planted_labels
from flowcast.tensor_ops import cp_reconstruct, relative_residual


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = SyntheticSpec()
        assert spec.extents == (12, 56, 48)
        assert spec.rank == 6

    def test_whole_floats_are_read_as_ints(self):
        spec = SyntheticSpec(extents=(12.0, 56.0, np.int64(48)), n_clusters=2.0, rank=6.0)
        assert all(type(v) is int for v in (*spec.extents, spec.n_clusters, spec.rank))
        assert planted_labels(spec).dtype == np.int64
        assert np.array_equal(generate_synthetic(spec)[0], generate_synthetic(SyntheticSpec())[0])

    def test_a_whole_float_seed_draws_what_the_int_does(self):
        spec = SyntheticSpec(extents=(4, 14, 6), seed=2.0)
        assert type(spec.seed) is int
        want = generate_synthetic(SyntheticSpec(extents=(4, 14, 6), seed=2))[0]
        assert np.array_equal(generate_synthetic(spec)[0], want)

    def test_invalid_fields_are_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(extents=(0, 5, 5))
        with pytest.raises(ValueError):
            SyntheticSpec(extents=(5, 5))
        with pytest.raises(ValueError):
            SyntheticSpec(rank=0)
        with pytest.raises(ValueError):
            SyntheticSpec(weekly_strength=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(daily_strength=-1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=0)
        with pytest.raises(ValueError):
            SyntheticSpec(extents=(4, 10, 10), n_clusters=5)
        with pytest.raises(ValueError):
            SyntheticSpec(separation=-0.5)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_var=-0.01)
        with pytest.raises(ValueError, match="extents must be a whole number"):
            SyntheticSpec(extents=(12.7, 56, 48))
        with pytest.raises(ValueError, match="n_clusters must be a whole number"):
            SyntheticSpec(n_clusters=1.5)
        with pytest.raises(ValueError, match="rank must be a whole number"):
            SyntheticSpec(rank=2.5)
        for seed in (1.5, -1, "3"):
            with pytest.raises(ValueError, match="seed"):
                SyntheticSpec(seed=seed)
        for name in ("weekly_strength", "daily_strength", "separation", "noise_var"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    SyntheticSpec(**{name: value})


class TestPlantedLabels:
    def test_blocks_are_contiguous_and_balanced(self):
        spec = SyntheticSpec(extents=(12, 10, 10), n_clusters=3)
        labels = planted_labels(spec)
        assert np.array_equal(labels, np.repeat([0, 1, 2], 4))

    def test_uneven_split(self):
        spec = SyntheticSpec(extents=(5, 10, 10), n_clusters=2)
        assert np.array_equal(planted_labels(spec), [0, 0, 0, 1, 1])


class TestGenerate:
    def test_noiseless_tensor_equals_clamped_reconstruction(self):
        t, model = generate_synthetic(SyntheticSpec(noise_var=0.0, seed=1))
        assert np.array_equal(t, np.clip(cp_reconstruct(model), 0.0, None))

    def test_output_is_non_negative_and_model_is_canonical(self):
        t, model = generate_synthetic(SyntheticSpec(noise_var=4.0, seed=3))
        assert t.min() == 0.0  # large noise must actually hit the clamp
        assert np.all(np.diff(model.weights) <= 0)
        for f in model.factors:
            assert np.linalg.norm(f, axis=0) == pytest.approx(np.ones(f.shape[1]))

    def test_same_seed_reproduces_bit_identical_output(self):
        spec = SyntheticSpec(seed=7)
        t1, m1 = generate_synthetic(spec)
        t2, m2 = generate_synthetic(SyntheticSpec(seed=7))
        assert np.array_equal(t1, t2)
        assert np.array_equal(m1.weights, m2.weights)
        assert all(np.array_equal(a, b) for a, b in zip(m1.factors, m2.factors))
        t3, _ = generate_synthetic(SyntheticSpec(seed=8))
        assert not np.array_equal(t1, t3)

    def test_fit_at_true_rank_reaches_the_noise_floor(self):
        spec = SyntheticSpec(seed=2)
        t, model = generate_synthetic(spec)
        res_truth = relative_residual(np.clip(cp_reconstruct(model), 0.0, None), t)
        _, history = cp_fit(t, AlsConfig(rank=spec.rank, max_iters=300, tol=1e-9, seed=0))
        assert history[-1] <= 1.1 * res_truth

    def test_extents_and_shapes(self):
        spec = SyntheticSpec(extents=(5, 9, 7), rank=3, n_clusters=2, seed=0)
        t, model = generate_synthetic(spec)
        assert t.shape == (5, 9, 7)
        assert model.shape == (5, 9, 7)
        assert model.rank == 3


def recovered_accuracy(separation, seed):
    spec = SyntheticSpec(extents=(20, 35, 24), rank=4, n_clusters=2,
                         separation=separation, seed=seed)
    t, _ = generate_synthetic(spec)
    model, _ = cp_fit(t, AlsConfig(rank=4, max_iters=150, tol=1e-8, seed=0))
    labels = agglomerate(embed_stations(model), 2).labels
    planted = planted_labels(spec)
    return max(np.mean(labels == planted), np.mean(labels == 1 - planted))


class TestClusterSignal:
    def test_separated_populations_are_recovered_exactly(self):
        for seed in range(3):
            assert recovered_accuracy(5.0, seed) == 1.0

    def test_zero_separation_carries_no_cluster_signal(self):
        accs = [recovered_accuracy(0.0, seed) for seed in range(6)]
        assert max(accs) < 1.0
        assert np.mean(accs) < 0.8
