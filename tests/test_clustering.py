import itertools
import warnings

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from scipy.spatial.distance import pdist

from flowcast import clustering
from flowcast.clustering import (
    ClusterAssignment,
    StationEmbedding,
    agglomerate,
    choose_cluster_count,
    embed_stations,
)
from flowcast.cp import CpModel
from flowcast.lrtc import LrtcHyperParams, short_term_predict
from flowcast.tensor_ops import relative_residual


def model_with_location(u_l, weights=None, seed=0):
    rng = np.random.default_rng(seed)
    n, r = u_l.shape
    if weights is None:
        weights = np.ones(r)
    return CpModel(weights, [u_l, rng.normal(size=(9, r)), rng.normal(size=(11, r))])


def spectrum_model(singvals, n=10, seed=0):
    # location factor with prescribed singular values and zero-mean columns,
    # so the PCA spectrum of the embedding is exactly `singvals`
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, len(singvals)))
    x -= x.mean(axis=0)
    q, _ = np.linalg.qr(x)
    return model_with_location(q * np.asarray(singvals))


def two_group_model(seed=0, n_per=6, jitter=0.05):
    rng = np.random.default_rng(seed)
    u_l = np.zeros((2 * n_per, 2))
    u_l[:n_per, 0] = 1.0 + jitter * rng.standard_normal(n_per)
    u_l[n_per:, 1] = 1.0 + jitter * rng.standard_normal(n_per)
    return model_with_location(u_l, weights=np.array([5.0, 4.0]))


class TestEmbedding:
    def test_component_count_is_minimal_for_retained_variance(self):
        # variance shares 100, 25, 1, 0.01 of 126.01: 0.79 after one component
        assert embed_stations(spectrum_model([10.0, 5.0, 1.0, 0.1])).coords.shape[1] == 2
        assert embed_stations(spectrum_model([10.0, 1.0])).coords.shape[1] == 1
        assert embed_stations(spectrum_model([3.0, 2.0, 2.0, 1.0])).coords.shape[1] == 3
        assert embed_stations(spectrum_model([1.0, 1.0, 1.0, 1.0])).coords.shape[1] == 4

    def test_retained_variance_is_a_fixed_ninety_percent(self):
        assert clustering.VARIANCE_RETAINED == 0.9
        # one component explains 9/10 exactly, then 8.41/9.41 just short of it
        assert embed_stations(spectrum_model([3.0, 1.0])).coords.shape[1] == 1
        assert embed_stations(spectrum_model([2.9, 1.0])).coords.shape[1] == 2
        with pytest.raises(TypeError):
            embed_stations(two_group_model(), 0.9)

    def test_full_retention_preserves_pairwise_distances(self):
        # a flat spectrum: the first four components explain 0.84, so all five are kept
        model = spectrum_model([2.0, 1.9, 1.8, 1.7, 1.6], n=12, seed=3)
        e = embed_stations(model)
        assert e.coords.shape[1] == 5
        folded = model.factors[0] * model.weights
        for i, j in itertools.combinations(range(12), 2):
            want = np.linalg.norm(folded[i] - folded[j])
            got = np.linalg.norm(e.coords[i] - e.coords[j])
            assert got == pytest.approx(want, abs=1e-9)

    def test_weights_fold_into_the_embedding(self):
        rng = np.random.default_rng(7)
        u_l = rng.normal(size=(8, 2))
        flat = embed_stations(model_with_location(u_l))
        tilted = embed_stations(model_with_location(u_l, weights=np.array([10.0, 1.0])))

        def pairwise(coords):
            return np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)

        assert not np.allclose(pairwise(flat.coords), pairwise(tilted.coords))

    def test_zero_variance_factor_embeds_every_station_at_zero(self):
        e = embed_stations(model_with_location(np.ones((6, 3))))
        assert e.coords.shape == (6, 1)
        assert np.all(e.coords == 0.0)
        assert choose_cluster_count(e) == 1
        assert np.array_equal(agglomerate(e, 1).labels, np.zeros(6))

    def test_planted_groups_are_well_separated(self):
        e = embed_stations(two_group_model(seed=1))
        a, b = e.coords[:6], e.coords[6:]
        between = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        within = max(
            np.linalg.norm(a - a.mean(axis=0), axis=1).max(),
            np.linalg.norm(b - b.mean(axis=0), axis=1).max(),
        )
        assert between > 5.0 * within


def upgma_oracle(coords):
    """Group-average merges recomputed from raw point distances each step.

    Independent of the scipy linkage the library calls: the
    cluster-to-cluster distance is averaged over all cross pairs directly.
    """
    n = coords.shape[0]
    point = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            d = np.mean([point[i, j] for i in clusters[a] for j in clusters[b]])
            lo, hi = sorted((clusters[a][0], clusters[b][0]))
            if best is None or (d, lo, hi) < best[0]:
                best = ((d, lo, hi), (a, b))
        (d, _, _), (a, b) = best
        merges.append((sorted(clusters[a] + clusters[b]), d))
        clusters[next_id] = sorted(clusters.pop(a) + clusters.pop(b))
        next_id += 1
    return merges


def trace_member_sets(n, trace):
    members = {i: [i] for i in range(n)}
    out = []
    for step, (a, b, d, size) in enumerate(trace.tolist()):
        merged = sorted(members[int(a)] + members[int(b)])
        assert size == len(merged)
        members[n + step] = merged
        out.append((merged, d))
    return out


def tie_heavy_embeddings():
    """Inputs whose merge heights tie: integer lattices and repeated stations."""
    cases = []
    for dim in (1, 2, 3):
        cases.append(np.array(list(itertools.product(range(3), repeat=dim)), float))
        for seed in range(4):
            rng = np.random.default_rng(300 + 10 * dim + seed)
            cases.append(rng.integers(0, 3, size=(9, dim)).astype(float))
    for seed in range(4):
        rng = np.random.default_rng(400 + seed)
        stations = np.repeat(rng.normal(size=(4, 2)), 3, axis=0)
        cases.append(stations[rng.permutation(12)])
    return cases


class TestAgglomerate:
    def test_matches_independent_quadratic_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            coords = rng.normal(size=(11, 3))
            got = trace_member_sets(11, StationEmbedding(coords).upgma_trace)
            want = upgma_oracle(coords)
            for (gm, gd), (wm, wd) in zip(got, want):
                assert gm == wm
                assert gd == pytest.approx(wd, rel=1e-12)

    def test_matches_scipy_average_linkage(self):
        def assert_scipy_rows(coords):
            n = coords.shape[0]
            e = StationEmbedding(coords)
            z = sch.linkage(pdist(coords), method="average")
            trace = e.upgma_trace
            assert trace.shape == z.shape == (n - 1, 4)
            assert np.array_equal(trace[:, [0, 1, 3]], z[:, [0, 1, 3]])
            assert trace[:, 2] == pytest.approx(z[:, 2], rel=1e-12)
            for k in range(1, n + 1):
                want = clustering._labels_from_trace(n, z, k)
                assert np.array_equal(agglomerate(e, k).labels, want), k
            return e, z

        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            e, z = assert_scipy_rows(rng.normal(size=(15, 3)))
            labels = agglomerate(e, 4).labels
            ours = [frozenset(np.flatnonzero(labels == c)) for c in range(4)]
            flat = sch.fcluster(z, t=4, criterion="maxclust")
            theirs = [frozenset(np.flatnonzero(flat == c)) for c in np.unique(flat)]
            assert set(ours) == set(theirs)
        # fcluster's maxclust may return fewer than k clusters at tied heights,
        # so tie-heavy inputs are cut from scipy's rows instead
        for coords in tie_heavy_embeddings():
            assert_scipy_rows(coords)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_are_rejected(self, bad):
        coords = np.array([[0.0], [1.0], [2.0], [3.0]])
        coords[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            agglomerate(StationEmbedding(coords), 2)
        with pytest.raises(ValueError, match="finite"):
            choose_cluster_count(StationEmbedding(coords))

    def test_square_symmetric_embedding_is_clustered_as_coordinates(self):
        # a zero-diagonal symmetric matrix looks like a distance matrix to
        # scipy's linkage; the rows here are still station coordinates
        e = StationEmbedding(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = e.upgma_trace.tolist()
        assert trace == [[0, 1, pytest.approx(np.sqrt(2.0), rel=1e-15), 2]]

    def test_tied_merges_prefer_the_lowest_station_index(self):
        e = StationEmbedding(np.array([[0.0], [1.0], [10.0], [11.0]]))
        assert e.upgma_trace.tolist() == [[0, 1, 1.0, 2], [2, 3, 1.0, 2], [4, 5, 10.0, 4]]

        # station 0 wins the tie even when its pair sits between two others
        chain = StationEmbedding(np.array([[0.0], [1.0], [2.0]]))
        assert chain.upgma_trace.tolist() == [[0, 1, 1.0, 2], [2, 3, 1.5, 3]]

    def test_trivial_cuts(self):
        rng = np.random.default_rng(5)
        e = StationEmbedding(rng.normal(size=(7, 2)))
        assert np.array_equal(agglomerate(e, 7).labels, np.arange(7))
        assert e.upgma_trace.shape == (6, 4)
        assert np.array_equal(agglomerate(e, 1).labels, np.zeros(7, dtype=int))

        lone = StationEmbedding(np.zeros((1, 2)))
        assert lone.upgma_trace.shape == (0, 4)
        assert np.array_equal(agglomerate(lone, 1).labels, [0])

    def test_planted_two_group_partition_is_recovered_exactly(self):
        e = embed_stations(two_group_model(seed=2))
        assign = agglomerate(e, 2)
        assert np.array_equal(assign.labels, np.repeat([0, 1], 6))

    def test_labels_are_numbered_by_smallest_member(self):
        # group around x=10 holds station 0, group around x=0 holds the rest
        coords = np.array([[10.0], [0.1], [0.2], [10.2], [0.0]])
        assign = agglomerate(StationEmbedding(coords), 2)
        assert np.array_equal(assign.labels, [0, 1, 1, 0, 1])

    def test_every_cut_numbers_clusters_by_their_smallest_station(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            e = StationEmbedding(rng.normal(size=(12, 2)))
            for k in range(1, 13):
                labels = agglomerate(e, k).labels
                firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(k)]
                assert firsts == sorted(firsts), (seed, k)

    def test_merge_distances_never_decrease(self):
        rng = np.random.default_rng(11)
        d = StationEmbedding(rng.normal(size=(20, 4))).upgma_trace[:, 2]
        assert np.all(np.diff(d) >= -1e-12)

    def test_repeat_runs_are_identical(self):
        rng = np.random.default_rng(13)
        coords = rng.normal(size=(10, 3))
        first, second = StationEmbedding(coords), StationEmbedding(coords.copy())
        assert np.array_equal(agglomerate(first, 3).labels, agglomerate(second, 3).labels)
        assert np.array_equal(first.upgma_trace, second.upgma_trace)

    def test_cluster_count_bounds(self):
        e = StationEmbedding(np.arange(5.0)[:, None])
        for bad in (0, 6, -1):
            with pytest.raises(ValueError):
                agglomerate(e, bad)
        with pytest.raises(ValueError, match="k must be a whole number, got 1.5"):
            agglomerate(e, 1.5)
        assert np.array_equal(agglomerate(e, 2.0).labels, agglomerate(e, 2).labels)

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            ClusterAssignment(np.array([0, 0, 2]), 3)  # cluster 1 empty
        with pytest.raises(ValueError):
            ClusterAssignment(np.array([], dtype=int), 1)
        # k is read as a whole number: 2.0 is the int 2, 1.5 is named
        k = ClusterAssignment(np.array([0, 1]), 2.0).k
        assert k == 2 and type(k) is int
        with pytest.raises(ValueError, match="^k must be a whole number, got 1.5"):
            ClusterAssignment(np.array([0, 1]), 1.5)
        with pytest.raises(ValueError, match="stations x components"):
            StationEmbedding(np.arange(5.0))


class TestChooseClusterCount:
    def test_planted_gap_sets_the_count(self):
        assert choose_cluster_count(embed_stations(two_group_model(seed=4))) == 2

        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        coords = np.concatenate(
            [c + 0.1 * rng.standard_normal((5, 2)) for c in centers]
        )
        assert choose_cluster_count(StationEmbedding(coords)) == 3

    def test_tiny_inputs_collapse_to_one_cluster(self):
        assert choose_cluster_count(StationEmbedding(np.zeros((1, 1)))) == 1
        two = StationEmbedding(np.array([[0.0], [9.0]]))
        assert choose_cluster_count(two) == 1

    def test_homogeneous_cloud_is_one_population(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            e = StationEmbedding(rng.normal(size=(14, 3)))
            assert choose_cluster_count(e) == 1

    def test_identical_stations_are_one_population(self):
        e = StationEmbedding(np.zeros((5, 2)))
        assert choose_cluster_count(e) == 1


class TestSharedTrace:
    def test_count_then_cut_builds_the_trace_once(self, monkeypatch):
        e = embed_stations(two_group_model(seed=4))
        want = sch.linkage(pdist(e.coords), "average")
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sch.linkage(*args, **kwargs)

        monkeypatch.setattr(clustering, "linkage", counted)
        k = choose_cluster_count(e)
        assign = agglomerate(e, k)
        assert len(calls) == 1
        assert k == 2
        assert np.array_equal(e.upgma_trace, want)
        assert np.array_equal(assign.labels, clustering._labels_from_trace(12, want, 2))

    def test_cuts_do_not_share_a_mutable_trace(self):
        rng = np.random.default_rng(9)
        e = StationEmbedding(rng.normal(size=(8, 2)))
        first = agglomerate(e, 3)
        with pytest.raises(ValueError, match="read-only"):
            e.upgma_trace[0, 2] = 0.0
        assert np.array_equal(e.upgma_trace, sch.linkage(pdist(e.coords), "average"))
        assert np.array_equal(agglomerate(e, 3).labels, first.labels)


def two_population_tensor(seed):
    rng = np.random.default_rng(seed)
    n_loc, n_days, n_slots = 16, 12, 24
    days = np.arange(n_days)
    slots = np.arange(n_slots)

    def bump(center, width):
        return np.exp(-0.5 * ((slots - center) / width) ** 2) + 0.1

    u_t = np.column_stack([
        1.0 + 0.3 * np.sin(2 * np.pi * days / 7),
        1.0 + 0.3 * np.cos(2 * np.pi * days / 7),
        1.0 + 0.4 * np.sin(2 * np.pi * (days + 3) / 7),
        1.0 + 0.2 * np.cos(4 * np.pi * days / 7),
    ])
    u_p = np.column_stack([bump(6, 2), bump(18, 3), bump(12, 2), bump(21, 2)])
    u_l = np.zeros((n_loc, 4))
    u_l[:8, 0] = rng.uniform(0.8, 1.2, 8)
    u_l[:8, 1] = rng.uniform(0.4, 0.8, 8)
    u_l[8:, 2] = rng.uniform(0.8, 1.2, 8)
    u_l[8:, 3] = rng.uniform(0.4, 0.8, 8)
    clean = np.einsum("lr,tr,pr,r->ltp", u_l, u_t, u_p, np.array([5.0, 3.0, 5.0, 3.0]))
    noisy = clean + 0.01 * clean.std() * rng.standard_normal(clean.shape)
    return clean, noisy


def test_per_cluster_completion_beats_joint_on_separated_populations():
    clean, noisy = two_population_tensor(0)
    n_loc = noisy.shape[0]
    future = np.zeros(noisy.shape, dtype=bool)
    future[:, -1, 16:] = True

    joint = short_term_predict(
        noisy, future, LrtcHyperParams(max_rank=6, max_iters=80, elbo_tol=1e-7, seed=0)
    )
    hp = LrtcHyperParams(max_rank=4, max_iters=80, elbo_tol=1e-7, seed=0)
    split = np.concatenate([
        short_term_predict(noisy[:8], future[:8], hp).imputed,
        short_term_predict(noisy[8:], future[8:], hp).imputed,
    ])

    def station_res(pred):
        return np.array([
            relative_residual(pred[l], clean[l], future[l]) for l in range(n_loc)
        ])

    res_joint = station_res(joint.imputed)
    res_split = station_res(split)
    assert res_split.mean() <= res_joint.mean()
    assert np.mean(res_split <= res_joint) >= 0.75
