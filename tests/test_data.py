import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncerm.data import (
    WeightedDataset,
    draw_batch,
    flip_labels,
    load_dataset_csv,
    parity_dataset,
    planted_halfspace,
    planted_network,
    save_dataset_csv,
)
from ncerm.networks import evaluate, network_spec, random_network, to_levels, validate
from ncerm.util import lq_norm


def test_dataset_validation():
    X = np.eye(3)
    y = np.array([1.0, -1.0, 1.0])
    w = np.array([0.5, 0.25, 0.25])
    WeightedDataset(X, y, w)  # valid
    with pytest.raises(ValueError):
        WeightedDataset(X, np.array([1.0, 0.0, 1.0]), w)
    with pytest.raises(ValueError):
        WeightedDataset(X, y, np.array([0.5, 0.25, 0.5]))
    with pytest.raises(ValueError):
        WeightedDataset(X, y, np.array([0.5, -0.25, 0.75]))
    bad = X.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        WeightedDataset(bad, y, w)
    with pytest.raises(ValueError):
        WeightedDataset(X, y[:2], w)
    with pytest.raises(ValueError):
        WeightedDataset(2.0 * X, y, w, feature_norm_q=2.0)
    WeightedDataset(2.0 * X, y, w)  # no norm constraint requested


def test_with_weights_checks_the_new_weights_and_shares_the_points():
    """with_weights rejects bad weights as the constructor does, and the
    dataset it returns holds the parent's own feature and label arrays."""
    data = WeightedDataset.uniform(np.eye(3) * 0.5, np.array([1.0, -1.0, 1.0]), 2.0)
    w = np.array([0.5, 0.25, 0.25])
    out = data.with_weights(w)
    assert out.features is data.features and out.labels is data.labels
    assert out.feature_norm_q == 2.0
    assert np.array_equal(out.weights, w) and out.weights.dtype == float
    assert np.all(data.weights == 1.0 / 3.0)
    bad_weights = {
        "one entry per row": ([0.5, 0.5], [0.25] * 4, [[0.5, 0.25, 0.25]]),
        "finite and nonnegative": ([0.5, -0.25, 0.75], [0.5, np.nan, 0.5],
                                   [np.inf, 0.0, 0.0]),
        "sum to 1": ([0.5, 0.25, 0.5], [0.0, 0.0, 0.0], [0.5, 0.25, 0.25 - 1e-9]),
    }
    for message, cases in bad_weights.items():
        for bad in cases:
            with pytest.raises(ValueError, match=message):
                data.with_weights(np.array(bad))


def test_uniform_weights_sum_to_one():
    for n in (1, 3, 7, 100):
        data = WeightedDataset.uniform(np.zeros((n, 2)), np.ones(n))
        assert data.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(data.weights == data.weights[0])


def test_draw_batch_respects_weights():
    X = np.arange(8.0).reshape(4, 2)
    y = np.array([1.0, -1.0, 1.0, -1.0])
    w = np.array([0.5, 0.5, 0.0, 0.0])
    data = WeightedDataset(X, y, w)
    rng = np.random.default_rng(0)
    batch = draw_batch(rng, data, 100_000)
    assert batch.shape == (100_000, 2)
    # zero-weight rows must never appear
    assert np.all(batch[:, 0] <= 3.0)
    frac0 = np.mean(batch[:, 0] == 0.0)
    assert abs(frac0 - 0.5) < 0.01
    with pytest.raises(ValueError):
        draw_batch(rng, data, 0)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(float, st.integers(1, 30),
               elements=st.one_of(st.just(0.0), st.floats(1e-3, 10.0))).filter(np.any),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_draw_batch_follows_generator_choice(raw, k, seed):
    """draw_batch picks the indices rng.choice(n, k, replace=True, p=w)
    picks from an equal generator state, zero weights included, and
    leaves the generator where choice leaves it."""
    n = raw.size
    data = WeightedDataset(np.arange(n, dtype=float)[:, None], np.ones(n), raw / raw.sum())
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    idx = draw_batch(ours, data, k)[:, 0].astype(int)
    assert np.array_equal(idx, ref.choice(n, size=k, replace=True, p=data.weights))
    assert ours.random() == ref.random()


def test_parity_dataset_labels_and_norms():
    n, d, p = 500, 6, 3
    data, hidden = parity_dataset(n, d, p, 0.0, seed=1)
    assert hidden.shape == (p,)
    assert np.all(np.diff(hidden) > 0)
    X = data.features
    assert X.shape == (n, d + 1)
    # unit norm by construction: all raw coordinates are +-1
    assert np.allclose(lq_norm(X, 2.0), 1.0)
    assert np.allclose(X[:, -1], 1.0 / math.sqrt(d + 1))
    raw = np.sign(X[:, :d])
    assert np.array_equal(data.labels, np.prod(raw[:, hidden], axis=1))


def test_parity_dataset_noise_rate():
    n = 20_000
    clean, hidden = parity_dataset(n, 5, 2, 0.0, seed=7)
    noisy, hidden2 = parity_dataset(n, 5, 2, 0.25, seed=7)
    assert np.array_equal(hidden, hidden2)
    flipped = np.mean(clean.labels != noisy.labels)
    assert abs(flipped - 0.25) < 0.02
    with pytest.raises(ValueError):
        parity_dataset(10, 5, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        parity_dataset(10, 5, 6, 0.1, seed=0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_planted_halfspace_margin(p):
    data, model = planted_halfspace(100, 4, 0.3, p, seed=5)
    assert data.n == 100
    assert model.norm() == pytest.approx(1.0, abs=1e-12)
    margins = data.labels * model.predict(data.features)
    assert np.min(margins) >= 0.3
    q = math.inf if p == 1.0 else p / (p - 1.0)
    assert np.max(lq_norm(data.features, q)) <= 1.0 + 1e-9


def test_planted_network_margin_and_feasibility():
    spec = network_spec(2, 1.5, 2.0, "tanh")
    data, teacher = planted_network(80, 4, 0.2, spec, width=3, seed=9)
    validate(teacher, spec)
    margins = data.labels * evaluate(teacher, spec, data.features)
    assert np.min(margins) >= 0.2
    assert np.max(lq_norm(data.features, 2.0)) <= 1.0 + 1e-9


@pytest.mark.parametrize("width", [1, 3])
def test_planted_network_teacher_is_random_network(width):
    """The teacher is random_network's draw from the same seed: the whole
    depth-2 net, or at class depth 1 its first child."""
    net = random_network(network_spec(2, 1.5, 1.5), 4, width, seed=5)
    _, teacher = planted_network(40, 4, 0.1, network_spec(2, 1.5, 1.5), width, seed=5)
    got, want = to_levels(teacher), to_levels(net)
    assert len(got) == len(want) == 2
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    _, leaf = planted_network(40, 4, 0.1, network_spec(1, 1.5, 1.5), width, seed=5)
    assert np.array_equal(leaf.w, net.children[0].w)


def test_flip_labels_rate_zero_and_one():
    data = WeightedDataset.uniform(np.eye(6), np.ones(6))
    same = flip_labels(data, 0.0, seed=0)
    assert np.array_equal(same.labels, data.labels)
    flipped = flip_labels(data, 1.0, seed=0)
    assert np.array_equal(flipped.labels, -data.labels)
    partial = flip_labels(data, 0.5, seed=1)
    assert set(np.unique(partial.labels)) <= {-1.0, 1.0}


def test_csv_roundtrip_exact(tmp_path):
    data, _ = planted_halfspace(30, 3, 0.2, 2.0, seed=11)
    path = tmp_path / "sample.csv"
    save_dataset_csv(path, data)
    back = load_dataset_csv(path, feature_norm_q=2.0)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.weights, data.weights)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


@pytest.mark.parametrize("body", ["0.1,1,0.5\n", "0.1,0.2,0.3,1,0.5\n", "0.1,0.2,1,0.5\n0.3,1,0.5\n"])
def test_csv_row_width_checked(tmp_path, body):
    """Every row must have as many values as the header has columns; a
    narrower file used to load as a dataset of lower dimension."""
    path = tmp_path / "ragged.csv"
    path.write_text("x_1,x_2,y,weight\n" + body)
    with pytest.raises(ValueError, match="line"):
        load_dataset_csv(path)
