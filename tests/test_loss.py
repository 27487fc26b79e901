import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from geoloc.errors import DomainError
from geoloc.loss import (
    ClassifierHead,
    LossConfig,
    margin_cosine_grads,
    margin_cosine_loss_and_grads,
    new_head,
)
from geoloc.partition import GroupId
from oracles import central_difference, rel_err, unit_rows

G0 = GroupId(0, 0, 0)


def random_instance(rng, num_classes=None, dim=None, batch=None):
    num_classes = num_classes or int(rng.integers(2, 9))
    dim = dim or int(rng.integers(2, 17))
    batch = batch or int(rng.integers(1, 7))
    desc = unit_rows(rng.standard_normal((batch, dim)))
    labels = rng.integers(0, num_classes, size=batch)
    head = ClassifierHead(group=G0, weights=rng.standard_normal((num_classes, dim)))
    return desc, labels, head


def softmax_cross_entropy_oracle(logits, labels):
    """Independent reference: plain softmax cross-entropy via scipy."""
    lse = logsumexp(logits, axis=1)
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def test_hand_value_two_orthonormal_classes_no_margin():
    head = ClassifierHead(group=G0, weights=np.eye(2))
    desc = np.array([[1.0, 0.0]])
    loss = margin_cosine_loss_and_grads(desc, np.array([0]), head, LossConfig(margin=0.0, scale=1.0))[0]
    assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)
    assert loss == pytest.approx(0.313262, abs=1e-6)


def test_hand_value_with_margin():
    head = ClassifierHead(group=G0, weights=np.eye(2))
    desc = np.array([[1.0, 0.0]])
    loss = margin_cosine_loss_and_grads(desc, np.array([0]), head, LossConfig(margin=0.4, scale=1.0))[0]
    assert loss == pytest.approx(-math.log(math.exp(0.6) / (math.exp(0.6) + 1.0)), abs=1e-12)
    assert loss == pytest.approx(0.437488, abs=1e-6)


def test_zero_margin_reduces_to_softmax_cross_entropy():
    rng = np.random.default_rng(0)
    for _ in range(100):
        desc, labels, head = random_instance(rng)
        scale = float(rng.uniform(0.5, 40.0))
        cfg = LossConfig(margin=0.0, scale=scale)
        cos = desc @ unit_rows(head.weights).T
        expected = softmax_cross_entropy_oracle(scale * cos, labels)
        assert abs(margin_cosine_loss_and_grads(desc, labels, head, cfg)[0] - expected) < 1e-10


def test_loss_is_finite_and_nonnegative_at_default_scale():
    rng = np.random.default_rng(1)
    for _ in range(20):
        desc, labels, head = random_instance(rng)
        loss = margin_cosine_loss_and_grads(desc, labels, head, LossConfig())[0]
        assert np.isfinite(loss) and loss >= 0.0


def test_batch_mean_consistency():
    rng = np.random.default_rng(2)
    desc, labels, head = random_instance(rng, batch=6)
    cfg = LossConfig()
    whole = margin_cosine_loss_and_grads(desc, labels, head, cfg)[0]
    singles = [
        margin_cosine_loss_and_grads(desc[i : i + 1], labels[i : i + 1], head, cfg)[0] for i in range(len(labels))
    ]
    assert whole == pytest.approx(np.mean(singles), abs=1e-12)


def test_loss_decreases_as_true_class_cosine_increases():
    rng = np.random.default_rng(3)
    head = ClassifierHead(group=G0, weights=np.eye(3))
    cfg = LossConfig(margin=0.2, scale=10.0)
    previous = None
    for t in np.linspace(0.0, 1.0, 8):
        # Rotate the descriptor toward the true-class weight row.
        d = unit_rows(np.array([[math.cos(1.2 * (1 - t)), math.sin(1.2 * (1 - t)), 0.0]]))
        loss = margin_cosine_loss_and_grads(d, np.array([0]), head, cfg)[0]
        if previous is not None:
            assert loss < previous
        previous = loss


@given(
    seed=st.integers(0, 2**31 - 1),
    theta=st.floats(0.05, 1.5),
    delta=st.floats(0.01, 0.5),
    margin=st.floats(0.0, 0.5),
    scale=st.floats(1.0, 40.0),
)
# A saturated case, where rounding noise in the loss can outweigh the change in angle.
@example(seed=0, theta=0.0546875, delta=0.5, margin=0.17005369859215883, scale=38.5625)
@settings(max_examples=200, deadline=None)
def test_true_class_cosine_monotonicity_property(seed, theta, delta, margin, scale):
    # Orthonormal weight rows plus a spare direction: rotating the descriptor
    # toward the true row changes only the true-class cosine, and the loss
    # must strictly fall.
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    head = ClassifierHead(group=G0, weights=basis[:, :3].T.copy())
    spare = basis[:, 3]
    cfg = LossConfig(margin=margin, scale=scale)

    def loss_at(angle):
        d = (math.cos(angle) * head.weights[0] + math.sin(angle) * spare)[None, :]
        return margin_cosine_loss_and_grads(d, np.array([0]), head, cfg)[0]

    closer = max(theta - delta, 0.0)
    hi = loss_at(theta)
    lo = loss_at(closer)
    if hi > 1e-12:
        assert lo < hi
    else:
        # Fully saturated: the loss sits at the float64 floor for both angles.
        assert lo <= hi


def test_margin_increase_raises_loss_when_correctly_classified():
    rng = np.random.default_rng(4)
    head = ClassifierHead(group=G0, weights=np.eye(4))
    desc = unit_rows(np.array([[0.9, 0.1, 0.0, 0.1], [0.05, 0.95, 0.0, 0.0]]))
    labels = np.array([0, 1])
    losses = [
        margin_cosine_loss_and_grads(desc, labels, head, LossConfig(margin=m, scale=12.0))[0]
        for m in (0.0, 0.2, 0.4)
    ]
    assert losses[0] < losses[1] < losses[2]


def test_input_validation():
    head = ClassifierHead(group=G0, weights=np.eye(2))
    with pytest.raises(DomainError, match="unit"):
        margin_cosine_loss_and_grads(np.array([[2.0, 0.0]]), np.array([0]), head, LossConfig())
    with pytest.raises(DomainError, match="labels"):
        margin_cosine_loss_and_grads(np.array([[1.0, 0.0]]), np.array([5]), head, LossConfig())
    zero_row = ClassifierHead(group=G0, weights=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DomainError, match="zero"):
        margin_cosine_loss_and_grads(np.array([[1.0, 0.0]]), np.array([0]), zero_row, LossConfig())
    with pytest.raises(DomainError):
        LossConfig(margin=-0.1)
    with pytest.raises(DomainError):
        LossConfig(scale=0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    cfg = LossConfig(margin=0.3, scale=8.0)
    for _ in range(100):
        desc, labels, head = random_instance(rng)
        g_desc, g_w = margin_cosine_grads(desc, labels, head, cfg)

        def loss_of_desc(d):
            return margin_cosine_loss_and_grads(d, labels, head, cfg)[0]

        def loss_of_weights(w):
            return margin_cosine_loss_and_grads(desc, labels, ClassifierHead(group=G0, weights=w), cfg)[0]

        assert rel_err(g_desc, central_difference(loss_of_desc, desc.copy(), eps=1e-5)) < 1e-4
        assert rel_err(g_w, central_difference(loss_of_weights, head.weights.copy(), eps=1e-5)) < 1e-4


def test_descriptor_gradient_tangent_through_normalization():
    # Chain the loss through an explicit normalization of a free vector; the
    # resulting gradient must be orthogonal to the unit descriptor.
    rng = np.random.default_rng(6)
    cfg = LossConfig(margin=0.2, scale=9.0)
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        head = ClassifierHead(group=G0, weights=rng.standard_normal((3, dim)))
        x = rng.standard_normal(dim) * 2.0
        norm = np.linalg.norm(x)
        d = (x / norm)[None, :]
        labels = np.array([int(rng.integers(3))])
        g_desc, _ = margin_cosine_grads(d, labels, head, cfg)
        g_x = (g_desc[0] - float(g_desc[0] @ d[0]) * d[0]) / norm
        assert abs(float(g_x @ d[0])) < 1e-8


def test_symmetric_instance_has_stationary_weights():
    # Two antipodal unit rows with mirror-symmetric descriptor pairs: the
    # tangential pulls cancel exactly, so the head gradient vanishes.
    theta = 0.4
    c, s = math.cos(theta), math.sin(theta)
    head = ClassifierHead(group=G0, weights=np.array([[1.0, 0.0], [-1.0, 0.0]]))
    desc = np.array([[c, s], [c, -s], [-c, s], [-c, -s]])
    labels = np.array([0, 0, 1, 1])
    _, g_w = margin_cosine_grads(desc, labels, head, LossConfig(margin=0.1, scale=5.0))
    assert np.abs(g_w).max() < 1e-8


def test_new_head_determinism_and_norms():
    a = new_head(G0, 5, 8, seed=1)
    b = new_head(G0, 5, 8, seed=1)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert np.abs(np.linalg.norm(a.weights, axis=1) - 1.0).max() < 1e-6

    other_group = new_head(GroupId(0, 0, 1), 5, 8, seed=1)
    assert np.abs(a.weights - other_group.weights).max() > 0.0

    with pytest.raises(DomainError):
        new_head(G0, 1, 8, seed=1)
