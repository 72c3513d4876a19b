import numpy as np
import pytest

from polymap.geometry import BBox
from polymap.neural.gradcheck import finite_difference_check
from polymap.neural.layers import roi_align_stack
from polymap.neural.tensor import (
    Tensor,
    add,
    attach_loss,
    batch_norm,
    concat,
    conv2d_1x1,
    conv2d_3x3,
    corrupt_gradient,
    layer_norm,
    matmul,
    mean_all,
    mul,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    sub,
    sum_all,
    transpose,
)
from polymap.selftest import naive_roi_align

TOL = 1e-5


def leaf(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


class TestBasics:
    def test_identity_matmul(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        eye = Tensor(np.eye(2))
        out = matmul(eye, x)
        assert np.array_equal(out.data, x.data)
        sum_all(out).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sigmoid_at_zero(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        y = sigmoid(x)
        assert y.data[0] == 0.5
        sum_all(y).backward()
        assert x.grad[0] == 0.25

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.RandomState(0)
        y = softmax(Tensor(rng.randn(4, 7)))
        assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            add(x, x).backward()

    def test_shape_errors_name_the_op(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="matmul"):
            matmul(a, b)
        with pytest.raises(ValueError, match="conv2d_3x3"):
            conv2d_3x3(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 5, 3, 3))), Tensor(np.zeros(3)))

    def test_linear_graph_is_exact(self):
        rng = np.random.RandomState(1)
        w = leaf(rng, 4, 3)
        x = Tensor(rng.randn(2, 4))

        def build():
            return sum_all(matmul(x, w))

        # Linear graph: central differences are exact for any eps, so a
        # larger step just suppresses roundoff.
        assert finite_difference_check(build, {"w": w}, eps=1e-3, rng=rng) < 1e-9


class TestOpGradients:
    def check(self, build, params, seed=0):
        err = finite_difference_check(build, params, rng=np.random.RandomState(seed))
        assert err < TOL, f"finite-difference mismatch: {err}"

    def test_add_broadcast(self):
        rng = np.random.RandomState(2)
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        self.check(lambda: sum_all(mul(add(a, b), add(a, b))), {"a": a, "b": b})

    def test_sub_mul(self):
        rng = np.random.RandomState(3)
        a = leaf(rng, 5)
        b = leaf(rng, 5)
        self.check(lambda: mean_all(mul(sub(a, b), a)), {"a": a, "b": b})

    def test_scale(self):
        rng = np.random.RandomState(4)
        a = leaf(rng, 4)
        self.check(lambda: sum_all(mul(scale(a, 2.5), a)), {"a": a})

    def test_matmul_2d(self):
        rng = np.random.RandomState(5)
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 2)
        self.check(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), {"a": a, "b": b})

    def test_matmul_batched_with_shared_rhs(self):
        rng = np.random.RandomState(6)
        a = leaf(rng, 2, 3, 4)
        b = leaf(rng, 4, 5)
        self.check(lambda: mean_all(matmul(a, b)), {"a": a, "b": b})

    def test_matmul_broadcast_batch(self):
        rng = np.random.RandomState(7)
        a = leaf(rng, 1, 2, 3)  # broadcasts against batch of 4
        b = leaf(rng, 4, 3, 2)
        self.check(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), {"a": a, "b": b})

    def test_relu(self):
        rng = np.random.RandomState(8)
        a = Tensor(rng.uniform(0.2, 1.0, size=6) * rng.choice([-1, 1], size=6), requires_grad=True)
        self.check(lambda: sum_all(mul(relu(a), a)), {"a": a})

    def test_sigmoid(self):
        rng = np.random.RandomState(9)
        a = leaf(rng, 5)
        self.check(lambda: sum_all(mul(sigmoid(a), sigmoid(a))), {"a": a})

    def test_softmax(self):
        rng = np.random.RandomState(10)
        a = leaf(rng, 3, 5)
        w = Tensor(np.random.RandomState(99).randn(3, 5))
        self.check(lambda: sum_all(mul(softmax(a), w)), {"a": a})

    def test_layer_norm(self):
        rng = np.random.RandomState(11)
        x = leaf(rng, 3, 6)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
        beta = leaf(rng, 6)
        w = Tensor(np.random.RandomState(98).randn(3, 6))
        self.check(
            lambda: sum_all(mul(layer_norm(x, gamma, beta), w)),
            {"x": x, "gamma": gamma, "beta": beta},
        )

    def test_batch_norm_training(self):
        rng = np.random.RandomState(12)
        x = leaf(rng, 4, 3, 2, 2)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = leaf(rng, 3)
        w = Tensor(np.random.RandomState(97).randn(4, 3, 2, 2))

        def build():
            rm = np.zeros(3)
            rv = np.ones(3)
            return sum_all(mul(batch_norm(x, gamma, beta, rm, rv, training=True), w))

        self.check(build, {"x": x, "gamma": gamma, "beta": beta})

    def test_batch_norm_inference_deterministic_affine(self):
        rng = np.random.RandomState(13)
        x = leaf(rng, 2, 3, 2, 2)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = leaf(rng, 3)
        rm = rng.randn(3)
        rv = rng.uniform(0.5, 2.0, size=3)
        out1 = batch_norm(x, gamma, beta, rm, rv, training=False)
        out2 = batch_norm(x, gamma, beta, rm, rv, training=False)
        assert np.array_equal(out1.data, out2.data)
        expect = gamma.data.reshape(1, 3, 1, 1) * (x.data - rm.reshape(1, 3, 1, 1)) / np.sqrt(
            rv.reshape(1, 3, 1, 1) + 1e-5
        ) + beta.data.reshape(1, 3, 1, 1)
        assert np.allclose(out1.data, expect, atol=1e-12)
        self.check(
            lambda: sum_all(batch_norm(x, gamma, beta, rm, rv, training=False)),
            {"x": x, "gamma": gamma, "beta": beta},
        )

    def test_batch_norm_single_instance_warns(self):
        rng = np.random.RandomState(14)
        x = leaf(rng, 1, 2, 3, 3)
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        with pytest.warns(UserWarning, match="batch size"):
            batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), training=True)

    def test_conv3x3(self):
        rng = np.random.RandomState(15)
        x = leaf(rng, 2, 2, 4, 4)
        w = leaf(rng, 3, 2, 3, 3)
        b = leaf(rng, 3)
        m = Tensor(np.random.RandomState(96).randn(2, 3, 4, 4))
        self.check(lambda: sum_all(mul(conv2d_3x3(x, w, b), m)), {"x": x, "w": w, "b": b})

    def test_conv3x3_constant_input(self):
        # The first stem conv reads the image, which takes no gradient.
        rng = np.random.RandomState(23)
        x = Tensor(rng.uniform(0.0, 1.0, size=(2, 1, 5, 4)))
        w = leaf(rng, 3, 1, 3, 3)
        b = leaf(rng, 3)
        m = Tensor(np.random.RandomState(93).randn(2, 3, 5, 4))
        self.check(lambda: sum_all(mul(conv2d_3x3(x, w, b), m)), {"w": w, "b": b})
        assert x.grad is None

    def test_conv1x1(self):
        rng = np.random.RandomState(16)
        x = leaf(rng, 2, 3, 4, 4)
        w = leaf(rng, 2, 3)
        b = leaf(rng, 2)
        m = Tensor(np.random.RandomState(95).randn(2, 2, 4, 4))
        self.check(lambda: sum_all(mul(conv2d_1x1(x, w, b), m)), {"x": x, "w": w, "b": b})

    def test_reshape_transpose_concat(self):
        rng = np.random.RandomState(17)
        a = leaf(rng, 2, 6)
        b = leaf(rng, 2, 6)

        def build():
            c = concat([reshape(a, (2, 3, 2)), reshape(b, (2, 3, 2))], axis=1)
            return sum_all(mul(transpose(c, (1, 0, 2)), transpose(c, (1, 0, 2))))

        self.check(build, {"a": a, "b": b})

    def test_mean_all(self):
        rng = np.random.RandomState(18)
        a = leaf(rng, 7)
        self.check(lambda: mean_all(mul(a, a)), {"a": a})

    def test_attach_loss_bridge(self):
        rng = np.random.RandomState(19)
        a = leaf(rng, 4)

        def quad(data):
            return float((data**2).sum()), 2.0 * data

        self.check(lambda: attach_loss(a, quad), {"a": a})


class TestRoiAlign:
    ORACLE_ATOL = 1e-12

    @staticmethod
    def single(feature, box, g):
        """One ROI over a (C, H, W) feature, as a (C, G, G) array."""
        f = Tensor(feature[None], requires_grad=True)
        return roi_align_stack(f, [(0, box)], g).data[0]

    def test_constant_feature(self):
        out = self.single(np.full((2, 8, 8), 5.0), BBox.from_xywh(1.3, 2.1, 4.4, 3.7), 4)
        assert out.shape == (2, 4, 4)
        assert np.allclose(out, 5.0)

    def test_integer_box_on_linear_ramp_is_exact_crop(self):
        # Bilinear sampling reproduces a linear ramp exactly, so the 2x2
        # sample average equals the pixel value for an integer-snapped box.
        ramp = np.add.outer(np.arange(8.0), 2.0 * np.arange(8.0))[None, :, :]
        out = self.single(ramp, BBox.from_xywh(2, 1, 4, 4), 4)
        assert np.allclose(out[0], ramp[0, 1:5, 2:6], atol=1e-12)

    def test_fractional_box_on_ramp_hits_bin_centers(self):
        ramp = np.add.outer(3.0 * np.arange(10.0), np.arange(10.0))[None, :, :]
        box = BBox.from_xywh(1.6, 2.3, 5.0, 4.0)
        g = 5
        out = self.single(ramp, box, g)
        x0, y0, _, _ = box.corners()
        for i in range(g):
            for j in range(g):
                cx = x0 + (j + 0.5) * box.w / g
                cy = y0 + (i + 0.5) * box.h / g
                assert out[0, i, j] == pytest.approx(3.0 * (cy - 0.5) + (cx - 0.5), abs=1e-9)

    def test_empty_intersection_rejected(self):
        f = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="intersect"):
            roi_align_stack(f, [(0, BBox.from_xywh(10, 10, 2, 2))], 2)

    def test_gradients(self):
        rng = np.random.RandomState(20)
        f = Tensor(rng.randn(1, 2, 6, 6), requires_grad=True)
        rois = [(0, BBox.from_xywh(0.7, 1.2, 3.3, 2.9)), (0, BBox.from_xywh(2.2, 0.4, 2.5, 4.1))]
        w = Tensor(np.random.RandomState(94).randn(2, 2, 3, 3))
        err = finite_difference_check(
            lambda: sum_all(mul(roi_align_stack(f, rois, 3), w)),
            {"f": f},
            rng=np.random.RandomState(21),
        )
        assert err < TOL

    def check_against_oracle(self, shape, rois, g, seed):
        rng = np.random.RandomState(seed)
        f = Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)
        upstream = rng.uniform(-1.0, 1.0, size=(len(rois), shape[1], g, g))
        out = roi_align_stack(f, rois, g)
        sum_all(mul(out, Tensor(upstream))).backward()
        want, want_grad = naive_roi_align(f.data, rois, g, upstream)
        assert out.shape == want.shape
        assert np.abs(out.data - want).max() <= self.ORACLE_ATOL
        assert np.abs(f.grad - want_grad).max() <= self.ORACLE_ATOL

    @pytest.mark.parametrize("g", [7, 20])
    def test_oracle_boxes_over_every_border(self, g):
        # 9x11 feature: boxes hang over the left, right, top, bottom and
        # every corner, and one covers the whole map with room to spare.
        rois = [
            (0, BBox.from_xywh(-2.5, 3.1, 4.0, 2.2)),
            (0, BBox.from_xywh(8.3, 2.0, 5.1, 3.0)),
            (1, BBox.from_xywh(2.2, -3.4, 3.3, 4.5)),
            (1, BBox.from_xywh(4.1, 6.6, 2.9, 5.0)),
            (0, BBox.from_xywh(-1.7, -2.2, 3.0, 3.1)),
            (1, BBox.from_xywh(9.2, 7.4, 4.0, 4.0)),
            (0, BBox.from_xywh(-1.2, 7.9, 2.5, 3.3)),
            (1, BBox.from_xywh(10.4, -0.9, 1.3, 2.0)),
            (1, BBox.from_xywh(-3.0, -3.0, 17.0, 15.0)),
        ]
        self.check_against_oracle((2, 3, 9, 11), rois, g, seed=30 + g)

    @pytest.mark.parametrize("g", [7, 20])
    @pytest.mark.parametrize("hw", [(1, 1), (1, 5), (5, 1), (2, 2), (2, 6), (6, 2)])
    def test_oracle_thin_feature_maps(self, hw, g):
        h, w = hw
        rois = [
            (0, BBox.from_xywh(0.2, 0.1, w - 0.3, h - 0.15)),
            (0, BBox.from_xywh(-0.8, -0.6, w + 1.5, h + 1.1)),
            (0, BBox.from_xywh(w - 0.4, h - 0.3, 1.7, 0.9)),
        ]
        self.check_against_oracle((1, 2, h, w), rois, g, seed=40 + h + 10 * w)

    @pytest.mark.parametrize("g", [7, 20])
    def test_oracle_many_rois_on_shared_and_separate_images(self, g):
        rng = np.random.RandomState(50 + g)
        rois = [
            (int(rng.randint(3)),
             BBox.from_xywh(rng.uniform(-2.0, 14.0), rng.uniform(-2.0, 10.0),
                            rng.uniform(2.5, 9.0), rng.uniform(2.5, 9.0)))
            for _ in range(12)
        ]
        rois += [(2, BBox.from_xywh(3.0, 2.0, 5.0, 4.0))] * 2  # the same box twice
        self.check_against_oracle((3, 4, 12, 16), rois, g, seed=60 + g)


class TestCorruption:
    def test_corrupted_gradient_detected(self):
        rng = np.random.RandomState(22)
        a = leaf(rng, 5)

        def build():
            return sum_all(mul(sigmoid(a), sigmoid(a)))

        clean = finite_difference_check(build, {"a": a}, rng=np.random.RandomState(23))
        assert clean < TOL
        with corrupt_gradient("sigmoid", 2.0):
            bad = finite_difference_check(build, {"a": a}, rng=np.random.RandomState(23))
        assert bad == pytest.approx(1.0, abs=0.2)
