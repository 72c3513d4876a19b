import warnings

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
    cast,
    concat,
    conv2d_1x1,
    conv2d_3x3,
    conv_bn_relu,
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
from polymap.selftest import (
    _conv3x3_outputs,
    _same_bytes,
    naive_conv2d_3x3,
    naive_conv_bn_relu,
    naive_roi_align,
)

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


class TestDtypes:
    """Ops keep their inputs' dtype; only `cast` changes it."""

    def test_tensor_keeps_float32_and_float64(self):
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(2)).data.dtype == np.float64
        for other in ([1, 2], 3, np.ones(2, dtype=np.int64), np.ones(2, dtype=np.float16)):
            assert Tensor(other).data.dtype == np.float64

    def test_float32_graph_stays_float32(self):
        rng = np.random.RandomState(40)

        def leaf32(*shape):
            return Tensor(rng.uniform(-1.0, 1.0, size=shape).astype(np.float32),
                          requires_grad=True)

        x, w3, b3 = leaf32(2, 2, 6, 6), leaf32(3, 2, 3, 3), leaf32(3)
        gamma, beta, w1, b1 = leaf32(3), leaf32(3), leaf32(4, 3), leaf32(4)
        rm, rv = np.zeros(3), np.ones(3)
        h = relu(batch_norm(conv2d_3x3(x, w3, b3), gamma, beta, rm, rv, training=True))
        h = batch_norm(h, gamma, beta, rm, rv, training=False)
        h = sigmoid(conv2d_1x1(h, w1, b1))
        boxes = [(0, BBox.from_xywh(1.0, 1.5, 3.0, 2.5)), (1, BBox.from_xywh(0, 0, 6, 6))]
        h = roi_align_stack(h, boxes, 2)
        t = reshape(h, (2, 4, 4))
        t = layer_norm(t, leaf32(4), leaf32(4))
        t = softmax(scale(matmul(t, transpose(t, (0, 2, 1))), 0.5))
        out = cast(mean_all(mul(t, t)), np.float64)
        assert rm.dtype == rv.dtype == np.float64
        assert out.data.dtype == np.float64
        loss = attach_loss(out, lambda data: (float(data), np.ones_like(data)))
        loss.backward()
        for leaf_ in (x, w3, b3, gamma, beta, w1, b1):
            assert leaf_.grad.dtype == np.float32

    def test_cast_round_trip_and_float64_no_op(self):
        x = Tensor(np.linspace(-1.0, 1.0, 5).astype(np.float32), requires_grad=True)
        y = cast(x, np.float64)
        assert y.data.dtype == np.float64 and np.array_equal(y.data, x.data)
        sum_all(scale(y, 3.0)).backward()
        assert x.grad.dtype == np.float32 and np.array_equal(x.grad, np.full(5, 3.0))
        z = Tensor(np.ones(3))
        assert cast(z, np.float64).data is z.data

    def test_attach_loss_sees_float64(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        seen = []

        def loss(data):
            seen.append(data.dtype)
            return float(data.sum()), np.full(data.shape, 0.1)

        out = attach_loss(x, loss)
        assert seen == [np.float64] and out.data.dtype == np.float64
        out.backward()
        assert x.grad.dtype == np.float32


class TestConvBnRelu:
    """The fused op against `naive_conv_bn_relu`, the three ops it replaces."""

    NAMES = ("x", "w", "b", "gamma", "beta")
    # Inference mode folds batch norm into the conv, so it matches the three
    # ops to rounding: max |diff| <= tol * max |ref|.
    FOLD_TOL = {np.float32: 1e-5, np.float64: 1e-12}

    @staticmethod
    def inputs(dtype, n, seed):
        rng = np.random.RandomState(seed)
        arrays = {
            "x": rng.uniform(-1.0, 1.0, size=(n, 3, 5, 6)),
            "w": rng.uniform(-0.5, 0.5, size=(4, 3, 3, 3)),
            "b": rng.uniform(-0.5, 0.5, size=4),
            "gamma": rng.uniform(0.5, 1.5, size=4),
            "beta": rng.uniform(-0.5, 0.5, size=4),
        }
        stats = (rng.uniform(-0.5, 0.5, size=4), rng.uniform(0.5, 2.0, size=4))
        upstream = rng.standard_normal((n, 4, 5, 6)).astype(dtype)
        return {k: a.astype(dtype) for k, a in arrays.items()}, stats, upstream

    def run(self, op, arrays, stats, upstream, training, x_grad=True):
        """Output, the five gradients and the running statistics after one backward."""
        leaves = {k: Tensor(a.copy(), requires_grad=(k != "x" or x_grad))
                  for k, a in arrays.items()}
        mean, var = stats[0].copy(), stats[1].copy()
        out = op(*(leaves[k] for k in self.NAMES), mean, var, training)
        sum_all(mul(out, Tensor(upstream))).backward()
        grads = {k: t.grad for k, t in leaves.items()}
        return out, grads, mean, var

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    def test_training_equals_the_three_ops(self, dtype, n):
        case = self.inputs(dtype, n, seed=70 + n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = self.run(conv_bn_relu, *case, training=True)
            want = self.run(naive_conv_bn_relu, *case, training=True)
        assert sum("batch size < 2" in str(w.message) for w in caught) == (2 if n == 1 else 0)
        out, grads, mean, var = got
        assert out.op == "conv_bn_relu" and out.data.dtype == dtype
        assert np.array_equal(out.data, want[0].data)
        for k in self.NAMES:
            assert grads[k].dtype == dtype, k
            assert np.array_equal(grads[k], want[1][k]), k
        assert np.array_equal(mean, want[2]) and np.array_equal(var, want[3])
        assert not np.array_equal(mean, case[1][0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_folds_to_within_rounding(self, dtype):
        case = self.inputs(dtype, 3, seed=80)
        out, grads, mean, var = self.run(conv_bn_relu, *case, training=False)
        want = self.run(naive_conv_bn_relu, *case, training=False)
        tol = self.FOLD_TOL[dtype]

        def close(a, b):
            return np.abs(a - b).max() <= tol * np.abs(b).max()

        assert out.data.dtype == dtype and close(out.data, want[0].data)
        assert (out.data > 0).any() and (out.data == 0).any()
        for k in self.NAMES:
            assert grads[k].dtype == dtype and close(grads[k], want[1][k]), k
        assert np.array_equal(mean, case[1][0]) and np.array_equal(var, case[1][1])

    @pytest.mark.parametrize("training", [True, False])
    def test_input_without_gradient(self, training):
        # The first stem block reads the image, which takes no gradient.
        case = self.inputs(np.float64, 2, seed=90)
        _, grads, _, _ = self.run(conv_bn_relu, *case, training=training, x_grad=False)
        _, want, _, _ = self.run(naive_conv_bn_relu, *case, training=training, x_grad=False)
        assert grads["x"] is None
        for k in self.NAMES[1:]:
            assert np.abs(grads[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k

    @pytest.mark.parametrize("training", [True, False])
    def test_finite_differences(self, training):
        rng = np.random.RandomState(24)
        x, w, b, beta = leaf(rng, 2, 2, 4, 4), leaf(rng, 3, 2, 3, 3), leaf(rng, 3), leaf(rng, 3)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
        mean, var = rng.uniform(-0.5, 0.5, 3), rng.uniform(0.5, 2.0, 3)
        m = Tensor(np.random.RandomState(92).randn(2, 3, 4, 4))

        def build():
            stats = (np.zeros(3), np.ones(3)) if training else (mean, var)
            return sum_all(mul(conv_bn_relu(x, w, b, gamma, beta, *stats, training), m))

        err = finite_difference_check(
            build, {"x": x, "w": w, "b": b, "gamma": gamma, "beta": beta},
            rng=np.random.RandomState(25))
        assert err < TOL

    @pytest.mark.parametrize("training", [True, False])
    def test_leaves_its_incoming_gradient_alone(self, training):
        # `add` hands one gradient array to both operands, and `_accum`
        # keeps it by reference as `other.grad`.
        arrays, stats, upstream = self.inputs(np.float64, 2, seed=100)
        leaves = [Tensor(arrays[k], requires_grad=True) for k in self.NAMES]
        other = Tensor(np.zeros_like(upstream), requires_grad=True)
        out = conv_bn_relu(*leaves, *stats, training)
        sum_all(mul(add(out, other), Tensor(upstream))).backward()
        assert np.array_equal(other.grad, upstream)

    def test_shape_errors_name_the_op(self):
        x, w = Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2, 3, 3)))
        b, stats = Tensor(np.zeros(3)), (np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="conv_bn_relu: input has 2 channels"):
            conv_bn_relu(x, Tensor(np.ones((3, 5, 3, 3))), b, b, b, *stats, False)
        with pytest.raises(ValueError, match="conv_bn_relu: gamma shape"):
            conv_bn_relu(x, w, b, Tensor(np.ones(2)), b, *stats, True)


class TestConvAgainstBatchedOracle:
    """The per-image conv against `naive_conv2d_3x3`, which im2cols the whole batch."""

    OPS = pytest.mark.parametrize(
        "op, naive, bn", [(conv2d_3x3, naive_conv2d_3x3, False),
                          (conv_bn_relu, naive_conv_bn_relu, True)],
        ids=["conv2d_3x3", "conv_bn_relu"])

    @staticmethod
    def case(shape, f, dtype, seed, signed_zeros=False):
        rng = np.random.RandomState(seed)
        n, c, h, w = shape
        arrays = {"x": rng.uniform(-1.0, 1.0, size=shape),
                  "w": rng.uniform(-0.5, 0.5, size=(f, c, 3, 3)),
                  "b": rng.uniform(-0.5, 0.5, size=f),
                  "gamma": rng.uniform(0.5, 1.5, size=f),
                  "beta": rng.uniform(-0.5, 0.5, size=f)}
        arrays = {k: a.astype(dtype) for k, a in arrays.items()}
        upstream = rng.standard_normal((n, f, h, w)).astype(dtype)
        if signed_zeros:
            # What a ReLU mask passes on: +0.0 and -0.0 where it is off,
            # here in every channel of each image's top rows too, so some
            # input-gradient pixels sum only zeros.
            off = rng.uniform(size=upstream.shape) < 0.5
            off[:, :, :(h + 1) // 2] = True
            upstream[off] *= 0.0
            assert np.signbit(upstream[off]).any() and not np.signbit(upstream[off]).all()
        return arrays, upstream

    def check(self, op, naive, bn, x_grad, arrays, upstream):
        # Output, every gradient and, with batch norm, both running buffers.
        got = _conv3x3_outputs(op, arrays, upstream, x_grad, bn)
        want = _conv3x3_outputs(naive, arrays, upstream, x_grad, bn)
        assert len(got) == (8 if bn else 4)
        assert (got[1] is None) == (not x_grad) and got[0].dtype == arrays["x"].dtype
        for a, b in zip(got, want):
            assert _same_bytes(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 3, 5, 6), (3, 3, 5, 6), (3, 1, 7, 4), (2, 2, 1, 3),
                                       (3, 2, 6, 1), (2, 3, 4, 1)])
    @pytest.mark.parametrize("x_grad", [True, False])
    @OPS
    def test_equal_byte_for_byte(self, op, naive, bn, x_grad, shape, dtype):
        self.check(op, naive, bn, x_grad, *self.case(shape, 4, dtype, seed=110))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 3, 5, 6), (2, 2, 4, 1)])
    @pytest.mark.parametrize("x_grad", [True, False])
    @OPS
    def test_signed_zero_gradients(self, op, naive, bn, x_grad, shape, dtype):
        self.check(op, naive, bn, x_grad, *self.case(shape, 4, dtype, seed=111, signed_zeros=True))

    @pytest.mark.parametrize("shape, f", [((2, 12, 64, 64), 24), ((3, 24, 20, 20), 24)],
                             ids=["64x64", "20x20"])
    @pytest.mark.parametrize("x_grad", [True, False])
    @OPS
    def test_benchmark_sizes(self, op, naive, bn, x_grad, shape, f):
        # Inner dimensions long enough to cross BLAS blocking boundaries.
        self.check(op, naive, bn, x_grad, *self.case(shape, f, np.float32, seed=112))

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @OPS
    def test_one_pixel_images_to_rounding(self, op, naive, bn, dtype, tol):
        # A 1x1 image's padded col2im product takes another BLAS path than
        # the oracle's, so its input gradient matches to rounding; the
        # output and every other gradient still match byte for byte.
        arrays, upstream = self.case((2, 3, 1, 1), 4, dtype, seed=113)
        got = _conv3x3_outputs(op, arrays, upstream, True, bn)
        want = _conv3x3_outputs(naive, arrays, upstream, True, bn)
        assert got[1].dtype == dtype
        assert np.abs(got[1] - want[1]).max() <= tol * np.abs(want[1]).max()
        for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):
            assert _same_bytes(a, b)


def closure_bytes(node: Tensor) -> int:
    """Bytes of the distinct buffers reachable from a node's backward closure."""
    owners = {}

    def visit(obj):
        if isinstance(obj, Tensor):
            visit(obj.data)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)

    for cell in node._backward.__closure__ or ():
        visit(cell.cell_contents)
    return sum(owners.values())


class TestConvKeepsNoColumns:
    """A conv node keeps no im2col columns, which are nine times its input."""

    @pytest.mark.parametrize("op", ["conv2d_3x3", "conv_bn_relu"])
    def test_backward_holds_at_most_input_xhat_and_output(self, op):
        rng = np.random.RandomState(120)
        x = leaf(rng, 2, 4, 16, 12)
        params = [leaf(rng, 4, 4, 3, 3), leaf(rng, 4)]
        if op == "conv_bn_relu":
            params += [leaf(rng, 4), leaf(rng, 4)]
            out = conv_bn_relu(x, *params, np.zeros(4), np.ones(4), True)
            # Input, x-hat, output and the four float64 inverse deviations.
            kept = x.data.nbytes + 2 * out.data.nbytes + 4 * 8
        else:
            out = conv2d_3x3(x, *params)
            kept = x.data.nbytes + out.data.nbytes
        kept += sum(p.data.nbytes for p in params)
        assert closure_bytes(out) <= kept
        sum_all(out).backward()
        assert x.grad.shape == x.data.shape


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
