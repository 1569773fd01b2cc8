"""Network numerics against independent oracles.

The backprop implementation is checked two ways: a from-scratch forward
re-implementation (dual-route arithmetic check) and central finite
differences on every parameter and on the input (gradient oracle).
"""

import math
import re
import struct

import numpy as np
import pytest

from edgesched.domain import DimensionError, ValidationError
from edgesched.nets import AdamState, Mlp, load_mlp, save_mlp, soft_update
from edgesched.nets import ParamLoadError
from edgesched.rng import stream

CHECK_SHAPES = [
    (3, 8, 8, 2, "tanh"),
    (5, 16, 16, 1, "linear"),
]


def forward_oracle(net, x):
    """Independent re-implementation of the forward arithmetic."""
    h = np.asarray(x, dtype=np.float64)
    n_layers = len(net.layer_sizes) - 1
    for l in range(n_layers):
        h = h @ net.weights[l] + net.biases[l]
        if l < n_layers - 1:
            h = np.maximum(h, 0.0)
        elif net.output_activation == "tanh":
            h = np.tanh(h)
    return h


def split(net, vec):
    """Copies of the tensors W0, b0, W1, b1, ... of a vector laid out like net.flat."""
    shapes = [t.shape for pair in zip(net.weights, net.biases) for t in pair]
    bounds = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(vec.copy(), bounds), shapes)]


def joined(tensors):
    return np.concatenate([t.ravel() for t in tensors])


def full_backward(net, cache, g):
    """(parameter gradient vector, input gradient) from every product of
    backpropagation, in backward's order: the reference for the products that
    backward skips. Each layer's pre- and post-activation is recomputed from
    cache.x and the weights; nothing else of the cache is read."""
    pre, post, h = [], [], cache.x
    for l in range(net.n_layers):
        pre.append(h @ net.weights[l] + net.biases[l])
        if l < net.n_layers - 1:
            h = np.maximum(pre[l], 0.0)
        else:
            h = np.tanh(pre[l]) if net.output_activation == "tanh" else pre[l]
        post.append(h)
    g = np.asarray(g, dtype=np.float64)
    dz = g * (1.0 - post[-1] ** 2) if net.output_activation == "tanh" else g
    grads = []
    for l in range(net.n_layers - 1, -1, -1):
        a_prev = cache.x if l == 0 else post[l - 1]
        grads[:0] = [a_prev.T @ dz, np.sum(dz, axis=0)]
        da = dz @ net.weights[l].T
        if l > 0:
            dz = da * (pre[l - 1] > 0.0)
    return joined(grads), da


def scalar_objective(net, x, g):
    out, _ = net.forward(x)
    return float(np.sum(g * out))


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = Mlp([3, 4, 4, 2], "tanh")  # a new net's parameters are all zero
        out, _ = net.forward(np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_hand_composed_identity_chain(self):
        net = Mlp([1, 1, 1], "linear")
        net.weights[0][...] = net.weights[1][...] = 1.0
        out, _ = net.forward(np.array([[2.0]]))
        assert out[0, 0] == 2.0

    @pytest.mark.parametrize("in_dim,h,h2,out_dim,act", CHECK_SHAPES)
    def test_matches_independent_reimplementation(self, in_dim, h, h2, out_dim, act, rng):
        net = Mlp.create(in_dim, h, out_dim, act, rng)
        for _ in range(20):
            x = rng.normal(size=(1, in_dim))
            out, _ = net.forward(x)
            np.testing.assert_allclose(out, forward_oracle(net, x), atol=1e-12)

    def test_batch_consistent_with_single(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        xs = rng.normal(size=(6, 3))
        batch_out, _ = net.forward(xs)
        for i in range(6):
            single, _ = net.forward(xs[i:i + 1])
            np.testing.assert_allclose(batch_out[i], single[0], atol=1e-12)

    @pytest.mark.parametrize("in_dim,hidden,out_dim,act", [
        (32, 128, 16, "tanh"),     # the TD3 actor of the default 8 services
        (32, 128, 160, "linear"),  # the DQN value net, 10 levels per head
        (48, 128, 1, "linear"),    # a critic
    ])
    @pytest.mark.parametrize("e", [1, 2, 7, 300])
    def test_stacked_rows_match_single_rows_bit_for_bit(self, in_dim, hidden, out_dim, act,
                                                        e, rng):
        """A stack of (1, in) rows, as a batched greedy act sends, gives each
        row the bytes of its own one-row call."""
        net = Mlp.create(in_dim, hidden, out_dim, act, rng)
        xs = rng.uniform(0.0, 1.0, size=(e, in_dim))
        stacked, cache = net.forward(xs[:, None, :])
        assert stacked.shape == (e, 1, out_dim) and cache.x.shape == (e, 1, in_dim)
        singles = np.array([net.forward(x[None, :])[0][0] for x in xs])
        assert stacked[:, 0, :].tobytes() == singles.tobytes()

    def test_stacked_cache_has_no_backward(self, rng):
        net = Mlp.create(3, 8, 1, "linear", rng)
        out, cache = net.forward(rng.normal(size=(4, 1, 3)))
        with pytest.raises(ValidationError, match="cache"):
            net.backward(cache, np.ones_like(out))

    def test_tanh_outputs_bounded(self, rng):
        net = Mlp.create(4, 16, 3, "tanh", rng)
        out, _ = net.forward(rng.normal(size=(1, 4)) * 100.0)
        assert np.all(np.abs(out) < 1.0)

    def test_dimension_mismatch_rejected(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        # a wrong width, and the right width outside a (B, in) batch or (E, B, in) stack
        for shape in [(1, 4), (3,), (), (1, 1, 1, 3)]:
            with pytest.raises(DimensionError, match=re.escape(f"input shape {shape}")):
                net.forward(np.zeros(shape))

    @pytest.mark.parametrize("act", ["tanh", "linear"])
    @pytest.mark.parametrize("shape", [(5, 3), (4, 1, 3)])
    def test_input_is_never_written(self, act, shape, rng):
        """forward leaves the caller's x as it was and gives the same bytes with
        reuse on and off, the second reuse call writing into the first's arrays."""
        net = Mlp.create(3, 8, 2, act, rng)
        xs = [rng.normal(size=shape) for _ in range(2)]
        before = [x.tobytes() for x in xs]
        plain = [net.forward(x)[0].tobytes() for x in xs]
        reused = [net.forward(x, reuse=True)[0].tobytes() for x in xs]
        assert reused == plain
        assert [x.tobytes() for x in xs] == before


class TestBackwardFiniteDifferences:
    """Every analytic gradient vs central differences, h=1e-5, rel err < 1e-4."""

    @staticmethod
    def _relative_error(analytic, numeric):
        denom = max(abs(analytic), abs(numeric), 1e-8)
        return abs(analytic - numeric) / denom

    @pytest.mark.parametrize("in_dim,h,h2,out_dim,act", CHECK_SHAPES)
    def test_param_grads(self, in_dim, h, h2, out_dim, act):
        eps = 1e-5
        for trial in range(5):
            rng = stream(trial, "fd-check")
            net = Mlp.create(in_dim, h, out_dim, act, rng)
            x = rng.normal(size=(1, in_dim))
            g = rng.normal(size=(1, out_dim))
            _, cache = net.forward(x)
            flat_g = net.backward(cache, g, grad=np.empty(net.flat.size))
            flat_p = net.flat
            worst = 0.0
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + eps
                up = scalar_objective(net, x, g)
                flat_p[j] = orig - eps
                dn = scalar_objective(net, x, g)
                flat_p[j] = orig
                numeric = (up - dn) / (2 * eps)
                worst = max(worst, self._relative_error(flat_g[j], numeric))
            assert worst < 1e-4, f"trial {trial}: max rel err {worst:.3e}"

    @pytest.mark.parametrize("in_dim,h,h2,out_dim,act", CHECK_SHAPES)
    def test_input_grad(self, in_dim, h, h2, out_dim, act):
        eps = 1e-5
        for trial in range(5):
            rng = stream(trial, "fd-input")
            net = Mlp.create(in_dim, h, out_dim, act, rng)
            x = rng.normal(size=(1, in_dim))
            g = rng.normal(size=(1, out_dim))
            _, cache = net.forward(x)
            input_grad = net.backward(cache, g)
            for j in range(in_dim):
                bumped = x.copy(); bumped[0, j] += eps
                up = scalar_objective(net, bumped, g)
                bumped[0, j] -= 2 * eps
                dn = scalar_objective(net, bumped, g)
                numeric = (up - dn) / (2 * eps)
                assert self._relative_error(input_grad[0, j], numeric) < 1e-4

    def test_zero_output_gradient_zeroes_everything(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        _, cache = net.forward(rng.normal(size=(1, 3)))
        grad = net.backward(cache, np.zeros((1, 2)), grad=np.empty(net.flat.size))
        np.testing.assert_array_equal(grad, np.zeros_like(grad))
        np.testing.assert_array_equal(net.backward(cache, np.zeros((1, 2))), np.zeros((1, 3)))

    def test_batch_grad_is_sum_of_rows(self, rng):
        # batched backward must aggregate rows, matching summed singles
        net = Mlp.create(3, 8, 2, "linear", rng)
        xs = rng.normal(size=(4, 3))
        gs = rng.normal(size=(4, 2))
        _, cache = net.forward(xs)
        batch_grad = net.backward(cache, gs, grad=np.empty(net.flat.size))
        summed = np.zeros(net.flat.size)
        for i in range(4):
            _, c = net.forward(xs[i:i + 1])
            summed += net.backward(c, gs[i:i + 1], grad=np.empty(net.flat.size))
        np.testing.assert_allclose(batch_grad, summed, atol=1e-10)


class TestInit:
    def test_hidden_and_final_ranges(self, rng):
        net = Mlp.create(4, 32, 2, "tanh", rng)
        bound0 = 1.0 / np.sqrt(4)
        bound1 = 1.0 / np.sqrt(32)
        assert np.max(np.abs(net.weights[0])) <= bound0
        assert np.max(np.abs(net.weights[1])) <= bound1
        assert np.max(np.abs(net.weights[2])) <= 3e-3
        # near-midpoint initial policy: outputs start close to zero
        out, _ = net.forward(rng.uniform(0, 1, (1, 4)))
        assert np.max(np.abs(out)) < 0.1

    def test_create_deterministic_per_stream(self):
        a = Mlp.create(3, 8, 2, "tanh", stream(7, "init"))
        b = Mlp.create(3, 8, 2, "tanh", stream(7, "init"))
        np.testing.assert_array_equal(a.flat, b.flat)


class TestAdam:
    def test_first_step_scalar_oracle(self):
        # m_hat = g, v_hat = g^2 at t=1, so the step is -lr to within eps
        p = np.array([0.0])
        opt = AdamState(1, learning_rate=0.01)
        opt.step(p, np.array([1.0]))
        expected = -0.01 * 1.0 / (1.0 + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_keeps_params(self):
        p = np.array([1.5, -2.0])
        opt = AdamState(2, learning_rate=0.1)
        opt.step(p, np.zeros(2))
        np.testing.assert_array_equal(p, [1.5, -2.0])

    def test_determinism(self, rng):
        grad = rng.normal(size=8)
        p1, p2 = np.ones(8), np.ones(8)
        o1 = AdamState(8, learning_rate=0.05)
        o2 = AdamState(8, learning_rate=0.05)
        for _ in range(10):
            o1.step(p1, grad)
            o2.step(p2, grad)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("p_size, g_size", [(3, 2), (2, 3), (3, 3)])
    def test_size_mismatch_rejected(self, p_size, g_size):
        with pytest.raises(DimensionError, match="count mismatch"):
            AdamState(2).step(np.zeros(p_size), np.zeros(g_size))

    def test_quadratic_convergence(self):
        # minimize (p - 3)^2; gradient 2(p - 3)
        p = np.array([0.0])
        opt = AdamState(1, learning_rate=0.05)
        for _ in range(2000):
            opt.step(p, 2.0 * (p - 3.0))
        assert p[0] == pytest.approx(3.0, abs=1e-3)


class TestSoftUpdate:
    def _pair(self, rng):
        t = Mlp.create(3, 8, 2, "tanh", rng)
        s = Mlp.create(3, 8, 2, "tanh", rng)
        return t, s

    def test_direct_substitution(self):
        t, s = Mlp([1, 1], "linear"), Mlp([1, 1], "linear")
        s.weights[0][...] = 1.0
        soft_update(t, s, 0.005)
        assert t.weights[0][0, 0] == pytest.approx(0.005)

    def test_tau_one_copies(self, rng):
        t, s = self._pair(rng)
        soft_update(t, s, 1.0)
        np.testing.assert_array_equal(t.flat, s.flat)

    def test_tau_zero_identity(self, rng):
        t, s = self._pair(rng)
        before = t.flat.copy()
        soft_update(t, s, 0.0)
        np.testing.assert_array_equal(t.flat, before)

    def test_convex_combination(self, rng):
        t, s = self._pair(rng)
        pb = t.flat.copy()
        soft_update(t, s, 0.3)
        pt, ps = t.flat, s.flat
        lo = np.minimum(pb, ps) - 1e-15
        hi = np.maximum(pb, ps) + 1e-15
        assert np.all(pt >= lo) and np.all(pt <= hi)
        np.testing.assert_allclose(pt, 0.7 * pb + 0.3 * ps, atol=1e-15)

    def test_architecture_mismatch(self, rng):
        t = Mlp.create(3, 8, 2, "tanh", rng)
        s = Mlp.create(3, 4, 2, "tanh", rng)
        with pytest.raises((ValidationError, DimensionError)):
            soft_update(t, s, 0.5)

    def test_source_untouched(self, rng):
        t, s = self._pair(rng)
        before = s.flat.copy()
        soft_update(t, s, 0.5)
        np.testing.assert_array_equal(s.flat, before)


class TestSerialization:
    def test_round_trip_zero_ulp(self, tmp_path, rng):
        net = Mlp.create(5, 16, 1, "linear", rng)
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        back = load_mlp(path)
        assert back.layer_sizes == net.layer_sizes
        assert back.output_activation == net.output_activation
        x = rng.normal(size=(1, 5))
        a, _ = net.forward(x)
        b, _ = back.forward(x)
        np.testing.assert_array_equal(a, b)

    def test_expect_sizes_guard(self, tmp_path, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        with pytest.raises(ParamLoadError):
            load_mlp(path, expect_sizes=[4, 8, 8, 2])

    def test_truncated_file(self, tmp_path, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ParamLoadError):
            load_mlp(path)

    def test_bad_magic(self, tmp_path, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ParamLoadError):
            load_mlp(path)

    def test_bad_version(self, tmp_path, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 0xEE  # version field sits right after the 8-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(ParamLoadError):
            load_mlp(path)

    @pytest.mark.parametrize("sizes", [[0, 3], [3, 0, 2]])
    def test_zero_layer_size(self, tmp_path, sizes):
        path = tmp_path / "p.bin"
        n_params = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        path.write_bytes(b"EMLPNET1" + struct.pack(f"<II{len(sizes)}IB", 1, len(sizes),
                                                   *sizes, 0) + bytes(8 * n_params))
        with pytest.raises(ParamLoadError, match=re.escape(
                f"{path}: layer sizes must be >= 1, got {sizes}")):
            load_mlp(path)

    def test_trailing_garbage(self, tmp_path, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ParamLoadError):
            load_mlp(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, tmp_path, rng, bad):
        net = Mlp.create(3, 8, 2, "linear", rng)
        net.flat[5] = bad
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        with pytest.raises(ParamLoadError, match="non-finite"):
            load_mlp(path)


class TestTrainingFuzz:
    def test_10000_random_steps_stay_finite(self):
        rng = stream(5, "fuzz")
        net = Mlp.create(3, 8, 2, "tanh", rng)
        opt = AdamState(net.flat.size, learning_rate=1e-3)
        for i in range(10000):
            x = rng.normal(size=(1, 3)) * 10.0
            g = rng.normal(size=(1, 2)) * 10.0
            _, cache = net.forward(x)
            opt.step(net.flat, net.backward(cache, g, grad=opt.grad))
            if i % 1000 == 999:
                net.check_finite()
        net.check_finite()
        assert np.all(np.isfinite(net.flat))


class TestFlatParameters:
    """The flat-vector updates against per-tensor reference loops."""

    @staticmethod
    def reference_adam(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)

    @staticmethod
    def reference_soft_update(target, source, tau):
        for tp, sp in zip(target, source):
            tp *= 1.0 - tau
            tp += tau * sp

    def test_adam_and_soft_update_bit_identical_over_50_steps(self):
        rng = stream(21, "flat-ref")
        net = Mlp.create(5, 16, 3, "tanh", rng)
        target = net.copy()
        ref = split(net, net.flat)
        ref_target = [p.copy() for p in ref]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = AdamState(net.flat.size, learning_rate=5e-3)
        for t in range(1, 51):
            x = rng.normal(size=(8, 5))
            _, cache = net.forward(x)
            grad = net.backward(cache, rng.normal(size=(8, 3)), grad=opt.grad)
            opt.step(net.flat, grad)
            self.reference_adam(ref, split(net, grad), m, v, t, 5e-3)
            soft_update(target, net, 0.05)
            self.reference_soft_update(ref_target, ref, 0.05)
            assert net.flat.tobytes() == joined(ref).tobytes(), f"Adam diverged at step {t}"
            assert target.flat.tobytes() == joined(ref_target).tobytes(), \
                f"soft update diverged at step {t}"

    def test_params_are_views_of_flat(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        tensors = [*net.weights, *net.biases]
        assert net.flat.size == sum(p.size for p in tensors)
        net.flat[...] = 0.0
        for p in tensors:
            assert not p.any()

    def test_check_finite_names_layer(self, rng):
        for layer, tensor in ((0, "weights"), (1, "biases"), (2, "weights")):
            net = Mlp.create(3, 8, 2, "tanh", rng)
            net.check_finite()
            getattr(net, tensor)[layer][..., -1] = np.nan if layer % 2 else np.inf
            with pytest.raises(ValidationError, match=f"layer {layer}"):
                net.check_finite()


class TestGradientBuffer:
    """backward(..., grad=v): parameter gradients written into a caller's vector."""

    @pytest.mark.parametrize("in_dim, h, h2, out_dim, act", CHECK_SHAPES)
    def test_grad_vector_is_returned_and_fully_written(self, in_dim, h, h2, out_dim, act,
                                                       rng):
        net = Mlp([in_dim, h, h2, out_dim], act)
        net.flat[...] = rng.normal(size=net.flat.size) * 0.5
        _, cache = net.forward(rng.normal(size=(6, in_dim)))
        g = rng.normal(size=(6, out_dim))
        fresh = net.backward(cache, g, grad=np.zeros(net.flat.size))
        vec = np.full(net.flat.size, np.nan)  # every entry must be written
        assert net.backward(cache, g, grad=vec) is vec
        assert np.array_equal(vec, fresh)
        # a later call overwrites the vector; the other one is untouched
        net.backward(cache, 2.0 * g, grad=vec)
        assert np.array_equal(vec, 2.0 * fresh)

    @pytest.mark.parametrize("bad", [np.empty(10), np.empty(12), np.empty((1, 13)),
                                     np.empty(13, dtype=np.float32), np.empty(26)[::2]])
    def test_wrong_out_rejected(self, rng, bad):
        net = Mlp([2, 3, 1], "linear")  # 13 parameters
        _, cache = net.forward(rng.normal(size=(1, 2)))
        with pytest.raises(DimensionError, match="13 values"):
            net.backward(cache, np.ones((1, 1)), grad=bad)

    def test_adam_takes_its_own_gradient_vector(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        twin = net.copy()
        opt, twin_opt = (AdamState(n.flat.size, learning_rate=1e-2) for n in (net, twin))
        assert opt.grad.shape == net.flat.shape
        for _ in range(5):
            x, g = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
            _, cache = net.forward(x)
            opt.step(net.flat, net.backward(cache, g, grad=opt.grad))
            _, cache = twin.forward(x)
            twin_opt.step(twin.flat, twin.backward(cache, g, grad=np.empty(twin.flat.size)))
        assert net.flat.tobytes() == twin.flat.tobytes()


class TestSkippedProducts:
    """backward computes either the parameter or the input gradient, never both."""

    @pytest.mark.parametrize("in_dim, h, h2, out_dim, act", CHECK_SHAPES)
    @pytest.mark.parametrize("batch", [None, 1, 7])
    def test_bit_equal_to_full_backpropagation(self, in_dim, h, h2, out_dim, act, batch,
                                               rng):
        net = Mlp.create(in_dim, h, out_dim, act, rng)
        # batch None: one row drawn 1-D and sent as a (1, in) view, as acts send
        rows = () if batch is None else (batch,)
        x, g = rng.normal(size=(*rows, in_dim)), rng.normal(size=(*rows, out_dim))
        if batch is None:
            x, g = x[None, :], g[None, :]
        _, cache = net.forward(x)
        want_grad, want_input = full_backward(net, cache, g)
        input_grad = net.backward(cache, g)
        assert input_grad.shape == x.shape
        assert np.array_equal(input_grad, want_input)
        assert np.array_equal(net.backward(cache, g, grad=np.empty(net.flat.size)), want_grad)


class TestForwardReuse:
    """forward(x, reuse=True): activations written into the net's kept arrays."""

    @pytest.mark.parametrize("in_dim, h, h2, out_dim, act", CHECK_SHAPES)
    def test_reuse_is_bit_equal_and_overwrites_last_reuse(self, in_dim, h, h2, out_dim,
                                                          act, rng):
        net = Mlp.create(in_dim, h, out_dim, act, rng)
        xs = [rng.normal(size=(5, in_dim)) for _ in range(3)]
        fresh = [net.forward(x) for x in xs]
        first_out, first = net.forward(xs[0], reuse=True)
        out, cache = net.forward(xs[1], reuse=True)
        for got, want in zip(cache.post, first.post):
            assert got is want  # the first reuse call's arrays, overwritten
        assert out is first_out
        for got, want in zip(cache.post, fresh[1][1].post):
            assert np.array_equal(got, want)
        ones = np.ones((5, out_dim))
        assert np.array_equal(net.backward(cache, ones), net.backward(fresh[1][1], ones))
        assert np.array_equal(net.backward(cache, ones, grad=np.empty(net.flat.size)),
                              net.backward(fresh[1][1], ones, grad=np.empty(net.flat.size)))

    def test_plain_calls_and_other_batch_sizes_get_own_arrays(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        kept, _ = net.forward(rng.normal(size=(4, 3)), reuse=True)
        snapshot = kept.copy()
        plain, _ = net.forward(rng.normal(size=(4, 3)))
        other, _ = net.forward(rng.normal(size=(6, 3)), reuse=True)
        single, _ = net.forward(rng.normal(size=(1, 3)), reuse=True)
        assert plain is not kept and other is not kept
        assert np.array_equal(kept, snapshot)
        want, _ = net.forward(np.ones((1, 3)))
        got, _ = net.forward(np.ones((1, 3)), reuse=True)  # a 1-row batch, as the last reuse
        assert single is got
        assert np.array_equal(got, want)


def test_missing_parameter_file_names_path(tmp_path):
    path = tmp_path / "absent.bin"
    with pytest.raises(ParamLoadError, match=re.escape(f"{path}: No such file")):
        load_mlp(path)
