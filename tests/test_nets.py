"""Network numerics against independent oracles.

The backprop implementation is checked two ways: a from-scratch forward
re-implementation (dual-route arithmetic check) and central finite
differences on every parameter and on the input (gradient oracle).
"""

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


def tiled(*arrays):
    """Copies of arrays as views tiling one vector, the layout AdamState takes."""
    flat = np.concatenate([np.ravel(a) for a in arrays])
    out, pos = [], 0
    for a in arrays:
        out.append(flat[pos:pos + np.size(a)].reshape(np.shape(a)))
        pos += np.size(a)
    return out


def scalar_objective(net, x, g):
    out, _ = net.forward(x)
    return float(np.sum(g * out))


class TestForward:
    def test_zero_net_outputs_zero(self):
        sizes = [3, 4, 4, 2]
        weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [np.zeros(b) for b in sizes[1:]]
        net = Mlp(sizes, "tanh", weights=weights, biases=biases)
        out, _ = net.forward(np.array([1.0, -2.0, 3.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_hand_composed_identity_chain(self):
        net = Mlp([1, 1, 1], "linear",
                   weights=[np.array([[1.0]]), np.array([[1.0]])],
                   biases=[np.zeros(1), np.zeros(1)])
        out, _ = net.forward(np.array([2.0]))
        assert out[0] == 2.0

    @pytest.mark.parametrize("in_dim,h,h2,out_dim,act", CHECK_SHAPES)
    def test_matches_independent_reimplementation(self, in_dim, h, h2, out_dim, act, rng):
        net = Mlp.create(in_dim, h, out_dim, act, rng)
        for _ in range(20):
            x = rng.normal(size=in_dim)
            out, _ = net.forward(x)
            np.testing.assert_allclose(out, forward_oracle(net, x), atol=1e-12)

    def test_batch_consistent_with_single(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        xs = rng.normal(size=(6, 3))
        batch_out, _ = net.forward(xs)
        for i in range(6):
            single, _ = net.forward(xs[i])
            np.testing.assert_allclose(batch_out[i], single, atol=1e-12)

    def test_tanh_outputs_bounded(self, rng):
        net = Mlp.create(4, 16, 3, "tanh", rng)
        out, _ = net.forward(rng.normal(size=4) * 100.0)
        assert np.all(np.abs(out) < 1.0)

    def test_dimension_mismatch_rejected(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        with pytest.raises(DimensionError):
            net.forward(np.zeros(4))


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
            x = rng.normal(size=in_dim)
            g = rng.normal(size=out_dim)
            _, cache = net.forward(x)
            grads, _ = net.backward(cache, g)
            worst = 0.0
            for tensor, grad in zip(net.params(), grads):
                flat_p = tensor.reshape(-1)
                flat_g = grad.reshape(-1)
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
            x = rng.normal(size=in_dim)
            g = rng.normal(size=out_dim)
            _, cache = net.forward(x)
            _, input_grad = net.backward(cache, g)
            for j in range(in_dim):
                bumped = x.copy(); bumped[j] += eps
                up = scalar_objective(net, bumped, g)
                bumped[j] -= 2 * eps
                dn = scalar_objective(net, bumped, g)
                numeric = (up - dn) / (2 * eps)
                assert self._relative_error(input_grad[j], numeric) < 1e-4

    def test_zero_output_gradient_zeroes_everything(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        _, cache = net.forward(rng.normal(size=3))
        grads, input_grad = net.backward(cache, np.zeros(2))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(input_grad, np.zeros(3))

    def test_batch_grad_is_sum_of_rows(self, rng):
        # batched backward must aggregate rows, matching summed singles
        net = Mlp.create(3, 8, 2, "linear", rng)
        xs = rng.normal(size=(4, 3))
        gs = rng.normal(size=(4, 2))
        _, cache = net.forward(xs)
        batch_grads, _ = net.backward(cache, gs)
        summed = [np.zeros_like(p) for p in net.params()]
        for i in range(4):
            _, c = net.forward(xs[i])
            grads, _ = net.backward(c, gs[i])
            for acc, g in zip(summed, grads):
                acc += g
        for got, want in zip(batch_grads, summed):
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestInit:
    def test_hidden_and_final_ranges(self, rng):
        net = Mlp.create(4, 32, 2, "tanh", rng)
        bound0 = 1.0 / np.sqrt(4)
        bound1 = 1.0 / np.sqrt(32)
        assert np.max(np.abs(net.weights[0])) <= bound0
        assert np.max(np.abs(net.weights[1])) <= bound1
        assert np.max(np.abs(net.weights[2])) <= 3e-3
        # near-midpoint initial policy: outputs start close to zero
        out, _ = net.forward(rng.uniform(0, 1, 4))
        assert np.max(np.abs(out)) < 0.1

    def test_create_deterministic_per_stream(self):
        a = Mlp.create(3, 8, 2, "tanh", stream(7, "init"))
        b = Mlp.create(3, 8, 2, "tanh", stream(7, "init"))
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)


class TestAdam:
    def test_first_step_scalar_oracle(self):
        # m_hat = g, v_hat = g^2 at t=1, so the step is -lr to within eps
        p = [np.array([0.0])]
        opt = AdamState(p, learning_rate=0.01)
        opt.step(p, [np.array([1.0])])
        expected = -0.01 * 1.0 / (1.0 + 1e-8)
        assert p[0][0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_keeps_params(self):
        p = [np.array([1.5, -2.0])]
        opt = AdamState(p, learning_rate=0.1)
        opt.step(p, [np.zeros(2)])
        np.testing.assert_array_equal(p[0], [1.5, -2.0])

    def test_determinism(self, rng):
        grads = tiled(rng.normal(size=(3, 2)), rng.normal(size=2))
        p1 = tiled(np.ones((3, 2)), np.ones(2))
        p2 = tiled(np.ones((3, 2)), np.ones(2))
        o1 = AdamState(p1, learning_rate=0.05)
        o2 = AdamState(p2, learning_rate=0.05)
        for _ in range(10):
            o1.step(p1, grads)
            o2.step(p2, grads)
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_separate_arrays_rejected(self):
        # two stand-alone arrays tile no one vector; copying them would
        # silently drop the in-place update
        with pytest.raises(DimensionError):
            AdamState([np.zeros(2), np.zeros(3)])
        p = tiled(np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionError):
            AdamState(p).step(p, [np.zeros(2), np.zeros(3)])

    def test_quadratic_convergence(self):
        # minimize (p - 3)^2; gradient 2(p - 3)
        p = [np.array([0.0])]
        opt = AdamState(p, learning_rate=0.05)
        for _ in range(2000):
            opt.step(p, [2.0 * (p[0] - 3.0)])
        assert p[0][0] == pytest.approx(3.0, abs=1e-3)


class TestSoftUpdate:
    def _pair(self, rng):
        t = Mlp.create(3, 8, 2, "tanh", rng)
        s = Mlp.create(3, 8, 2, "tanh", rng)
        return t, s

    def test_direct_substitution(self):
        t = Mlp([1, 1], "linear", weights=[np.array([[0.0]])], biases=[np.zeros(1)])
        s = Mlp([1, 1], "linear", weights=[np.array([[1.0]])], biases=[np.zeros(1)])
        soft_update(t, s, 0.005)
        assert t.weights[0][0, 0] == pytest.approx(0.005)

    def test_tau_one_copies(self, rng):
        t, s = self._pair(rng)
        soft_update(t, s, 1.0)
        for pt, ps in zip(t.params(), s.params()):
            np.testing.assert_array_equal(pt, ps)

    def test_tau_zero_identity(self, rng):
        t, s = self._pair(rng)
        before = [p.copy() for p in t.params()]
        soft_update(t, s, 0.0)
        for pt, pb in zip(t.params(), before):
            np.testing.assert_array_equal(pt, pb)

    def test_convex_combination(self, rng):
        t, s = self._pair(rng)
        t_before = [p.copy() for p in t.params()]
        soft_update(t, s, 0.3)
        for pt, pb, ps in zip(t.params(), t_before, s.params()):
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
        before = [p.copy() for p in s.params()]
        soft_update(t, s, 0.5)
        for ps, pb in zip(s.params(), before):
            np.testing.assert_array_equal(ps, pb)


class TestSerialization:
    def test_round_trip_zero_ulp(self, tmp_path, rng):
        net = Mlp.create(5, 16, 1, "linear", rng)
        path = tmp_path / "p.bin"
        save_mlp(net, path)
        back = load_mlp(path)
        assert back.layer_sizes == net.layer_sizes
        assert back.output_activation == net.output_activation
        x = rng.normal(size=5)
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
        opt = AdamState(net.params(), learning_rate=1e-3)
        for i in range(10000):
            x = rng.normal(size=3) * 10.0
            g = rng.normal(size=2) * 10.0
            _, cache = net.forward(x)
            grads, _ = net.backward(cache, g)
            opt.step(net.params(), grads)
            if i % 1000 == 999:
                net.check_finite()
        net.check_finite()
        for p in net.params():
            assert np.all(np.isfinite(p))


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
        ref = [p.copy() for p in net.params()]
        ref_target = [p.copy() for p in ref]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = AdamState(net.params(), learning_rate=5e-3)
        for t in range(1, 51):
            x = rng.normal(size=(8, 5))
            _, cache = net.forward(x)
            grads, _ = net.backward(cache, rng.normal(size=(8, 3)))
            opt.step(net.params(), grads)
            self.reference_adam(ref, [g.copy() for g in grads], m, v, t, 5e-3)
            soft_update(target, net, 0.05)
            self.reference_soft_update(ref_target, ref, 0.05)
            for got, want in zip(net.params(), ref):
                assert got.tobytes() == want.tobytes(), f"Adam diverged at step {t}"
            for got, want in zip(target.params(), ref_target):
                assert got.tobytes() == want.tobytes(), f"soft update diverged at step {t}"

    def test_params_are_views_of_flat(self, rng):
        net = Mlp.create(3, 8, 2, "tanh", rng)
        assert net.flat.size == sum(p.size for p in net.params())
        net.flat[...] = 0.0
        for p in net.params():
            assert not p.any()

    def test_check_finite_names_layer(self, rng):
        for layer, tensor in ((0, "weights"), (1, "biases"), (2, "weights")):
            net = Mlp.create(3, 8, 2, "tanh", rng)
            net.check_finite()
            getattr(net, tensor)[layer][..., -1] = np.nan if layer % 2 else np.inf
            with pytest.raises(ValidationError, match=f"layer {layer}"):
                net.check_finite()
