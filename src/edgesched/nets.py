"""Dense feedforward networks with analytic backpropagation.

Self-contained numpy numerics: ReLU hidden layers, tanh or linear output,
Adam with bias correction, soft target blending, and a versioned binary
parameter format. No autodiff framework; gradients are exact and checked
against finite differences in the test suite.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import DimensionError, ValidationError

__all__ = [
    "Mlp",
    "ForwardCache",
    "AdamState",
    "soft_update",
    "save_mlp",
    "load_mlp",
    "PARAM_MAGIC",
    "PARAM_VERSION",
]

_ACTIVATIONS = ("linear", "tanh")


@dataclass
class ForwardCache:
    """Activations retained by forward() so backward() can run."""

    x: np.ndarray                 # input, shape (B, in)
    pre: list[np.ndarray]         # pre-activations per layer
    post: list[np.ndarray]        # post-activations per layer
    squeeze: bool                 # input arrived as a 1-D vector


def _spans(layer_sizes: list[int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(start, stop, shape) of W0, b0, W1, b1, ... in the flat parameter vector."""
    spans, pos = [], 0
    for a, b in zip(layer_sizes, layer_sizes[1:]):
        for shape in ((a, b), (b,)):
            spans.append((pos, pos + math.prod(shape), shape))
            pos += math.prod(shape)
    return spans


def _flat(tensors: list[np.ndarray]) -> np.ndarray:
    """The contiguous vector that tensors tile, as a view.

    Mlp.params() and backward() gradients are laid out this way; a list of
    separate arrays is rejected rather than silently copied.
    """
    head = tensors[0]
    vec = head if head.base is None else head.base
    if not (vec.flags.c_contiguous and vec.size == sum(t.size for t in tensors)
            and all(t is vec or t.base is vec for t in tensors)):
        raise DimensionError("tensors must tile one contiguous vector, like Mlp.params()")
    return vec.reshape(-1)


class Mlp:
    """Fully connected network; weights[l] has shape (in_l, out_l).

    All parameters live in one contiguous float64 vector, flat, laid out
    W0, b0, W1, b1, ... (each row-major); weights and biases are views into
    it, so optimizer steps and target blending are single vector operations.
    The standard policy/value factory builds two ReLU hidden layers; the
    math below supports any depth so tiny hand-checkable nets work too.
    """

    def __init__(self, layer_sizes: list[int], output_activation: str,
                 weights: list[np.ndarray] | None = None,
                 biases: list[np.ndarray] | None = None):
        if len(layer_sizes) < 2:
            raise ValidationError("need at least input and output layer sizes")
        if any(s < 1 for s in layer_sizes):
            raise ValidationError(f"layer sizes must be >= 1, got {layer_sizes}")
        if output_activation not in _ACTIVATIONS:
            raise ValidationError(f"unknown output activation {output_activation!r}")
        self.layer_sizes = list(layer_sizes)
        self.output_activation = output_activation
        self._spans = _spans(self.layer_sizes)
        self.flat = np.zeros(self._spans[-1][1])
        params = self._views(self.flat)
        self.weights = params[0::2]
        self.biases = params[1::2]
        if weights is not None:
            assert biases is not None
            if len(weights) != self.n_layers or len(biases) != self.n_layers:
                raise DimensionError(f"need {self.n_layers} weight and bias tensors")
            for l, (w, b) in enumerate(zip(weights, biases)):
                if w.shape != self.weights[l].shape or b.shape != self.biases[l].shape:
                    raise DimensionError(f"parameter shapes inconsistent at layer {l}")
                self.weights[l][...] = w
                self.biases[l][...] = b

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """flat split into the interleaved tensors of params()."""
        return [flat[a:b].reshape(shape) for a, b, shape in self._spans]

    @classmethod
    def create(cls, in_dim: int, hidden: int, out_dim: int, output_activation: str,
               rng: np.random.Generator) -> "Mlp":
        """Two ReLU hidden layers of equal width; standard deterministic-policy init.

        Hidden parameters are uniform in +/- 1/sqrt(fan_in); the final layer
        uniform in +/- 3e-3 so tanh heads start near the box midpoint.
        """
        sizes = [in_dim, hidden, hidden, out_dim]
        net = cls(sizes, output_activation)
        for l in range(net.n_layers):
            fan_in = sizes[l]
            bound = 3e-3 if l == net.n_layers - 1 else 1.0 / np.sqrt(fan_in)
            net.weights[l][...] = rng.uniform(-bound, bound, size=net.weights[l].shape)
            net.biases[l][...] = rng.uniform(-bound, bound, size=net.biases[l].shape)
        return net

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def copy(self) -> "Mlp":
        net = Mlp(self.layer_sizes, self.output_activation)
        net.flat[...] = self.flat
        return net

    def params(self) -> list[np.ndarray]:
        """Interleaved [W0, b0, W1, b1, ...]; live views of flat, not copies."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, x) -> tuple[np.ndarray, ForwardCache]:
        """Affine/activation composition; accepts (in,) or (B, in) input. Values are
        not checked: each update checks the updated network's parameters once."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise DimensionError(
                f"input shape {x.shape} incompatible with input size {self.layer_sizes[0]}")
        pre, post = [], []
        a = x
        for l in range(self.n_layers):
            z = a @ self.weights[l] + self.biases[l]
            pre.append(z)
            if l < self.n_layers - 1:
                a = np.maximum(z, 0.0)
            elif self.output_activation == "tanh":
                a = np.tanh(z)
            else:
                a = z
            post.append(a)
        out = post[-1][0] if squeeze else post[-1]
        return out, ForwardCache(x=x, pre=pre, post=post, squeeze=squeeze)

    def backward(self, cache: ForwardCache, output_gradient) -> tuple[list[np.ndarray], np.ndarray]:
        """Exact gradients of sum(output_gradient * output).

        Returns (param_grads interleaved like params(), input_grad). The
        cache must come from this network's matching forward call.
        """
        if len(cache.pre) != self.n_layers or cache.pre[-1].shape[1] != self.layer_sizes[-1]:
            raise ValidationError("cache does not match this network")
        g = np.asarray(output_gradient, dtype=np.float64)
        if cache.squeeze and g.ndim == 1:
            g = g[None, :]
        if g.shape != cache.post[-1].shape:
            raise DimensionError(
                f"output_gradient shape {g.shape} != output shape {cache.post[-1].shape}")
        if self.output_activation == "tanh":
            dz = g * (1.0 - cache.post[-1] ** 2)
        else:
            dz = g
        # a fresh vector per call: callers may keep the gradients of several calls
        param_grads = self._views(np.empty(self.flat.size))
        for l in range(self.n_layers - 1, -1, -1):
            a_prev = cache.x if l == 0 else cache.post[l - 1]
            np.matmul(a_prev.T, dz, out=param_grads[2 * l])
            np.sum(dz, axis=0, out=param_grads[2 * l + 1])
            da = dz @ self.weights[l].T
            if l > 0:
                dz = da * (cache.pre[l - 1] > 0.0)
        input_grad = da[0] if cache.squeeze else da
        return param_grads, input_grad

    def check_finite(self) -> None:
        if np.isfinite(self.flat).all():
            return
        bad = next(l for l, (w, b) in enumerate(zip(self.weights, self.biases))
                   if not (np.isfinite(w).all() and np.isfinite(b).all()))
        raise ValidationError(f"non-finite parameters in layer {bad}")


class AdamState:
    """Adam moments for one parameter list; updates in place.

    The parameters and gradients handed to step() must tile one vector each
    (Mlp.params() and Mlp.backward() gradients do), so the whole update is
    a handful of vector operations into preallocated scratch.
    """

    def __init__(self, params: list[np.ndarray], learning_rate: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.timestep = 0
        n = _flat(params).size
        self.first_moment = np.zeros(n)
        self.second_moment = np.zeros(n)
        self._scratch = (np.empty(n), np.empty(n))

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """One bias-corrected Adam update, mutating params in place. Gradients are
        not checked: each update checks the updated network's parameters once."""
        p, g = _flat(params), _flat(grads)
        if p.size != self.first_moment.size or g.size != p.size:
            raise DimensionError("parameter/gradient count mismatch")
        self.timestep += 1
        t = self.timestep
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        m, v = self.first_moment, self.second_moment
        s1, s2 = self._scratch
        # the IEEE operations of m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/c1) / (sqrt(v/c2) + eps), in that order
        np.multiply(g, 1.0 - self.beta1, out=s1)
        m *= self.beta1
        m += s1
        np.multiply(g, 1.0 - self.beta2, out=s1)
        s1 *= g
        v *= self.beta2
        v += s1
        np.divide(m, c1, out=s1)
        s1 *= self.learning_rate
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.epsilon
        s1 /= s2
        p -= s1


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """Blend source into target: p' <- tau*p + (1-tau)*p'."""
    if target.layer_sizes != source.layer_sizes or \
            target.output_activation != source.output_activation:
        raise ValidationError("target and source architectures differ")
    target.flat *= 1.0 - tau
    target.flat += tau * source.flat


# Binary parameter file, little-endian throughout:
#   8s   magic "EMLPNET1"
#   I    format version (currently 1)
#   I    number of layer sizes  (n)
#   nI   layer sizes
#   B    output activation tag (0=linear, 1=tanh)
# then per weight layer l: W_l as float64 row-major (in_l x out_l), b_l float64,
# which is exactly Mlp.flat.
PARAM_MAGIC = b"EMLPNET1"
PARAM_VERSION = 1


def save_mlp(net: Mlp, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(PARAM_MAGIC)
        fh.write(struct.pack("<II", PARAM_VERSION, len(net.layer_sizes)))
        fh.write(struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes))
        fh.write(struct.pack("<B", _ACTIVATIONS.index(net.output_activation)))
        fh.write(np.ascontiguousarray(net.flat, dtype="<f8").tobytes())


class ParamLoadError(ValidationError):
    """Raised for corrupt, truncated, or incompatible parameter files."""


def load_mlp(path: str | Path, expect_sizes: list[int] | None = None) -> Mlp:
    """Load a parameter file written by save_mlp; bit-exact round trip.

    Raises ParamLoadError on corruption, truncation, version mismatch,
    non-finite values, or (when expect_sizes is given) architecture
    mismatch. No partial state escapes a failed load.
    """
    data = Path(path).read_bytes()
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ParamLoadError(f"{path}: truncated parameter file")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(8)) != PARAM_MAGIC:
        raise ParamLoadError(f"{path}: not a parameter file (bad magic)")
    version, n_sizes = struct.unpack("<II", take(8))
    if version != PARAM_VERSION:
        raise ParamLoadError(f"{path}: unsupported format version {version}")
    if not (2 <= n_sizes <= 64):
        raise ParamLoadError(f"{path}: implausible layer count {n_sizes}")
    sizes = list(struct.unpack(f"<{n_sizes}I", take(4 * n_sizes)))
    (act_tag,) = struct.unpack("<B", take(1))
    if act_tag >= len(_ACTIVATIONS):
        raise ParamLoadError(f"{path}: unknown activation tag {act_tag}")
    if expect_sizes is not None and sizes != list(expect_sizes):
        raise ParamLoadError(
            f"{path}: architecture mismatch, file has layers {sizes}, expected {list(expect_sizes)}")
    n_params = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
    flat = np.frombuffer(take(8 * n_params), dtype="<f8")
    if pos != len(view):
        raise ParamLoadError(f"{path}: {len(view) - pos} trailing bytes")
    if not np.isfinite(flat).all():
        raise ParamLoadError(f"{path}: non-finite parameter values")
    net = Mlp(sizes, _ACTIVATIONS[act_tag])
    net.flat[...] = flat
    return net
