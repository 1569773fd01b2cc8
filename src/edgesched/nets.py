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

from .domain import DimensionError, ValidationError, write_atomic

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

    x: np.ndarray                 # input, shape (B, in) or (E, B, in)
    post: list[np.ndarray]        # post-activations per layer


def _spans(layer_sizes: list[int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(start, stop, shape) of W0, b0, W1, b1, ... in the flat parameter vector."""
    spans, pos = [], 0
    for a, b in zip(layer_sizes, layer_sizes[1:]):
        for shape in ((a, b), (b,)):
            spans.append((pos, pos + math.prod(shape), shape))
            pos += math.prod(shape)
    return spans


class Mlp:
    """Fully connected network; weights[l] has shape (in_l, out_l).

    All parameters live in one contiguous float64 vector, flat, laid out
    W0, b0, W1, b1, ... (each row-major); weights and biases are views into
    it, so optimizer steps and target blending are single vector operations.
    The standard policy/value factory builds two ReLU hidden layers; the
    math below supports any depth so tiny hand-checkable nets work too.
    """

    def __init__(self, layer_sizes: list[int], output_activation: str):
        if len(layer_sizes) < 2:
            raise ValidationError("need at least input and output layer sizes")
        if any(s < 1 for s in layer_sizes):
            raise ValidationError(f"layer sizes must be >= 1, got {layer_sizes}")
        if output_activation not in _ACTIVATIONS:
            raise ValidationError(f"unknown output activation {output_activation!r}")
        self.layer_sizes = list(layer_sizes)
        self.output_activation = output_activation
        self.n_layers = len(self.layer_sizes) - 1
        self._spans = _spans(self.layer_sizes)
        self.flat = np.zeros(self._spans[-1][1])
        params = self._views(self.flat)
        self.weights = params[0::2]
        self.biases = params[1::2]
        self._kept: list[np.ndarray] | None = None  # forward(reuse=True)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """A vector laid out like flat, split into its tensors W0, b0, W1, b1, ..."""
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

    def copy(self) -> "Mlp":
        net = Mlp(self.layer_sizes, self.output_activation)
        net.flat[...] = self.flat
        return net

    def forward(self, x, reuse: bool = False) -> tuple[np.ndarray, ForwardCache]:
        """Affine/activation composition of a (B, in) batch, or of a stack
        (E, B, in) for forward only: a stack of (1, in) rows gives each row the
        bytes of its one-row call, where a flat (E, in) batch may round
        differently. Each layer keeps one array: its product, with the bias
        and the activation applied in place; x itself is never written. Values
        are not checked: each update checks the updated network's parameters
        once.

        With reuse, the activations go into the arrays of this network's last
        reuse call when the batch size matches, so that call's output and cache
        are overwritten; every other call returns arrays of its own.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, 3) or x.shape[-1] != self.layer_sizes[0]:
            raise DimensionError(
                f"input shape {x.shape} incompatible with input size {self.layer_sizes[0]}")
        kept = self._kept if reuse else None
        if kept is not None and kept[0].shape[:-1] != x.shape[:-1]:
            kept = None
        post = []
        a = x
        for l in range(self.n_layers):
            a = np.matmul(a, self.weights[l], out=None if kept is None else kept[l])
            a += self.biases[l]
            if l < self.n_layers - 1:
                np.maximum(a, 0.0, out=a)
            elif self.output_activation == "tanh":
                np.tanh(a, out=a)
            post.append(a)
        if reuse:
            self._kept = post
        return a, ForwardCache(x=x, post=post)

    def backward(self, cache: ForwardCache, output_gradient,
                 grad: np.ndarray | None = None) -> np.ndarray:
        """Exact gradients of sum(output_gradient * output).

        With grad, a contiguous float64 vector laid out like flat, the
        parameter gradients are written into grad and grad is returned;
        the input gradient is not computed. Without grad, only the input
        gradient is computed and returned. The cache must come from this
        network's matching forward call.
        """
        if len(cache.post) != self.n_layers or cache.post[-1].shape[1:] != (self.layer_sizes[-1],):
            raise ValidationError("cache does not match this network")
        if grad is not None:
            if grad.shape != self.flat.shape or grad.dtype != np.float64 \
                    or not grad.flags.c_contiguous:
                raise DimensionError(
                    f"grad must be a contiguous float64 vector of {self.flat.size} values, "
                    f"got {grad.dtype} of shape {grad.shape}")
            param_grads = self._views(grad)
        g = np.asarray(output_gradient, dtype=np.float64)
        if g.shape != cache.post[-1].shape:
            raise DimensionError(
                f"output_gradient shape {g.shape} != output shape {cache.post[-1].shape}")
        if self.output_activation == "tanh":
            dz = g * (1.0 - cache.post[-1] ** 2)
        else:
            dz = g
        for l in range(self.n_layers - 1, -1, -1):
            if grad is not None:
                a_prev = cache.x if l == 0 else cache.post[l - 1]
                np.matmul(a_prev.T, dz, out=param_grads[2 * l])
                np.sum(dz, axis=0, out=param_grads[2 * l + 1])
                if l == 0:
                    return grad
            da = dz @ self.weights[l].T
            if l > 0:
                dz = da * (cache.post[l - 1] > 0.0)
        return da

    def check_finite(self) -> None:
        if np.isfinite(self.flat).all():
            return
        bad = next(l for l, (w, b) in enumerate(zip(self.weights, self.biases))
                   if not (np.isfinite(w).all() and np.isfinite(b).all()))
        raise ValidationError(f"non-finite parameters in layer {bad}")


class AdamState:
    """Adam moments for one flat parameter vector; updates in place.

    step() takes the network's flat vector and a gradient vector of the same
    size, so the whole update is a handful of vector operations into
    preallocated scratch. grad is the network's gradient vector: passed to
    Mlp.backward, it lets every update reuse one allocation.
    """

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, size: int, learning_rate: float = 3e-4):
        self.learning_rate = learning_rate
        self.timestep = 0
        self.first_moment = np.zeros(size)
        self.second_moment = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))
        self.grad = np.empty(size)

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """One bias-corrected Adam update of the vector p, in place. Gradients are
        not checked: each update checks the updated network's parameters once."""
        if p.shape != self.first_moment.shape or g.shape != p.shape:
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
    sizes = net.layer_sizes
    header = struct.pack(f"<II{len(sizes)}IB", PARAM_VERSION, len(sizes), *sizes,
                         _ACTIVATIONS.index(net.output_activation))
    write_atomic(path, PARAM_MAGIC + header
                 + np.ascontiguousarray(net.flat, dtype="<f8").tobytes())


class ParamLoadError(ValidationError):
    """Raised for corrupt, truncated, or incompatible parameter files."""


def load_mlp(path: str | Path, expect_sizes: list[int] | None = None) -> Mlp:
    """Load a parameter file written by save_mlp; bit-exact round trip.

    Raises ParamLoadError on an unreadable path, corruption, truncation,
    version mismatch, non-finite values, or (when expect_sizes is given)
    architecture mismatch. No partial state escapes a failed load.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParamLoadError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # an embedded null byte
        raise ParamLoadError(f"{str(path)!r}: {exc}") from exc
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
    if min(sizes) < 1:
        raise ParamLoadError(f"{path}: layer sizes must be >= 1, got {sizes}")
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
