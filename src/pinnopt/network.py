"""Tanh multi-layer perceptron with explicit parameters.

The net alternates fully-connected layers and tanh:
``linear -> tanh -> linear -> ... -> linear`` with a scalar output.  Weights
and biases are stored per linear layer.  tanh is the only activation;
:func:`tanh_derivs` gives its derivatives up to third order, which the
differential-operator propagation in :mod:`pinnopt.taylor` requires.

Parameter flattening convention (shared by the whole package): per linear
layer the weight and bias are joined into the augmented matrix ``[W | b]``
of shape ``h_out x (h_in + 1)`` and vectorized column-by-column (first
index varies fastest); layers are concatenated in order.  Every
parameter-space quantity (gradient, direction, update, momentum, Adam
moment) is one float64 vector of length D in this layout, and
:func:`layer_blocks` views its layers as ``[W | b]^T`` blocks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Architecture",
    "ActivationDerivs",
    "Parameters",
    "ForwardTrace",
    "tanh_derivs",
    "init_params",
    "forward_batch",
    "backward_batch",
    "layer_blocks",
    "add_scaled",
]


@dataclass(frozen=True)
class ActivationDerivs:
    """Element-wise activation value and its derivatives up to third order.

    Derivatives above the requested order are None.
    """

    s0: np.ndarray
    s1: np.ndarray | None = None
    s2: np.ndarray | None = None
    s3: np.ndarray | None = None


def tanh_derivs(z, order: int = 3, out=None) -> ActivationDerivs:
    """tanh and its derivatives up to ``order`` (0 to 3), via the identities
    s1 = 1 - s0^2, s2 = -2 s0 s1, s3 = -2 s1^2 - 2 s0 s2.

    ``out`` of shape ``(order + 1,) + z.shape`` receives s0, ..., s_order;
    None allocates it.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"derivative order must lie in 0..3, got {order}")
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty((order + 1,) + z.shape)
    s0 = np.tanh(z, out=out[0])
    if order == 0:
        return ActivationDerivs(s0)
    s1 = np.multiply(s0, s0, out=out[1])
    np.subtract(1.0, s1, out=s1)
    if order == 1:
        return ActivationDerivs(s0, s1)
    s2 = np.multiply(s0, -2.0, out=out[2])
    s2 *= s1
    if order == 2:
        return ActivationDerivs(s0, s1, s2)
    s3 = np.multiply(s1, -2.0, out=out[3])
    s3 *= s1
    s3 -= 2.0 * s0 * s2
    return ActivationDerivs(s0, s1, s2, s3)


@dataclass(frozen=True)
class Architecture:
    """Layer widths ``(d, h_1, ..., 1)``."""

    widths: tuple

    def __post_init__(self):
        try:
            widths = tuple(operator.index(w) for w in self.widths)
        except TypeError:
            raise ValueError(f"widths must be integers, got {self.widths!r}") from None
        object.__setattr__(self, "widths", widths)
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w < 1 for w in widths):
            raise ValueError(f"all widths must be >= 1, got {widths}")
        if widths[-1] != 1:
            raise ValueError(f"output width must be 1, got {widths[-1]}")

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def n_linear(self) -> int:
        return len(self.widths) - 1


@dataclass
class Parameters:
    """Per-linear-layer weight matrices and bias vectors."""

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input width does not match previous layer")

    @property
    def widths(self) -> tuple:
        return tuple([self.weights[0].shape[1]] + [w.shape[0] for w in self.weights])

    @property
    def n_linear(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "Parameters":
        return Parameters([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(arch: Architecture, seed: int) -> Parameters:
    """Draw weights and biases i.i.d. uniform on (-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Deterministic given ``seed``; per layer the weight entries are drawn
    first (row-major), then the bias.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for h_in, h_out in zip(arch.widths[:-1], arch.widths[1:]):
        bound = 1.0 / np.sqrt(h_in)
        weights.append(rng.uniform(-bound, bound, size=(h_out, h_in)))
        biases.append(rng.uniform(-bound, bound, size=h_out))
    return Parameters(weights, biases)


@dataclass
class ForwardTrace:
    """Intermediates of a batched forward pass.

    ``linear_inputs[l]`` is the (N, h_in) input reaching linear layer l,
    ``pre_activations[l]`` its (N, h_out) output before any activation.
    """

    linear_inputs: list = field(default_factory=list)
    pre_activations: list = field(default_factory=list)

    @property
    def output(self) -> np.ndarray:
        return self.pre_activations[-1][:, 0]


def forward_batch(params: Parameters, x) -> tuple:
    """Vectorized forward pass over a batch of points (rows of ``x``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"expected (N, {params.input_dim}) inputs, got {x.shape}")
    trace = ForwardTrace()
    z = x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        trace.linear_inputs.append(z)
        z = z @ w.T + b
        trace.pre_activations.append(z)
        if l < params.n_linear - 1:
            z = tanh_derivs(z, order=0).s0
    return trace.output, trace


def backward_batch(params: Parameters, trace: ForwardTrace, seed) -> list:
    """Per-sample gradients of ``seed_n * u_n`` w.r.t. each linear layer output.

    ``seed`` has shape (N,).  Returns one (N, h_out) array per linear
    layer; entry l is the gradient at the pre-activation output of layer l.
    """
    seed = np.asarray(seed, dtype=np.float64)
    n_lin = params.n_linear
    grads = [None] * n_lin
    g = seed[:, None]
    for l in reversed(range(n_lin)):
        grads[l] = g
        if l > 0:
            z = trace.linear_inputs[l]  # tanh of layer l - 1's output
            g = g @ params.weights[l]
            g = g * (1.0 - z * z)
    return grads


# ---------------------------------------------------------------------------
# parameter-space vectors (column-stacked [W | b] per layer, layers concatenated)

def layer_blocks(vec, shapes) -> list:
    """Per-layer views of the last axis of ``vec`` as ``(..., p, q)`` blocks.

    ``shapes`` lists ``(p, q) = (h_in + 1, h_out)`` per layer.  A layer's
    segment of the column-stacked flattening of ``[W | b]`` is, read in C
    order, ``[W | b]^T``: block rows ``:h_in`` hold ``W^T`` and row ``h_in``
    the bias.  Splitting the last axis is always a view, so writing a block
    writes ``vec``; a leading axis, such as the samples of (N, D) Jacobian
    rows, gives per-sample blocks.
    """
    sizes = [p * q for p, q in shapes]
    if sum(sizes) != vec.shape[-1]:
        raise ValueError(f"vector of length {vec.shape[-1]} does not match parameter count {sum(sizes)}")
    blocks, start = [], 0
    for (p, q), size in zip(shapes, sizes):
        blocks.append(vec[..., start : start + size].reshape(*vec.shape[:-1], p, q))
        start += size
    return blocks


def add_scaled(params: Parameters, vec, alpha: float) -> Parameters:
    """Return ``params + alpha * vec`` for a parameter-space vector ``vec``."""
    shapes = [(w.shape[1] + 1, w.shape[0]) for w in params.weights]
    weights, biases = [], []
    for w, b, m in zip(params.weights, params.biases, layer_blocks(vec, shapes)):
        weights.append(w + alpha * m[:-1].T)
        biases.append(b + alpha * m[-1])
    return Parameters(weights, biases)
