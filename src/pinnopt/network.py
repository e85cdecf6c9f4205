"""Tanh multi-layer perceptron with explicit parameters.

The net alternates fully-connected layers and tanh:
``linear -> tanh -> linear -> ... -> linear`` with a scalar output.  tanh is
the only activation; :func:`tanh_derivs` gives its derivatives up to third
order, which the differential-operator propagation in :mod:`pinnopt.taylor`
requires.  :func:`init_params` takes the layer widths ``(d, h_1, ..., 1)``
and checks them; :class:`Parameters` carries the layout from then on.

Parameter flattening convention (shared by the whole package): per linear
layer the weight and bias are joined into the augmented matrix ``[W | b]``
of shape ``h_out x (h_in + 1)`` and vectorized column-by-column (first
index varies fastest); layers are concatenated in order.  The parameters
(:class:`Parameters`) and every parameter-space quantity (gradient,
direction, update, momentum, Adam moment) are one float64 vector of length
D in this layout; :func:`layer_blocks` views its layers as ``[W | b]^T`` blocks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActivationDerivs",
    "Parameters",
    "tanh_derivs",
    "as_index",
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


def as_index(value) -> int:
    """``operator.index`` that also refuses bool, which a JSON config can carry as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


class Parameters:
    """The net's parameters as one float64 ``vector`` in the package layout.

    ``weights[l] = block[:h_in].T`` and ``biases[l] = block[h_in]`` view layer
    l's ``[W | b]^T`` block, of shape ``shapes[l] = (h_in + 1, h_out)``."""

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input width does not match previous layer")
        blocks = [np.column_stack([w, b]).ravel(order="F") for w, b in zip(weights, biases)]
        self._view(np.concatenate(blocks, dtype=np.float64), [(w.shape[1] + 1, w.shape[0]) for w in weights])

    @classmethod
    def from_vector(cls, vector, shapes) -> "Parameters":
        """Parameters viewing ``vector`` (not a copy) as blocks of ``shapes``."""
        return cls.__new__(cls)._view(vector, shapes)

    def _view(self, vector, shapes) -> "Parameters":
        self.vector, self.shapes = vector, tuple(shapes)
        blocks = layer_blocks(vector, self.shapes)
        self.weights, self.biases = [m[:-1].T for m in blocks], [m[-1] for m in blocks]
        return self

    @property
    def widths(self) -> tuple:
        return (self.input_dim,) + tuple(q for _, q in self.shapes)

    @property
    def n_linear(self) -> int:
        return len(self.shapes)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][0] - 1

    @property
    def n_params(self) -> int:
        return self.vector.size

    def copy(self) -> "Parameters":
        return Parameters.from_vector(self.vector.copy(), self.shapes)

    def __deepcopy__(self, memo) -> "Parameters":
        return self.copy()


def init_params(widths, seed: int) -> Parameters:
    """Parameters of the net of layer widths ``(d, h_1, ..., 1)``, drawn i.i.d.
    uniform on (-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Raises ValueError unless ``widths`` are at least two integers >= 1 ending
    in 1.  Deterministic given ``seed``; per layer the weight entries are
    drawn first (row-major), then the bias.
    """
    try:
        widths = tuple(as_index(w) for w in widths)
    except TypeError:
        raise ValueError(f"widths must be integers, got {widths!r}") from None
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    if any(w < 1 for w in widths):
        raise ValueError(f"all widths must be >= 1, got {widths}")
    if widths[-1] != 1:
        raise ValueError(f"output width must be 1, got {widths[-1]}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for h_in, h_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(h_in)
        weights.append(rng.uniform(-bound, bound, size=(h_out, h_in)))
        biases.append(rng.uniform(-bound, bound, size=h_out))
    return Parameters(weights, biases)


def forward_batch(params: Parameters, x) -> tuple:
    """Batched forward pass over the rows of ``x``: ``(u, inputs)``, the (N,)
    outputs and per linear layer l the (N, h_in) input ``inputs[l]`` reaching it."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"expected (N, {params.input_dim}) inputs, got {x.shape}")
    inputs = []
    z = x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(z)
        z = z @ w.T + b
        if l < params.n_linear - 1:
            z = tanh_derivs(z, order=0).s0
    return z[:, 0], inputs


def backward_batch(params: Parameters, inputs: list) -> list:
    """Per-sample gradients of u w.r.t. each linear layer output, from the
    ``inputs`` of :func:`forward_batch`: one (N, h_out) array per linear layer,
    entry l at the pre-activation output of layer l."""
    n_lin = params.n_linear
    grads = [None] * n_lin
    g = np.ones((inputs[0].shape[0], 1))
    for l in reversed(range(n_lin)):
        grads[l] = g
        if l > 0:
            z = inputs[l]  # tanh of layer l - 1's output
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
    return Parameters.from_vector(params.vector + alpha * vec, params.shapes)
