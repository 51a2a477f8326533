"""Dense MLP forward/backward passes and parameter-update rules.

Everything is float64 numpy. A network is given by its layer widths
(input, hidden..., output): fully-connected layers with ReLU after every
layer but the last, which is linear. A taped forward pass appends each
layer's input to a plain list; ``mlp_backward`` sweeps that list in
reverse, so every derivative is an explicit formula that the
finite-difference suite can audit.

Parameters, gradients and Adam's moments each live in an ``Arena``: one
float64 vector that is also the list of its views [W0, b0, W1, ...]. The
optimizer updates whole vectors; ``mlp_backward`` returns the model's
gradient arena, which the next backward pass on that model overwrites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError, StateError

SGD = "sgd"
ADAM = "adam"
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's default constants
ROW_BLOCK = 240  # rows: 10 of OpenBLAS 0.3.31's 24-row GEMM tiles
BLOCK_BYTES = 2 << 20  # a block's float64 bytes: one core's 2 MiB L2 cache


def block_rows(width: int = 1) -> int:
    """The most 24-row GEMM tiles (one at least, ``ROW_BLOCK`` rows at most)
    whose (rows, width) float64 block fits ``BLOCK_BYTES``."""
    return max(24, min(ROW_BLOCK, BLOCK_BYTES // (8 * width)) // 24 * 24)


def row_blocks(n: int, width: int = 1, step: int = 0) -> list[slice]:
    """Slices of ``n`` rows, ``step`` (default ``block_rows(width)``) apart;
    a lone last row joins the block before it (numpy runs a 1-row product
    as a GEMV), so blocks keep the bits of one call."""
    step = step or block_rows(width)
    cuts = [*range(0, n - 1 if n > 1 else n, step), n]
    return [slice(*cut) for cut in zip(cuts, cuts[1:])]


def layer_shapes(widths) -> list[tuple]:
    """The parameter shapes [W0, b0, W1, b1, ...] of a net of ``widths``:
    W (fan_in, fan_out) and b (fan_out,) per consecutive pair of widths."""
    return [shape for fan_in, fan_out in zip(widths, widths[1:])
            for shape in ((fan_in, fan_out), (fan_out,))]


def init_params(widths, rng) -> list[np.ndarray]:
    """Seeded uniform init, aligned with ``Mlp.parameters()``: each W ~
    U(+-sqrt(6/(fan_in+fan_out))), each b = 0."""
    rng = np.random.default_rng(rng)
    return [rng.uniform(-(lim := np.sqrt(6.0 / sum(s))), lim, size=s)
            if len(s) == 2 else np.zeros(s) for s in layer_shapes(widths)]


class Arena(list):
    """Arrays kept as reshaped views into one float64 vector, ``flat``.
    Built from arrays, it copies them; unpickled, it is one vector again."""

    def __init__(self, arrays):
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        ends = np.cumsum([a.size for a in arrays])
        super().__init__(self.flat[end - a.size:end].reshape(a.shape)
                         for a, end in zip(arrays, ends))

    def __reduce__(self):
        return Arena, (list(self),)

    def zeros_like(self) -> Arena:
        return Arena(np.zeros_like(a) for a in self)


class Mlp:
    """Fully-connected net of the given ``widths`` holding its own float64
    parameters: ReLU after every layer but the last, which is linear."""

    def __init__(self, widths, params=None, rng=None):
        widths = tuple(widths)
        if len(widths) < 2 or min(widths) < 1:
            raise ShapeError(f"a network needs at least 2 widths, each >= 1, "
                             f"got {widths}")
        self.widths = widths
        if params is None:
            params = init_params(widths, rng)
        if [np.shape(p) for p in params] != (expected := layer_shapes(widths)):
            raise ShapeError(f"parameter shapes {[np.shape(p) for p in params]} "
                             f"do not match the layers' {expected}")
        self._params = Arena(params)  # a copy: the caller's arrays stay apart
        self._grads = self._params.zeros_like()

    def parameters(self) -> Arena:
        """Parameter list [W0, b0, W1, b1, ...]: live views into one vector."""
        return self._params

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """Run the batch through every layer. A ``tape`` list is cleared and
        given each layer's input, the record ``mlp_backward`` reads; untaped,
        the batch goes through one ``row_blocks`` block at a time."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"input must be 2-d (batch, features), got {x.shape}")
        if x.shape[1] != self.widths[0]:
            raise ShapeError(
                f"input has {x.shape[1]} columns but first layer expects "
                f"{self.widths[0]}"
            )
        last = len(self.widths) - 2  # index of the linear output layer
        if tape is not None:
            tape.clear()
        out = None if tape is not None else np.empty((len(x), self.widths[-1]))
        for rows in (None,) if out is None else row_blocks(len(x)):
            h = x if rows is None else x[rows]
            for i in range(last + 1):
                if tape is not None:
                    tape.append(h)
                h = h @ self._params[2 * i] + self._params[2 * i + 1]
                if i != last:
                    h = np.maximum(h, 0.0)
            if not np.all(np.isfinite(h)):
                raise NumericsError("non-finite values in forward output")
            if out is None:
                return h
            out[rows] = h
        return out


def mlp_backward(model: Mlp, tape: list, output_gradient: np.ndarray) -> Arena:
    """Reverse sweep over the layer inputs ``model.forward`` put on ``tape``;
    returns the model's gradient arena, aligned 1:1 with its parameters and
    rewritten by the next backward pass. Layer i's ReLU mask is
    ``tape[i + 1] > 0``, true exactly where its pre-activation is > 0
    (subgradient 0 at 0). No input gradient is formed."""
    last = len(model.widths) - 2
    if len(tape) != last + 1:
        raise StateError("backward requires a taped forward pass of this model")
    g = np.asarray(output_gradient, dtype=np.float64)
    expected = (tape[0].shape[0], model.widths[-1])
    if g.shape != expected:
        raise ShapeError(f"output gradient shape {g.shape} does not match "
                         f"forward output {expected}")
    grads = model._grads
    for i in range(last, -1, -1):
        np.matmul(tape[i].T, g, out=grads[2 * i])
        g.sum(axis=0, out=grads[2 * i + 1])
        if i:
            g = (g @ model._params[2 * i].T) * (tape[i] > 0.0)
    return grads


@dataclass
class OptimizerState:
    """Adam's step count and moments (None until its first step); SGD keeps
    none of them."""

    step_count: int = 0
    m: Arena | None = None
    v: Arena | None = None


def optimizer_step(state: OptimizerState, params: Arena, grads: Arena,
                   rule: str, lr: float, weight_decay: float) -> Arena:
    """One in-place update of the whole parameter vector; returns ``params``.

    SGD:  p <- p - lr * g
    Adam: bias-corrected first/second moments with the default constants.
    Both then subtract lr * weight_decay * p (pre-step value): decoupled
    decay, which realizes the L2 penalty on the weights without polluting
    the reported loss values.
    """
    p, g = params.flat, grads.flat
    if p.shape != g.shape:
        raise ShapeError(f"parameter vector {p.shape} vs gradient {g.shape}")
    if not np.isfinite(g).all():
        raise NumericsError(f"non-finite gradient at step {state.step_count + 1}; "
                            "aborting update")

    decay = lr * weight_decay * p if weight_decay else None
    if rule == SGD:
        p -= lr * g
    else:
        if state.m is None:
            state.m, state.v = params.zeros_like(), params.zeros_like()
        state.step_count += 1
        t = state.step_count
        bc1 = 1.0 - _BETA1 ** t
        bc2 = 1.0 - _BETA2 ** t
        m, v = state.m.flat, state.v.flat
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
    if decay is not None:
        p -= decay
    return params


def apply_lr_schedule(epoch: int, base_lr: float, milestones, factor: float) -> float:
    """Step decay: base_lr * factor^(number of milestones <= epoch)."""
    hits = sum(1 for m in milestones if m <= epoch)
    return base_lr * factor ** hits
