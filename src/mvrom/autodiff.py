"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run tape: every operation appends a node carrying its input slots
and one vector-Jacobian closure per input.  ``Tape.backward`` walks the node
list once in reverse, so topological order is guaranteed by construction.
The op set is exactly what the VAE loss uses, plus a batched
custom-Jacobian node that lets an externally solved map (the manifold
projection) participate in backpropagation with supplied per-sample
Jacobians.  Every op result and adjoint is checked for NaN/Inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A tensor, gradient, or parameter update contains NaN or Inf."""


class Tensor:
    """Immutable float64 array bound to a tape slot.

    Values are never mutated after creation; reuse of a tensor in several
    downstream ops is fine and its adjoint contributions accumulate.
    """

    __slots__ = ("data", "tape", "slot")

    def __init__(self, data: np.ndarray, tape: "Tape", slot: int):
        self.data = data
        self.tape = tape
        self.slot = slot


@dataclass
class _Node:
    op: str
    out_slot: int
    in_slots: tuple
    vjps: tuple  # one closure per input: grad_out -> grad_in contribution


class Tape:
    """Append-only record of operations for one forward pass.

    NaN/Inf in any op result or adjoint raises ``NonFiniteError``, which
    surfaces numerical failures at their source.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaves: dict[str, Tensor] = {}
        self._n_slots = 0

    def _wrap(self, data, op: str) -> Tensor:
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"non-finite values produced by op '{op}'")
        t = Tensor(arr, self, self._n_slots)
        self._n_slots += 1
        return t

    def leaf(self, name: str, value) -> Tensor:
        """Register a trainable leaf; backward reports a gradient for it."""
        if name in self._leaves:
            raise ValueError(f"leaf '{name}' already registered")
        t = self._wrap(value, f"leaf:{name}")
        self._leaves[name] = t
        return t

    def constant(self, value) -> Tensor:
        """A non-trainable input; backward never differentiates past it."""
        return self._wrap(value, "constant")

    def record(self, op: str, out_data, inputs: tuple, vjps: tuple) -> Tensor:
        out = self._wrap(out_data, op)
        self._nodes.append(_Node(op, out.slot, tuple(t.slot for t in inputs), vjps))
        return out

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def backward(self, output: Tensor) -> dict[str, np.ndarray]:
        """Gradients of a scalar output with respect to every leaf.

        Leaves not on the path to ``output`` get zero gradients.  Each node
        is visited exactly once, in reverse construction order.
        """
        if output.tape is not self:
            raise ValueError("output tensor does not belong to this tape")
        if output.data.shape != ():
            raise ShapeError(
                f"backward requires a scalar output, got shape {output.data.shape}"
            )
        adjoint: dict[int, np.ndarray] = {output.slot: np.ones(())}
        for node in reversed(self._nodes):
            g = adjoint.pop(node.out_slot, None)
            if g is None:
                continue
            for slot, vjp in zip(node.in_slots, node.vjps):
                if vjp is None:
                    continue
                contrib = vjp(g)
                if not np.all(np.isfinite(contrib)):
                    raise NonFiniteError(f"non-finite adjoint from op '{node.op}'")
                if slot in adjoint:
                    adjoint[slot] = adjoint[slot] + contrib
                else:
                    adjoint[slot] = contrib
        grads = {}
        for name, t in self._leaves.items():
            g = adjoint.get(t.slot)
            grads[name] = np.zeros_like(t.data) if g is None else np.asarray(g)
        return grads


def _same_tape(*tensors) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands come from different tapes")
    return tape


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmul: {A.shape} @ {B.shape}")
    return tape.record("matmul", A @ B, (a, b), (lambda g: g @ B.T, lambda g: A.T @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    return tape.record("add", a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: {a.data.shape} vs {b.data.shape}")
    return tape.record("sub", a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias: x is (batch, n), b is (n,)."""
    tape = _same_tape(x, b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"bias_add: {x.data.shape} + {b.data.shape}")
    return tape.record(
        "bias_add",
        x.data + b.data[None, :],
        (x, b),
        (lambda g: g, lambda g: g.sum(axis=0)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; the right operand may be a scalar (shape ())."""
    tape = _same_tape(a, b)
    A, B = a.data, b.data
    if A.shape == B.shape:
        vjps = (lambda g: g * B, lambda g: g * A)
    elif B.shape == ():
        vjps = (lambda g: g * B, lambda g: np.sum(g * A))
    else:
        raise ShapeError(f"mul: {A.shape} vs {B.shape}")
    return tape.record("mul", A * B, (a, b), vjps)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return x.tape.record("scale", x.data * c, (x,), (lambda g: g * c,))


def neg(x: Tensor) -> Tensor:
    return x.tape.record("neg", -x.data, (x,), (lambda g: -g,))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return x.tape.record("exp", out, (x,), (lambda g: g * out,))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return x.tape.record("relu", np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,))


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    if not 0.0 <= slope < 1.0:
        raise ValueError(f"leaky_relu: slope must be in [0, 1), got {slope}")
    factor = np.where(x.data > 0, 1.0, slope)
    return x.tape.record("leaky_relu", x.data * factor, (x,), (lambda g: g * factor,))


def square(x: Tensor) -> Tensor:
    X = x.data
    return x.tape.record("square", X * X, (x,), (lambda g: 2.0 * g * X,))


def ssum(x: Tensor) -> Tensor:
    shape = x.data.shape
    return x.tape.record("sum", x.data.sum(), (x,), (lambda g: np.broadcast_to(g, shape).copy(),))


def batch_custom_jacobian(x: Tensor, output_values: np.ndarray, jacobians: np.ndarray) -> Tensor:
    """Per-sample custom-Jacobian node: x (B,n), outputs (B,p), jacobians (B,p,n)."""
    out = np.asarray(output_values, dtype=np.float64)
    jac = np.asarray(jacobians, dtype=np.float64)
    if x.data.ndim != 2 or out.ndim != 2 or jac.ndim != 3:
        raise ShapeError("batch_custom_jacobian expects (B,n), (B,p), (B,p,n)")
    B, n = x.data.shape
    if out.shape[0] != B or jac.shape != (B, out.shape[1], n):
        raise ShapeError(
            f"batch_custom_jacobian: jacobians {jac.shape} do not match "
            f"outputs {out.shape} x inputs {x.data.shape}"
        )
    return x.tape.record(
        "batch_custom_jacobian",
        out,
        (x,),
        (lambda g: np.einsum("bpn,bp->bn", jac, g),),
    )


# ---------------------------------------------------------------------------
# random numbers

class Rng:
    """Seeded generator; identical seeds give identical streams.

    Backed by PCG64 (counter-based family).  Normal variates come from the
    generator's ziggurat sampler over the same stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def glorot_init(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard Adam update with bias correction; mutates params/state in place."""
    if lr <= 0:
        raise ValueError(f"adam_step: lr must be positive, got {lr}")
    state.step += 1
    t = state.step
    for name in params:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = state.m[name] / (1 - beta1**t)
        v_hat = state.v[name] / (1 - beta2**t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
