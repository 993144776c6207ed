"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records one forward pass as a list of nodes, each an elemental
function with a hand-derived adjoint (Griewank & Walther, *Evaluating
Derivatives*, 2008): its input slots and one ``backward(g)`` returning one
contribution (or ``None``) per input.  ``Tape.backward`` walks the list once
in reverse.  The generic nodes are a sum, a scalar multiple, a row-weighted
sum of squares and a batched custom-Jacobian node that lets the manifold
projection join backpropagation; the model adds fused nodes of its own.
Every node output and adjoint is checked for NaN/Inf.  Nothing the tape
stores refers back to it, so reference counting alone frees a dead tape.
Training keeps its parameters and gradient in flat vectors: ``Tape.backward``
writes into views of one, ``adam_step`` updates the other in place.
``glorot_init`` draws from a numpy ``Generator`` its caller seeds with
``np.random.default_rng(seed)``.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A tensor, gradient, or parameter update contains NaN or Inf."""


class Tensor:
    """Immutable float64 array bound to a tape slot.

    Values are never mutated after creation; reuse of a tensor in several
    downstream nodes is fine and its adjoint contributions accumulate.  A
    constant has no slot: nothing differentiates past it.
    """

    __slots__ = ("data", "tape", "slot")

    def __init__(self, data: np.ndarray, tape: "Tape", slot: int | None):
        self.data = data
        self.tape = tape
        self.slot = slot


def _checked(data, op: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    return arr


class Tape:
    """Append-only record of nodes for one forward pass.

    NaN/Inf in any node output or adjoint raises ``NonFiniteError``, which
    surfaces numerical failures at their source.
    """

    def __init__(self):
        self._nodes: list[tuple] = []  # (op, out slot, input slots, backward)
        self._leaves: dict[str, tuple[int, np.ndarray]] = {}
        self._n_slots = 0

    def _wrap(self, data, op: str) -> Tensor:
        self._n_slots += 1
        return Tensor(_checked(data, op), self, self._n_slots - 1)

    def leaf(self, name: str, value) -> Tensor:
        """Register a trainable leaf; backward reports a gradient for it."""
        if name in self._leaves:
            raise ValueError(f"leaf '{name}' already registered")
        t = self._wrap(value, f"leaf:{name}")
        self._leaves[name] = (t.slot, t.data)
        return t

    def constant(self, value) -> Tensor:
        """A non-trainable input; backward never differentiates past it."""
        return Tensor(_checked(value, "constant"), self, None)

    def record(self, op: str, out_data, inputs: tuple, backward) -> Tensor:
        """Append a node; ``backward`` must not hold a tensor or the tape."""
        out = self._wrap(out_data, op)
        self._nodes.append((op, out.slot, tuple(t.slot for t in inputs), backward))
        return out

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def backward(self, output: Tensor, into: dict | None = None) -> dict[str, np.ndarray]:
        """Gradients of a scalar output with respect to every leaf.

        Leaves not on the path to ``output`` get zero gradients.  Each node
        is visited exactly once, in reverse construction order.  ``into``
        (name -> array, such as ``flat_views``) receives them in place.
        """
        if output.tape is not self:
            raise ValueError("output tensor does not belong to this tape")
        if output.data.shape != ():
            raise ShapeError(
                f"backward requires a scalar output, got shape {output.data.shape}"
            )
        adjoint: dict[int, np.ndarray] = {output.slot: np.ones(())}
        for op, out_slot, in_slots, node_backward in reversed(self._nodes):
            g = adjoint.pop(out_slot, None)
            if g is None:
                continue
            for slot, contrib in zip(in_slots, node_backward(g)):
                if contrib is None or slot is None:
                    continue
                if not np.all(np.isfinite(contrib)):
                    raise NonFiniteError(f"non-finite adjoint from op '{op}'")
                adjoint[slot] = adjoint[slot] + contrib if slot in adjoint else contrib
        grads = into if into is not None else {
            n: np.zeros_like(v) for n, (_, v) in self._leaves.items()}
        for name, (slot, _) in self._leaves.items():
            grads[name][...] = adjoint.get(slot, 0.0)
        return grads


# ---------------------------------------------------------------------------
# generic nodes


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    return a.tape.record("add", a.data + b.data, (a, b), lambda g: (g, g))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return x.tape.record("scale", x.data * c, (x,), lambda g: (g * c,))


def weighted_sq_sum(x: Tensor, row_w, target: np.ndarray | None = None) -> Tensor:
    """sum_b row_w[b] * |x_b - target_b|^2 for x (B, n); target is constant."""
    w = np.asarray(row_w, dtype=np.float64)
    if x.data.ndim != 2 or w.shape != x.data.shape[:1]:
        raise ShapeError(f"weighted_sq_sum: x {x.data.shape}, row weights {w.shape}")
    if target is not None and np.shape(target) != x.data.shape:
        raise ShapeError(f"weighted_sq_sum: x {x.data.shape}, target {np.shape(target)}")
    d = x.data if target is None else x.data - target
    w = w[:, None]
    return x.tape.record(
        "weighted_sq_sum", (d * d * w).sum(), (x,), lambda g: ((2.0 * (g * w)) * d,)
    )


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
        "batch_custom_jacobian", out, (x,), lambda g: (np.einsum("bpn,bp->bn", jac, g),)
    )


# ---------------------------------------------------------------------------
# initialization


def glorot_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# optimizer


def flat_views(flat: np.ndarray, like: dict) -> dict[str, np.ndarray]:
    """Views into ``flat`` with the keys and shapes of ``like``, laid end to end in its order."""
    ends = np.cumsum([np.size(v) for v in like.values()])
    return {name: flat[end - np.size(v) : end].reshape(np.shape(v))
            for (name, v), end in zip(like.items(), ends)}


class AdamState:
    """Adam's moments and two scratch chunks for the flat vector laid out as
    ``like`` (name -> array), allocated once; the names label bad gradients."""

    CHUNK = 32768  # elements per pass: the chunk of every operand stays in cache

    def __init__(self, like: dict):
        self.names, self.ends = list(like), np.cumsum([np.size(v) for v in like.values()])
        self.m, self.v = np.zeros(self.ends[-1]), np.zeros(self.ends[-1])
        self.scratch, self.step = np.empty((2, min(self.ends[-1], self.CHUNK))), 0


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """Adam (Kingma & Ba, 2015) with bias correction on the flat ``params``,
    in place, chunk by chunk, in the textbook op order: bit-identical to
    updating each parameter array on its own."""
    if lr <= 0:
        raise ValueError(f"adam_step: lr must be positive, got {lr}")
    bad = ~np.isfinite(grads)
    if bad.any():
        name = state.names[np.searchsorted(state.ends, np.argmax(bad), side="right")]
        raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    c1, c2 = 1 - beta1**state.step, 1 - beta2**state.step
    for start in range(0, len(params), state.CHUNK):
        part = slice(start, start + state.CHUNK)
        p, g, m, v = params[part], grads[part], state.m[part], state.v[part]
        s, u = state.scratch[:, : len(p)]
        m *= beta1
        m += np.multiply(g, 1 - beta1, out=s)
        v *= beta2
        v += np.multiply(np.multiply(g, 1 - beta2, out=s), g, out=s)
        np.sqrt(np.divide(v, c2, out=s), out=s)
        s += eps
        np.multiply(np.divide(m, c1, out=u), lr, out=u)
        p -= np.divide(u, s, out=u)
    return params
