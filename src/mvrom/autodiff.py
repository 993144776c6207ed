"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records one forward pass as a list of nodes, each an elemental
function with a hand-derived adjoint (Griewank & Walther, *Evaluating
Derivatives*, 2008).  ``Tape.backward`` walks the list once in reverse; a
node returns one contribution per input and writes the gradient of each
parameter it reads into the array it is handed, in training a view of one
flat vector that ``adam_step`` checks and applies in place.  The one
generic node is ``Tape.leaf``; the model records fused nodes of its own
through ``Tape.record`` (each MLP, the latent layer and the training
objective).  Node outputs and the adjoints between nodes are checked for
NaN/Inf.  Nothing the tape stores refers back to it, so reference counting
frees a dead tape.  ``glorot_init`` draws from a ``Generator`` its caller
seeds with ``np.random.default_rng(seed)``.
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

    NaN/Inf in any node output or activation adjoint raises
    ``NonFiniteError``, which surfaces numerical failures at their source.
    """

    def __init__(self):
        self._nodes: list[tuple] = []  # (op, out slot, input slots, backward, parameter names)
        self._params: dict[str, tuple] = {}  # parameter name -> shape
        self._n_slots = 0

    def _wrap(self, data, op: str) -> Tensor:
        self._n_slots += 1
        return Tensor(_checked(data, op), self, self._n_slots - 1)

    def leaf(self, name: str, value) -> Tensor:
        """A checked input whose gradient backward reports under ``name``:
        a node over no inputs that writes its adjoint into its destination."""
        def backward(g, dest):
            dest[...] = g
            return ()

        return self.record(f"leaf:{name}", value, (), backward, {name: value})

    def constant(self, value) -> Tensor:
        """A non-trainable input; backward never differentiates past it."""
        return Tensor(_checked(value, "constant"), self, None)

    def record(self, op: str, out_data, inputs: tuple, backward, params=None) -> Tensor:
        """Append a node over ``inputs`` that reads ``params`` (name -> value,
        unchecked).  ``backward(g, *dests)`` returns one contribution (or
        None) per input and writes each parameter's gradient into its dest;
        it must not hold a tensor or the tape."""
        out, params = self._wrap(out_data, op), params or {}
        if self._params.keys() & params.keys():
            raise ValueError(f"op '{op}' reads a parameter another node already reads")
        self._params.update({name: np.shape(value) for name, value in params.items()})
        self._nodes.append((op, out.slot, tuple(t.slot for t in inputs), backward, tuple(params)))
        return out

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def backward(self, output: Tensor, into: dict | None = None) -> dict[str, np.ndarray]:
        """Gradients of a scalar output with respect to every parameter.

        Each node is visited once, in reverse construction order, and writes
        the gradient of each parameter it reads into that name's array in
        ``into`` (such as ``flat_views`` of one vector), with no temporary
        kept or copied; a node off the path to ``output`` writes zeros.
        Only the adjoints passed between nodes are checked here."""
        if output.tape is not self:
            raise ValueError("output tensor does not belong to this tape")
        if output.data.shape != ():
            raise ShapeError(
                f"backward requires a scalar output, got shape {output.data.shape}"
            )
        grads = into if into is not None else {n: np.empty(s) for n, s in self._params.items()}
        adjoint: dict[int, np.ndarray] = {output.slot: np.ones(())}
        for op, out_slot, in_slots, node_backward, names in reversed(self._nodes):
            dests = [grads[name] for name in names]
            g = adjoint.pop(out_slot, None)
            if g is None:
                for dest in dests:
                    dest[...] = 0.0
                continue
            for slot, contrib in zip(in_slots, node_backward(g, *dests)):
                if contrib is None or slot is None:
                    continue
                if not np.all(np.isfinite(contrib)):
                    raise NonFiniteError(f"non-finite adjoint from op '{op}'")
                adjoint[slot] = adjoint[slot] + contrib if slot in adjoint else contrib
        return grads


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
    """Adam's moments and one scratch chunk for the flat vector laid out as
    ``like`` (name -> array), allocated once; the names label bad gradients.

    The moments are kept scaled: ``m`` and ``v`` hold the textbook first and
    second moments divided by (1 - beta1) and (1 - beta2), so that each
    update is a multiply and an add of the gradient (or its square)."""

    CHUNK = 32768  # elements per pass: the chunk of every operand stays in cache
    FLUSH_EVERY, FLUSH_BELOW = 64, 1e-290  # adam_step zeroes such first moments that often

    def __init__(self, like: dict):
        self.names, self.ends = list(like), np.cumsum([np.size(v) for v in like.values()])
        self.m, self.v = np.zeros(self.ends[-1]), np.zeros(self.ends[-1])
        self.scratch, self.step = np.empty(min(self.ends[-1], self.CHUNK)), 0

    def require_finite(self, flat: np.ndarray, what: str):
        """Raise ``NonFiniteError`` naming the parameter of the first NaN/Inf in ``flat``."""
        bad = ~np.isfinite(flat)
        if bad.any():
            name = self.names[np.searchsorted(self.ends, np.argmax(bad), side="right")]
            raise NonFiniteError(f"non-finite {what} for parameter '{name}'")


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
    in place, chunk by chunk, in ten elementwise passes per chunk.

    The bias corrections fold into the step size, as in the note under
    Algorithm 1 of the paper: with the scaled moments M = ``state.m`` and
    V = ``state.v`` and r = sqrt((1 - beta2^t) / (1 - beta2)), the update is
    p -= alpha * M / (sqrt(V) + eps * r), alpha = lr * (1 - beta1) / (1 -
    beta1^t) * r.  This equals the textbook update up to rounding.  A NaN or
    Inf gradient raises ``NonFiniteError`` naming its parameter before
    anything moves; one dot product screens for it, and only a non-finite
    g.g (which a finite gradient above about 1e154 also gives) runs the
    elementwise check.

    Every ``FLUSH_EVERY`` steps, two more passes zero each first moment below
    ``FLUSH_BELOW`` in magnitude.  A moment whose gradient stays zero (a dead ReLU
    unit) would turn subnormal after about 6,700 steps and slow each later
    step several times over; 64 steps take 1e-290 only to 1e-293.  A zeroed
    moment would have moved its parameter by at most about lr * 1e-290 / eps
    in all.  ``v`` needs hundreds of thousands of steps to turn subnormal."""
    if lr <= 0:
        raise ValueError(f"adam_step: lr must be positive, got {lr}")
    if not np.isfinite(np.dot(grads, grads)):
        state.require_finite(grads, "gradient")
    state.step += 1
    r = np.sqrt((1 - beta2**state.step) / (1 - beta2))
    alpha, eps_hat = lr * (1 - beta1) / (1 - beta1**state.step) * r, eps * r
    for start in range(0, len(params), state.CHUNK):
        part = slice(start, start + state.CHUNK)
        p, g, m, v = params[part], grads[part], state.m[part], state.v[part]
        s = state.scratch[: len(p)]
        m *= beta1
        m += g
        if state.step % state.FLUSH_EVERY == 0:
            m[np.abs(m, out=s) < state.FLUSH_BELOW] = 0.0
        v *= beta2
        v += np.multiply(g, g, out=s)
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= alpha
        p -= s
    return params
