"""Minimal reverse-mode autodiff over dense float64 arrays.

The graph is define-by-run: every operation returns a fresh ``Node``
holding the forward value, the parent nodes and a closure computing the
gradient messages for those parents.  ``Node.backward`` walks the graph
once in reverse topological order and accumulates into ``.grad``.

Elementwise ops take operands of equal shape or a scalar with an array;
no other broadcast is allowed.
"""

import numpy as np

__all__ = [
    "Node",
    "constant",
    "parameter",
    "matmul",
    "affine",
    "add",
    "sub",
    "mul",
    "relu",
    "sigmoid",
    "exp",
    "log",
    "square",
    "reduce_sum",
    "softmax_rows",
    "pool_rows",
    "clip",
    "reshape",
    "kron_rows",
    "concat_cols",
]


class Node:
    """One value in the computation graph.

    ``data`` and ``grad`` are float64 arrays of identical shape.  Leaf
    nodes carry ``requires_grad`` to mark trainable parameters; interior
    nodes inherit the flag from their inputs.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, _parents=(), _bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._bwd = _bwd

    @property
    def grad(self):
        # allocated on first touch; reads always see a data-shaped array
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self):
        return f"Node(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Populate ``grad`` for every node reachable from this scalar.

        Gradient messages are propagated functionally (fresh arrays per
        pass) and only accumulated into ``.grad`` at each node, so a
        second backward without a reset adds an identical contribution.
        """
        if self.data.ndim != 0:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        order = _topo_order(self)
        msgs = {id(self): np.ones((), dtype=np.float64)}
        for node in order:
            g = msgs.pop(id(node), None)
            if g is None:
                continue
            if node._grad is None:
                node._grad = g if g.flags.owndata else g.copy()
            else:
                node._grad += g
            if node._bwd is None:
                continue
            for parent, pg in zip(node._parents, node._bwd(g)):
                if not parent.requires_grad:
                    continue
                acc = msgs.get(id(parent))
                if acc is None:
                    msgs[id(parent)] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    acc += pg


def _topo_order(root):
    """Reverse topological order of the subgraph below ``root``."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))
    order.reverse()
    return order


def constant(data):
    """Wrap an array as a graph value that never receives gradients."""
    return Node(data, requires_grad=False)


def parameter(data, grad):
    """A trainable leaf over caller-owned float64 ``data`` and ``grad``
    arrays of one shape; backward accumulates into ``grad`` in place."""
    node = Node(data, requires_grad=True)
    node._grad = grad
    return node


def as_node(x):
    return x if isinstance(x, Node) else constant(x)


def _requires(*nodes):
    return any(n.requires_grad for n in nodes)


# ---------------------------------------------------------------------------
# binary elementwise ops with restricted broadcasting


def _check_broadcast(a_shape, b_shape):
    """Allow equal shapes and scalar-with-array only."""
    if a_shape != b_shape and () not in (a_shape, b_shape):
        raise ValueError(f"unsupported broadcast between shapes {a_shape} and {b_shape}")


def _reduce_to(g, shape):
    """Sum a scalar operand's broadcast gradient back down to ``shape``."""
    return g if g.shape == shape else g.sum()


def _binary(a, b, out, da, db):
    a, b = as_node(a), as_node(b)

    def bwd(g):
        return (_reduce_to(da(g), a.shape), _reduce_to(db(g), b.shape))

    return Node(out, requires_grad=_requires(a, b), _parents=(a, b), _bwd=bwd)


def add(a, b):
    a, b = as_node(a), as_node(b)
    _check_broadcast(a.shape, b.shape)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = as_node(a), as_node(b)
    _check_broadcast(a.shape, b.shape)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = as_node(a), as_node(b)
    _check_broadcast(a.shape, b.shape)
    return _binary(
        a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data
    )


# ---------------------------------------------------------------------------
# unary elementwise ops


def _unary(a, out, da):
    a = as_node(a)

    def bwd(g):
        return (da(g),)

    return Node(out, requires_grad=a.requires_grad, _parents=(a,), _bwd=bwd)


def relu(a):
    a = as_node(a)
    mask = a.data > 0
    return _unary(a, np.where(mask, a.data, 0.0), lambda g: g * mask)


def _sigmoid_values(x):
    # two-branch form avoids exp overflow for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    a = as_node(a)
    s = _sigmoid_values(a.data)
    return _unary(a, s, lambda g: g * s * (1.0 - s))


def exp(a):
    a = as_node(a)
    # overflow becomes inf and surfaces through the non-finite loss guard
    with np.errstate(over="ignore"):
        e = np.exp(a.data)
    return _unary(a, e, lambda g: g * e)


def log(a):
    a = as_node(a)
    if np.any(a.data <= 0):
        raise ValueError("log of non-positive value")
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def square(a):
    a = as_node(a)
    return _unary(a, a.data * a.data, lambda g: g * (2.0 * a.data))


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient is zero where clamping acted."""
    a = as_node(a)
    mask = (a.data > lo) & (a.data < hi)
    return _unary(a, np.clip(a.data, lo, hi), lambda g: g * mask)


# ---------------------------------------------------------------------------
# reductions and structure


def reduce_sum(a, axis=None):
    a = as_node(a)
    _check_axis(a, axis)
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return Node(out, requires_grad=a.requires_grad, _parents=(a,), _bwd=bwd)


def _check_axis(a, axis):
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise ValueError(f"axis {axis} invalid for shape {a.shape}")


def softmax_rows(a):
    """Softmax along each row of a matrix (max-stabilized per row)."""
    a = as_node(a)
    if a.ndim != 2:
        raise ValueError(f"softmax_rows expects a matrix, got shape {a.shape}")
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)

    return Node(s, requires_grad=a.requires_grad, _parents=(a,), _bwd=bwd)


def pool_rows(w, x):
    """Weighted sum over the middle axis: [N, L] x [N, L, C] -> [N, C].

    Row n of the result is sum_l w[n, l] * x[n, l, :].
    """
    w, x = as_node(w), as_node(x)
    if w.ndim != 2 or x.ndim != 3 or x.shape[:2] != w.shape:
        raise ValueError(f"pool_rows shapes incompatible: {w.shape} x {x.shape}")

    def bwd(g):
        gw = np.einsum("nc,nlc->nl", g, x.data)
        gx = w.data[:, :, None] * g[:, None, :] if x.requires_grad else None
        return (gw, gx)

    return Node(np.einsum("nl,nlc->nc", w.data, x.data),
                requires_grad=_requires(w, x), _parents=(w, x), _bwd=bwd)


def reshape(a, shape):
    a = as_node(a)
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return Node(out, requires_grad=a.requires_grad, _parents=(a,), _bwd=bwd)


def matmul(a, b):
    a, b = as_node(a), as_node(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"matmul expects matrices, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")

    def bwd(g):
        return (g @ b.data.T, a.data.T @ g)

    return Node(a.data @ b.data, requires_grad=_requires(a, b), _parents=(a, b), _bwd=bwd)


def affine(x, w, b):
    """x @ w + b over the last axis of x: [..., d] x [d, k] + [k] -> [..., k]."""
    x, w, b = as_node(x), as_node(w), as_node(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine shapes incompatible: {x.shape} x {w.shape}")
    d, k = w.shape
    if b.shape != (k,):
        raise ValueError(f"affine bias shape {b.shape} does not match {k} outputs")
    rows = x.data.reshape(-1, d)

    def bwd(g):
        g2 = g.reshape(-1, k)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return (gx, rows.T @ g2, g2.sum(axis=0))

    out = (rows @ w.data + b.data).reshape(*x.shape[:-1], k)
    return Node(out, requires_grad=_requires(x, w, b), _parents=(x, w, b), _bwd=bwd)


def kron_rows(a, b):
    """Row-wise Kronecker product: out[n, i*q + j] = a[n, i] * b[n, j]."""
    a, b = as_node(a), as_node(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(
            f"kron_rows expects matrices with equal row counts, "
            f"got shapes {a.shape} and {b.shape}"
        )
    (n, p), q = a.shape, b.shape[1]
    out = (a.data[:, :, None] * b.data[:, None, :]).reshape(n, p * q)

    def bwd(g):
        gm = g.reshape(n, p, q)
        return (np.einsum("npq,nq->np", gm, b.data),
                np.einsum("np,npq->nq", a.data, gm))

    return Node(out, requires_grad=_requires(a, b), _parents=(a, b), _bwd=bwd)


def concat_cols(a, b):
    """Join two matrices side by side; backward splits the gradient."""
    a, b = as_node(a), as_node(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(
            f"concat_cols expects matrices with equal row counts, "
            f"got shapes {a.shape} and {b.shape}"
        )
    p = a.shape[1]

    def bwd(g):
        return (g[:, :p], g[:, p:])

    return Node(
        np.concatenate([a.data, b.data], axis=1),
        requires_grad=_requires(a, b),
        _parents=(a, b),
        _bwd=bwd,
    )
