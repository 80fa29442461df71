"""The backward sequencer for the model's layer nodes.

Each layer in ``zsih.layers`` computes its forward value with numpy and
returns one ``Node`` holding that value, its input nodes and its own
hand-written vector-Jacobian product.  ``Node.backward`` walks those
nodes once in reverse topological order, hands each node the summed
gradient of everything that consumed it, and accumulates into ``.grad``.
"""

import numpy as np

__all__ = ["Node", "constant", "parameter"]


class Node:
    """One value in the computation graph.

    ``data`` and ``grad`` are float64 arrays of identical shape.  Leaf
    nodes carry ``requires_grad`` to mark trainable parameters; interior
    nodes inherit the flag from their inputs, ``_parents``.  ``_bwd(g)``
    maps the gradient of this node's value to one gradient per parent.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, _parents=(), _bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents)
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
