"""The record every layer in ``zsih.layers`` returns.

A ``Node`` pairs a layer's forward value with the layer's own hand-written
vector-Jacobian product.  The one reverse pass, ``estimate_gradients`` and
the trunk's ``vjp`` it calls, runs each node's ``vjp`` in the fixed
reverse order of the forward pass.
"""

__all__ = ["Node"]


class Node:
    """One layer's output ``data`` and its ``vjp``.

    ``vjp(g)`` maps the gradient of ``data`` to a tuple holding one
    gradient per differentiable input.  A layer with weights takes its
    weight group's gradient views as a second argument, ``vjp(g, grads)``,
    and adds each weight's gradient into the view of the same name.
    """

    __slots__ = ("data", "vjp")

    def __init__(self, data, vjp):
        self.data = data
        self.vjp = vjp
