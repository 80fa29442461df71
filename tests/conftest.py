"""Shared test helpers: finite-difference oracles and tiny model builders."""

from types import SimpleNamespace

import numpy as np
import pytest

from zsih import layers, model, objective, pipeline
from zsih.autodiff import Node
from zsih.data import synth_dataset

FD_STEP = 1e-5
FD_RTOL = 1e-4
FD_ATOL = 1e-8


def fd_grad(f, arr, h=FD_STEP):
    """Central finite differences of scalar f() w.r.t. the float64 array
    ``arr``, which is perturbed in place one entry at a time."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(ad_grad, fd, rtol=FD_RTOL, atol=FD_ATOL):
    np.testing.assert_allclose(ad_grad, fd, rtol=rtol, atol=atol)


def zero_grads(group):
    """Zero gradient buffers named like the weights of ``group``."""
    return SimpleNamespace(**{name: np.zeros_like(arr) for name, arr in vars(group).items()})


def layer_loss(node):
    """The scalar the layer checks reduce a node to: its value when it is
    a scalar, else the sum of its squared entries."""
    return float(node.data) if np.ndim(node.data) == 0 else float(np.sum(node.data * node.data))


def draws_summed(node):
    """A draw-axis loss node as the sum of its per-draw values: the sum
    passes its scalar gradient to every draw alike, which is the ``g``
    those VJPs take."""
    return Node(float(np.sum(node.data)), node.vjp)


def vjp_grads(node, inputs=(), weights=None):
    """The gradients of ``layer_loss(node)`` by the node's own VJP.

    Returns ([(array, gradient)] for each distinct array of ``inputs``,
    which lists the VJP's inputs in its order (an array listed twice gets
    the sum of both), and {weight name: gradient} for the group
    ``weights``).  An [N, M] array that feeds every draw of [K, N, M]
    draws gets its K per-draw gradients summed."""
    g_out = 1.0 if np.ndim(node.data) == 0 else 2.0 * node.data
    if weights is None:
        g_inputs, grads = node.vjp(g_out), SimpleNamespace()
    else:
        grads = zero_grads(weights)
        g_inputs = node.vjp(g_out, grads)
    pairs = {}
    for arr, g in zip(inputs, g_inputs, strict=True):
        if g.ndim == arr.ndim + 1:
            g = layers.draw_sum(g)
        prev = pairs.get(id(arr))
        pairs[id(arr)] = (arr, g if prev is None else prev[1] + g)
    return list(pairs.values()), vars(grads)


def check_vjp(make_node, inputs=(), weights=None, rtol=FD_RTOL, atol=FD_ATOL):
    """A layer's VJP against central differences of ``layer_loss``, for
    every array of ``inputs`` and every weight of ``weights``.

    ``make_node()`` rebuilds the layer node from the current values of
    those float64 arrays, which ``fd_grad`` perturbs in place.
    """
    input_grads, weight_grads = vjp_grads(make_node(), inputs, weights)

    def loss():
        return layer_loss(make_node())

    for arr, g in input_grads:
        assert_grad_close(g, fd_grad(loss, arr), rtol=rtol, atol=atol)
    for name, g in weight_grads.items():
        assert_grad_close(g, fd_grad(loss, getattr(weights, name)), rtol=rtol, atol=atol)


def check_full_objective(params, batch, adj, eps_draws):
    """``batch_loss``'s straight-through gradient of every weight against
    central differences of its surrogate.

    The surrogate freezes the sampled bits of every draw and stands
    b + (bits - b) in for the sampler; the trunk, the encoders and the loss
    stay live.  It is built from the public pieces: ``forward_multimodal``
    and the three loss layers over all draws at once, averaged over the
    draws.  ``eps_draws`` is [K, N, M].
    """
    b = model.forward_multimodal(batch, params, adj).b
    bits = layers.stochastic_neurons(b, eps_draws).data
    offsets = bits - b
    loss, _ = objective.batch_loss(batch, params, adj, eps_draws)
    ad_grads = params.split(objective.estimate_gradients(loss, params))

    def surrogate():
        trunk = model.forward_multimodal(batch, params, adj)
        b_tilde = trunk.b + offsets
        terms = (layers.log_q(trunk.b, bits).data
                 - layers.log_p_gaussian(batch.semantics, b_tilde, params.dec).data
                 + layers.code_regression(trunk.f_out, trunk.g_out, b_tilde,
                                          params.code_bits).data)
        return float(np.mean(terms))

    for name, weight in params.split(params.theta).items():
        assert_grad_close(ad_grads[name], fd_grad(surrogate, weight))


def param_group(**arrays):
    """One layer's weights as the layers read them: a float64 copy of each
    array, by attribute."""
    return SimpleNamespace(**{name: np.array(arr, dtype=np.float64)
                              for name, arr in arrays.items()})


def tiny_config(**overrides):
    base = dict(M=4, d_f=3, gcn_hidden=5, N_B=4, max_iters=0, seed=0, t=0.5)
    base.update(overrides)
    return pipeline.ZsihConfig(**base).validate()


def tiny_setup(seed=0, n_classes=4, per_class=3, length=2, channels=6, d_s=3,
               noise=0.1, **config_overrides):
    """Small synthetic dataset over all its classes plus matching params, a
    sampled batch and its one draw of [1, N_B, M] noise."""
    config = tiny_config(**config_overrides)
    store, table = synth_dataset(n_classes, per_class, length, channels, d_s,
                                 noise, seed)
    dataset = pipeline.PairedDataset.from_stores(store, store, table, store.classes)
    rng = np.random.default_rng(seed)
    params = model.init_params(config, channels, d_s, rng)
    batch = pipeline.sample_batch(dataset, config.N_B, rng)
    # the propagation matrix that train uses: the identity for the no-GCN ablation
    adj = (pipeline.build_adjacency(batch.semantics, config.t) if config.use_gcn
           else np.eye(config.N_B))
    eps = rng.random((1, config.N_B, config.M))
    return config, dataset, params, batch, adj, eps, rng


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
