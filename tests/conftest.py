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


def fd_grad(f, node, h=FD_STEP):
    """Central finite differences of scalar f() w.r.t. one node's data."""
    grad = np.zeros_like(node.data)
    flat = node.data.reshape(-1)
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


def check_node_grads(make_loss, nodes, rtol=FD_RTOL, atol=FD_ATOL):
    """Compare autodiff and finite-difference gradients for each node.

    ``make_loss`` rebuilds the loss graph from the nodes' current data and
    returns the scalar loss node.
    """
    loss = make_loss()
    for n in nodes:
        n.zero_grad()
    loss.backward()
    ad_grads = [n.grad.copy() for n in nodes]
    for n, ag in zip(nodes, ad_grads):
        fd = fd_grad(lambda: make_loss().item(), n)
        assert_grad_close(ag, fd, rtol=rtol, atol=atol)


def square_sum(node):
    """sum(x^2) over a node's value, as a scalar node: the loss the layer
    tests reduce a layer's output to."""
    return Node(np.sum(node.data * node.data), _parents=(node,),
                _bwd=lambda g: (2.0 * g * node.data,))


def shifted(node, offset):
    """node + offset with an identity gradient: the straight-through
    surrogate of the sampler once its bits are frozen."""
    return Node(node.data + offset, _parents=(node,), _bwd=lambda g: (g,))


def check_full_objective(params, batch, adj, eps_draws):
    """``batch_loss``'s straight-through gradient of every weight against
    central differences of its surrogate.

    The surrogate freezes each draw's sampled bits and stands b + (bits -
    b), with an identity gradient, in for the sampler; the trunk, the
    encoders and the loss stay live.  It is built from the public pieces:
    ``forward_multimodal``, one ``loss_terms`` per draw, ``mc_total``.
    ``eps_draws`` is [K, N, M].
    """
    b, _, _ = model.forward_multimodal(batch, params, adj)
    bits = [layers.stochastic_neurons(b, eps).data for eps in eps_draws]
    offsets = [draw - b.data for draw in bits]
    loss, _ = objective.batch_loss(batch, params, adj, eps_draws)
    ad_grads = params.split(objective.estimate_gradients(loss, params))

    def surrogate():
        b, f_out, g_out = model.forward_multimodal(batch, params, adj)
        draws = [objective.loss_terms(b, shifted(b, offset), draw, f_out, g_out,
                                      batch.semantics, params.dec, params.code_bits)
                 for offset, draw in zip(offsets, bits)]
        return objective.mc_total(draws)[0].item()

    for name, node in params.nodes.items():
        assert_grad_close(ad_grads[name], fd_grad(surrogate, node))


def param_group(**arrays):
    """One layer's weights as the layers read them: a trainable Node per
    attribute, each holding a float64 copy of its array."""
    return SimpleNamespace(**{
        name: Node(np.array(arr, dtype=np.float64), requires_grad=True)
        for name, arr in arrays.items()})


def tiny_config(**overrides):
    base = dict(M=4, d_f=3, gcn_hidden=5, N_B=4, max_iters=0, seed=0, t=0.5)
    base.update(overrides)
    return pipeline.ZsihConfig(**base).validate()


def tiny_setup(seed=0, n_classes=4, per_class=3, length=2, channels=6, d_s=3,
               noise=0.1, **config_overrides):
    """Small synthetic dataset plus matching params and a sampled batch."""
    config = tiny_config(**config_overrides)
    store, table = synth_dataset(n_classes, per_class, length, channels, d_s,
                                 noise, seed)
    dataset = pipeline.PairedDataset.from_stores(store, store, table)
    rng = np.random.default_rng(seed)
    params = model.init_params(config, channels, d_s, rng)
    batch = pipeline.sample_batch(dataset, config.N_B, rng)
    adj = pipeline.build_adjacency(batch.semantics, config.t)
    eps = rng.random((config.N_B, config.M))
    return config, dataset, params, batch, adj, eps, rng


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
