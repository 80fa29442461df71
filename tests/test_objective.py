import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import check_full_objective, param_group, tiny_setup, tiny_config
from zsih import layers, model, objective, pipeline
from zsih.autodiff import Node
from zsih.objective import AdamState, adam_step, batch_loss, estimate_gradients


def _terms(b, bits, f_out, g_out, s, dec, m_bits):
    """One draw's three loss terms as ``batch_loss`` adds them, for its
    [N, M] ``bits``: log q, -log p and the code regression."""
    draw = bits[None]
    return (layers.log_q(b, draw).data[0], -layers.log_p_gaussian(s, draw, dec).data[0],
            objective.code_regression(f_out, g_out, draw, m_bits).data[0])


class TestBatchLoss:
    def test_decomposition_identity(self):
        _, _, params, batch, adj, eps, _ = tiny_setup()
        _, bd = batch_loss(batch, params, adj, eps)
        assert bd.total == bd.entropy_term + bd.decode_term + bd.code_reg_term
        assert bd.code_reg_term >= 0.0

    def test_half_probability_entropy(self):
        config, _, params, batch, adj, eps, _ = tiny_setup()
        params.gcn2.w_theta[...] = 0.0  # code probabilities become 0.5
        _, bd = batch_loss(batch, params, adj, eps)
        expected = config.N_B * config.M * math.log(0.5)
        assert abs(bd.entropy_term - expected) < 1e-10

    def test_half_probability_code_regularizer(self):
        config, _, params, batch, adj, eps, _ = tiny_setup()
        params.gcn2.w_theta[...] = 0.0
        for enc in (params.enc_im, params.enc_sk):
            enc.w[...] = 0.0
            enc.b[...] = 0.0
        eps = np.full((1, config.N_B, config.M), 0.25)  # all bits sample to 1
        _, bd = batch_loss(batch, params, adj, eps)
        # per item and encoder: |0.5 - 1|^2 summed over M, scaled by 1/(2M)
        assert abs(bd.code_reg_term - config.N_B * 0.25) < 1e-12

    def test_regularizer_vanishes_when_encoders_hit_bits(self, rng):
        m = 4
        bits = rng.integers(0, 2, size=(2, m)).astype(float)
        assert objective.code_regression(bits, bits, bits[None], m).data.tolist() == [0.0]

    def test_single_item_miniature_composes_layer_oracles(self, rng):
        # one item, M=1: total term values equal the hand-summed scalars
        b_val = 0.73
        bit = np.array([[1.0]])
        s = np.array([[0.4, -1.1]])
        dec = param_group(
            w_mu=rng.normal(size=(1, 2)), b_mu=rng.normal(size=2),
            w_logvar=rng.normal(size=(1, 2)) * 0.2, b_logvar=np.zeros(2),
        )
        f_val = np.array([[0.61]])
        g_val = np.array([[0.28]])
        entropy, decode, code_reg = _terms(np.array([[b_val]]), bit, f_val, g_val, s, dec, 1)
        assert abs(entropy - math.log(b_val)) < 1e-12
        # the one bit is on: mu and logvar are the decoder's first row plus bias
        mu = dec.w_mu[0] + dec.b_mu
        logvar = dec.w_logvar[0] + dec.b_logvar
        expected_decode = 0.5 * np.sum(math.log(2.0 * math.pi) + logvar
                                       + (s[0] - mu) ** 2 / np.exp(logvar))
        assert abs(decode - expected_decode) < 1e-12
        expected_reg = ((f_val[0, 0] - 1.0) ** 2 + (g_val[0, 0] - 1.0) ** 2) / 2.0
        assert abs(code_reg - expected_reg) < 1e-12

    def test_total_orders_with_code_entropy(self, rng):
        """The sampled-code log-probability enters the total with a plus
        sign, so minimizing the total presses E[log q] down (entropy up)."""
        m = 6
        b = np.full((2, m), 0.7)
        # constant decoder: the decode term cannot distinguish the states
        dec = param_group(w_mu=np.zeros((m, 2)), b_mu=np.zeros(2),
                          w_logvar=np.zeros((m, 2)), b_logvar=np.zeros(2))
        sem = np.zeros((2, 2))
        totals = {}
        for tag, bit in (("likely", 1.0), ("unlikely", 0.0)):
            bits = np.full((2, m), bit)
            totals[tag] = sum(_terms(b, bits, bits, bits, sem, dec, m))
        assert totals["unlikely"] < totals["likely"]

    def test_batch_too_small(self):
        _, _, params, batch, adj, eps, _ = tiny_setup()
        batch.sketch_feats = batch.sketch_feats[:1]
        batch.image_feats = batch.image_feats[:1]
        batch.semantics = batch.semantics[:1]
        with pytest.raises(ValueError, match="at least 2"):
            batch_loss(batch, params, adj[:1, :1], eps[:, :1])

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_one_node_per_layer(self, monkeypatch, draws):
        """A default step (Kronecker fusion, GCN) builds one node for each
        of the 7 trunk layers and 4 over all draws at once (sampler, log q,
        decoder, code regression), whatever K is."""
        _, _, params, batch, adj, eps, _ = tiny_setup()
        built = []
        init = Node.__init__

        def counting_init(node, *args, **kwargs):
            built.append(node)
            init(node, *args, **kwargs)

        monkeypatch.setattr(Node, "__init__", counting_init)
        loss, _ = batch_loss(batch, params, adj, np.repeat(eps, draws, axis=0))
        estimate_gradients(loss, params)
        assert len(built) == 11

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_one_trunk_pass_per_step(self, monkeypatch, draws):
        """Only the sampler and the loss see the noise: the trunk, and so
        each modality's attention pooling, runs once whatever K is."""
        config, _, params, batch, adj, _, rng = tiny_setup()
        calls = []
        pool = layers.attention_pool

        def counting_pool(*args):
            calls.append(args)
            return pool(*args)

        monkeypatch.setattr(layers, "attention_pool", counting_pool)
        eps = rng.random((draws, config.N_B, config.M))
        loss, _ = batch_loss(batch, params, adj, eps)
        estimate_gradients(loss, params)
        assert len(calls) == 2

    def test_multi_draw_average_of_identical_draws(self):
        config, _, params, batch, adj, eps, _ = tiny_setup()
        _, bd1 = batch_loss(batch, params, adj, eps)
        stacked = np.concatenate([eps, eps])
        _, bd2 = batch_loss(batch, params, adj, stacked)
        assert bd1.total == bd2.total


class TestEstimateGradients:
    def test_deterministic(self):
        _, _, params, batch, adj, eps, _ = tiny_setup()
        loss1, _ = batch_loss(batch, params, adj, eps)
        g1 = estimate_gradients(loss1, params)
        loss2, _ = batch_loss(batch, params, adj, eps)
        g2 = estimate_gradients(loss2, params)
        assert g1.shape == params.theta.shape
        np.testing.assert_array_equal(g1, g2)

    def test_stale_gradient_buffer_is_reset(self):
        _, _, params, batch, adj, eps, _ = tiny_setup()
        loss, _ = batch_loss(batch, params, adj, eps)
        clean = estimate_gradients(loss, params)
        params.grad[...] = np.nan
        np.testing.assert_array_equal(estimate_gradients(loss, params), clean)

    def test_returns_a_copy_of_the_flat_gradient(self):
        _, _, params, batch, adj, eps, _ = tiny_setup()
        loss, _ = batch_loss(batch, params, adj, eps)
        grad = estimate_gradients(loss, params)
        np.testing.assert_array_equal(grad, params.grad)
        assert not np.shares_memory(grad, params.grad)

    def test_identical_draws_give_the_one_draw_gradient(self):
        """Every draw's share reaches the trunk: K equal draws, each
        weighted 1/K, sum back to the one-draw gradient."""
        _, _, params, batch, adj, eps, _ = tiny_setup()
        loss, _ = batch_loss(batch, params, adj, eps)
        one = estimate_gradients(loss, params)
        loss, _ = batch_loss(batch, params, adj, np.repeat(eps, 3, axis=0))
        np.testing.assert_allclose(estimate_gradients(loss, params), one,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("draws", [1, 2])
    def test_full_objective_matches_fd(self, draws):
        """Autodiff against central differences of the straight-through
        surrogate, for every parameter group, at one and at two draws."""
        config, _, params, batch, adj, eps, rng = tiny_setup()
        more = rng.random((draws - 1, config.N_B, config.M))
        check_full_objective(params, batch, adj, np.concatenate([eps, more]))


class TestAdam:
    def _params_and_state(self, rng):
        config, _, params, _, _, _, _ = tiny_setup(lr=0.01)
        return config, params, AdamState.init(params)

    def test_init_zeroes_the_step_and_moments(self):
        _, _, params, _, _, _, _ = tiny_setup()
        state = AdamState.init(params)
        assert state.step == 0
        for moment in (state.m, state.v):
            np.testing.assert_array_equal(moment, np.zeros_like(params.theta))

    def test_zero_gradient_leaves_params_unchanged(self, rng):
        config, params, state = self._params_and_state(rng)
        before = params.theta.copy()
        adam_step(params, np.zeros_like(params.theta), state, config)
        np.testing.assert_array_equal(params.theta, before)
        assert state.step == 1

    def test_first_step_is_normalized_gradient_direction(self, rng):
        config, params, state = self._params_and_state(rng)
        g = rng.normal(size=params.theta.shape)
        before = params.theta.copy()
        adam_step(params, g, state, config)
        expected = before - config.lr * g / (np.abs(g) + config.eps_hat)
        np.testing.assert_allclose(params.theta, expected, rtol=1e-9, atol=1e-12)
        # every weight is a view into theta, so it moved with it
        for name, view in params.split(expected).items():
            group, weight = name.split(".")
            np.testing.assert_allclose(getattr(getattr(params, group), weight), view,
                                       rtol=1e-9, atol=1e-12)

    def test_quadratic_bowl_descends_monotonically(self):
        # sum(theta^2), whose gradient is 2 theta
        holder = SimpleNamespace(theta=np.full(6, 2.0))
        config = tiny_config(lr=0.01)
        state = AdamState.init(holder)
        losses = []
        for _ in range(100):
            losses.append(float(np.sum(holder.theta ** 2)))
            adam_step(holder, 2.0 * holder.theta, state, config)
        losses.append(float(np.sum(holder.theta ** 2)))
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_non_finite_gradient_aborts(self, rng):
        config, params, state = self._params_and_state(rng)
        grad = np.zeros_like(params.theta)
        params.split(grad)["gcn1.w_theta"][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="gcn1.w_theta"):
            adam_step(params, grad, state, config)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_its_weight_at_both_ends(self, rng, value):
        config, params, state = self._params_and_state(rng)
        before = params.theta.copy()
        for name in params.shapes:
            for end in (0, -1):
                grad = np.zeros_like(params.theta)
                params.split(grad)[name].reshape(-1)[end] = value
                with pytest.raises(FloatingPointError, match=f"'{name}'"):
                    adam_step(params, grad, state, config)
        assert state.step == 0
        np.testing.assert_array_equal(params.theta, before)

    @pytest.mark.parametrize("grad_clip", [0.0, 0.01])
    @pytest.mark.parametrize("mode", ["kronecker", "mfb"])
    def test_flat_update_equals_per_name_reference(self, mode, grad_clip):
        """train_step's one update over the flat buffers gives the same
        bits as Adam run weight by weight on per-name arrays."""
        config, dataset, params, _, _, _, rng = tiny_setup(fusion_mode=mode, lr=0.05,
                                                           grad_clip=grad_clip)
        ref_params = model.params_from_arrays(config, params.split(params.theta))
        state = AdamState.init(params)
        ref = ref_params.split(ref_params.theta)
        ref_m = {name: np.zeros(shape) for name, shape in params.shapes.items()}
        ref_v = {name: np.zeros(shape) for name, shape in params.shapes.items()}
        b1, b2, lr, eps_hat = config.beta1, config.beta2, config.lr, config.eps_hat
        clipped = False
        for t in range(1, 7):
            batch = pipeline.sample_batch(dataset, config.N_B, rng)
            adj = pipeline.build_adjacency(batch.semantics, config.t)
            eps = rng.random((1, config.N_B, config.M))
            loss, _ = batch_loss(batch, ref_params, adj, eps)
            grads = ref_params.split(estimate_gradients(loss, ref_params))
            for name, g in grads.items():
                if grad_clip > 0.0:
                    clipped |= bool(np.any(np.abs(g) > grad_clip))
                    g = np.clip(g, -grad_clip, grad_clip)
                m, v = ref_m[name], ref_v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                ref[name] -= lr * (m / (1.0 - b1 ** t)) / (
                    np.sqrt(v / (1.0 - b2 ** t)) + eps_hat)
            pipeline.train_step(batch, params, state, adj, eps, config)
            for name, weight in params.split(params.theta).items():
                np.testing.assert_array_equal(weight, ref[name])
                np.testing.assert_array_equal(params.split(state.m)[name], ref_m[name])
                np.testing.assert_array_equal(params.split(state.v)[name], ref_v[name])
        assert clipped == (grad_clip > 0.0)


class TestToyDescent:
    def test_loss_drops_on_two_class_toy_across_seeds(self):
        wins = 0
        for seed in range(100):
            config, dataset, params, _, _, _, rng = tiny_setup(
                seed=seed, n_classes=2, per_class=4, length=1, channels=6,
                d_s=3, N_B=8, M=8, d_f=3, gcn_hidden=4,
            )
            state = AdamState.init(params)
            first = last = None
            for _ in range(300):
                batch = pipeline.sample_batch(dataset, config.N_B, rng)
                adj = pipeline.build_adjacency(batch.semantics, config.t)
                eps = rng.random((1, config.N_B, config.M))
                loss, bd = batch_loss(batch, params, adj, eps)
                grads = estimate_gradients(loss, params)
                adam_step(params, grads, state, config)
                if first is None:
                    first = bd.total
                last = bd.total
            if last < first:
                wins += 1
        assert wins >= 95
