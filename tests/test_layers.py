import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import (assert_grad_close, check_vjp, draws_summed, fd_grad, param_group,
                      vjp_grads, zero_grads)
from zsih import layers, model, pipeline


def make_attention(rng, channels, d_f):
    return param_group(
        score_weights=rng.normal(size=(channels, 1)),
        score_bias=rng.normal(size=1),
        proj_weights=rng.normal(size=(channels, d_f)),
        proj_bias=rng.normal(size=d_f),
    )


def attention_weights(feats, params):
    """The row softmax of the attention logits: one weight per location."""
    n, length, channels = feats.shape
    logits = (feats.reshape(n * length, channels) @ params.score_weights
              + params.score_bias)
    return layers.softmax_rows(logits.reshape(n, length))


KERNEL_SHAPES = [(16, 32), (1, 64), (20000, 64)]

# the IEEE edge cases: signed zeros, infinities, NaNs of both signs, the
# exp overflow (709.78) and underflow (-745.13) thresholds, subnormals
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0,
               746.0, -746.0, 5e-324, -5e-324, 1e-310, -1e-310,
               2.2250738585072014e-308, -2.2250738585072014e-308]


def edge_grid(rng, shape, edges=EDGE_VALUES):
    """Random normals at scale 10 with ``edges`` over the first entries."""
    grid = rng.normal(size=shape) * 10.0
    grid.reshape(-1)[:len(edges)] = edges[:grid.size]
    return grid


class TestKernels:
    """The activations and the row softmax equal their plain expressions
    bit for bit, NaN payloads and signed zeros included."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_sigmoid_equals_two_branch_form(self, rng, shape):
        z = edge_grid(rng, shape)
        assert layers.sigmoid(z).tobytes() == oracles.two_branch_sigmoid(z).tobytes()

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_sigmoid_never_overflows(self, rng, shape):
        with np.errstate(over="raise"):
            layers.sigmoid(edge_grid(rng, shape))

    def test_encoder_sigmoid_equals_two_branch_form(self, rng):
        # encode_soft runs the kernel in place over its pre-activation
        enc = param_group(w=rng.normal(size=(3, 64)) * 100.0, b=np.zeros(64))
        h = edge_grid(rng, (40, 3), [0.0, -0.0, np.inf, -np.inf])
        z = h @ enc.w + enc.b
        out = layers.encode_soft(h, enc).data
        assert out.tobytes() == oracles.two_branch_sigmoid(z).tobytes()

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_relu_equals_masked_form(self, rng, shape):
        z = edge_grid(rng, shape)
        assert layers.relu(z).tobytes() == oracles.masked_relu(z).tobytes()

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_softmax_rows_equals_plain_expression(self, rng, shape):
        finite = [v for v in EDGE_VALUES if np.isfinite(v)]
        x = edge_grid(rng, shape, finite)
        assert layers.softmax_rows(x).tobytes() == oracles.softmax_rows(x).tobytes()


def peak_per_output_byte(call):
    """The largest number of bytes ``call`` held allocated at once, over
    the bytes of what it returns; tracemalloc counts numpy's data buffers."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


class TestMemoryBudget:
    """The encode path at the index's 20,000 items allocates no more than
    its output and one [N, M] temporary, plus the attention activations the
    graph node keeps.  Measured: sigmoid 2.00x, encode_features 2.81x; the
    two-branch sigmoid and fresh bias temporaries took 2.62x and 4.26x."""

    N = 20000

    def test_sigmoid(self, rng):
        z = rng.normal(size=(self.N, 64)) * 4.0
        assert peak_per_output_byte(lambda: layers.sigmoid(z)) <= 2.1

    def test_encode_features(self, rng):
        attn = make_attention(rng, 32, 16)
        enc = param_group(w=rng.normal(size=(16, 64)), b=rng.normal(size=64))
        feats = rng.normal(size=(self.N, 4, 32))
        assert peak_per_output_byte(
            lambda: model.encode_features(feats, attn, enc)) <= 2.9


class TestAttentionPool:
    def test_single_location_weight_is_one(self, rng):
        params = make_attention(rng, 5, 3)
        weights = attention_weights(rng.normal(size=(3, 1, 5)), params)
        assert weights.tolist() == [[1.0]] * 3

    def test_identical_rows_give_uniform_weights(self, rng):
        params = make_attention(rng, 4, 2)
        feats = np.tile(rng.normal(size=(2, 1, 4)), (1, 6, 1))
        weights = attention_weights(feats, params)
        np.testing.assert_allclose(weights, np.full((2, 6), 1 / 6), rtol=1e-12)

    def test_weights_form_a_simplex(self, rng):
        params = make_attention(rng, 4, 2)
        weights = attention_weights(rng.normal(size=(3, 7, 4)), params)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(3),
                                   rtol=0, atol=1e-12)

    def test_full_scale_output_dim(self, rng):
        params = make_attention(rng, 256, 256)
        out = layers.attention_pool(rng.normal(size=(2, 9, 256)), params)
        assert out.data.shape == (2, 256)

    def test_empty_input_rejected(self, rng):
        params = make_attention(rng, 4, 2)
        with pytest.raises(ValueError, match="L >= 1"):
            layers.attention_pool(np.zeros((2, 0, 4)), params)
        with pytest.raises(ValueError, match=r"\[N, L, C\]"):
            layers.attention_pool(np.zeros((3, 4)), params)

    def test_channel_mismatch_rejected(self, rng):
        params = make_attention(rng, 4, 2)
        with pytest.raises(ValueError, match="channels"):
            layers.attention_pool(np.zeros((2, 3, 5)), params)

    def test_gradients_match_fd(self, rng):
        params = make_attention(rng, 4, 3)
        feats = rng.normal(size=(3, 5, 4))
        check_vjp(lambda: layers.attention_pool(feats, params), [], params)


class TestKroneckerFusion:
    def test_zero_sketch_annihilates(self, rng):
        params = param_group(w_sk=rng.normal(size=(4, 4)), w_im=rng.normal(size=(4, 4)))
        out = layers.fuse(np.zeros((2, 4)), rng.normal(size=(2, 4)), params)
        np.testing.assert_array_equal(out.data, np.zeros((2, 16)))

    def test_identity_weights_hand_case(self):
        params = param_group(w_sk=np.eye(2), w_im=np.eye(2))
        out = layers.fuse(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.array([[0.0, 2.0], [3.0, 0.0]]), params)
        assert out.data.tolist() == [[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]]

    def test_full_scale_output_dim(self, rng):
        params = param_group(w_sk=rng.normal(size=(256, 256)), w_im=rng.normal(size=(256, 256)))
        out = layers.fuse(rng.normal(size=(2, 256)), rng.normal(size=(2, 256)), params)
        assert out.data.shape == (2, 65536)

    def test_output_nonnegative(self, rng):
        params = param_group(w_sk=rng.normal(size=(5, 5)), w_im=rng.normal(size=(5, 5)))
        out = layers.fuse(rng.normal(size=(3, 5)), rng.normal(size=(3, 5)), params)
        assert np.all(out.data >= 0)

    def test_length_mismatch_rejected(self, rng):
        params = param_group(w_sk=np.eye(3), w_im=np.eye(3))
        with pytest.raises(ValueError, match="length 3"):
            layers.fuse(np.ones((1, 2)), np.ones((1, 3)), params)
        with pytest.raises(ValueError, match="length 3"):
            layers.fuse(np.ones((1, 3)), np.ones((2, 3)), params)

    def test_pre_activation_bilinear(self, rng):
        params = param_group(w_sk=rng.normal(size=(4, 4)), w_im=rng.normal(size=(4, 4)))

        def pre(h_sk, h_im):
            # relu(P) - relu(-P) = P, and negating h_sk negates P
            return (layers.fuse(h_sk, h_im, params).data
                    - layers.fuse(-h_sk, h_im, params).data)

        a, b, c = rng.normal(size=(3, 2, 4))
        alpha, beta = 0.7, -1.3
        lhs = pre(alpha * a + beta * b, c)
        rhs = alpha * pre(a, c) + beta * pre(b, c)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)
        lhs = pre(c, alpha * a + beta * b)
        rhs = alpha * pre(c, a) + beta * pre(c, b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_gradients_match_fd(self, rng):
        params = param_group(w_sk=rng.normal(size=(3, 3)), w_im=rng.normal(size=(3, 3)))
        h_sk = rng.normal(size=(2, 3))
        h_im = rng.normal(size=(2, 3))
        check_vjp(lambda: layers.fuse(h_sk, h_im, params), [h_sk, h_im], params)


class TestGraphConv:
    def test_identity_adjacency_equals_dense(self, rng):
        layer = param_group(w_theta=rng.normal(size=(5, 4)))
        h = rng.normal(size=(6, 5))
        gcn = layers.graph_conv(h, np.eye(6), layer, layers.relu)
        fc = oracles.masked_relu(h @ layer.w_theta)
        assert np.max(np.abs(gcn.data - fc)) <= 1e-12

    def test_full_scale_layer_dims(self, rng):
        relu_layer = param_group(w_theta=rng.normal(size=(32, 1024)) * 0.1)
        sig_layer = param_group(w_theta=rng.normal(size=(1024, 64)) * 0.01)
        h = rng.normal(size=(3, 32))
        adj = np.eye(3)
        hidden = layers.graph_conv(h, adj, relu_layer, layers.relu)
        assert hidden.data.shape == (3, 1024)
        out = layers.graph_conv(hidden.data, adj, sig_layer, layers.sigmoid)
        assert out.data.shape == (3, 64)
        assert np.all((out.data > 0) & (out.data < 1))

    def test_all_ones_adjacency_averages_rows(self, rng):
        layer = param_group(w_theta=rng.normal(size=(4, 3)))
        h = rng.normal(size=(3, 4))
        # identical semantics: an all-ones kernel, every entry 1/3 once normalized
        a_norm = pipeline.build_adjacency(np.zeros((3, 2)), 0.5)
        out = layers.graph_conv(h, a_norm, layer, layers.relu)
        mean_row = h.mean(axis=0)
        expected = np.maximum(0.0, mean_row @ layer.w_theta)
        for row in out.data:
            np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_adjacency_size_must_match_batch(self, rng):
        layer = param_group(w_theta=rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="does not match batch 3"):
            layers.graph_conv(np.ones((3, 2)), np.eye(2), layer, layers.relu)

    def test_unknown_activation_rejected(self, rng):
        layer = param_group(w_theta=rng.normal(size=(2, 2)))
        h = np.ones((2, 2))
        with pytest.raises(ValueError, match="activation"):
            layers.graph_conv(h, np.eye(2), layer, np.tanh)

    def test_activation_applies_to_propagated_rows(self, rng):
        layer = param_group(w_theta=rng.normal(size=(3, 2)))
        h = rng.normal(size=(4, 3))
        a_norm = pipeline.build_adjacency(rng.normal(size=(4, 2)), 0.8)
        pre = a_norm @ h @ layer.w_theta
        out = layers.graph_conv(h, a_norm, layer, layers.sigmoid)
        np.testing.assert_allclose(out.data, 1.0 / (1.0 + np.exp(-pre)), rtol=1e-12)

    def test_gradients_match_fd(self, rng):
        layer = param_group(w_theta=rng.normal(size=(3, 2)))
        h = rng.normal(size=(4, 3))
        a_norm = pipeline.build_adjacency(rng.normal(size=(4, 2)), 1.0)
        check_vjp(lambda: layers.graph_conv(h, a_norm, layer, layers.sigmoid), [h], layer)


class TestHashEncoder:
    def test_zero_weights_give_half(self):
        enc = param_group(w=np.zeros((3, 4)), b=np.zeros(4))
        out = layers.encode_soft(np.ones((1, 3)), enc)
        assert out.data.tolist() == [[0.5] * 4]

    def test_outputs_inside_unit_interval(self, rng):
        enc = param_group(w=rng.normal(size=(3, 4)), b=rng.normal(size=4))
        out = layers.encode_soft(rng.normal(size=(2, 3)) * 5, enc)
        assert np.all((out.data > 0) & (out.data < 1))

    def test_batch_path_matches_vector_path(self, rng):
        # every row of a batch equals the same row encoded on its own
        enc = param_group(w=rng.normal(size=(3, 4)), b=rng.normal(size=4))
        h = rng.normal(size=(5, 3))
        batched = layers.encode_soft(h, enc)
        for i in range(5):
            single = layers.encode_soft(h[i:i + 1], enc)
            np.testing.assert_allclose(batched.data[i:i + 1], single.data, rtol=1e-14)

    def test_gradients_match_fd(self, rng):
        enc = param_group(w=rng.normal(size=(4, 3)), b=rng.normal(size=3))
        h = rng.normal(size=(2, 4))
        check_vjp(lambda: layers.encode_soft(h, enc), [h], enc)


class TestStochasticNeurons:
    def test_extreme_probabilities(self):
        b = np.array([[1.0 - 1e-9, 1e-9]])
        out = layers.stochastic_neurons(b, np.array([[[0.9999, 0.0001]]]))
        assert out.data.tolist() == [[[1.0, 0.0]]]

    def test_threshold_rule(self):
        b = np.array([[0.5, 0.5]])
        out = layers.stochastic_neurons(b, np.array([[[0.3, 0.7]]]))
        assert out.data.tolist() == [[[1.0, 0.0]]]

    def test_boundary_resolves_to_one(self):
        out = layers.stochastic_neurons(np.array([[0.25]]), np.array([[[0.25]]]))
        assert out.data.tolist() == [[[1.0]]]

    def test_empirical_mean_matches_probability(self, rng):
        b_vals = rng.uniform(0.05, 0.95, size=(1, 8))
        draws = 100_000
        bits = layers.stochastic_neurons(b_vals, rng.random((draws, 1, 8))).data
        se = np.sqrt(b_vals * (1 - b_vals) / draws)
        assert np.all(np.abs(bits.mean(axis=0) - b_vals) <= 3 * se)

    def test_domain_error_outside_unit_interval(self):
        with pytest.raises(ValueError, match="probabilities"):
            layers.stochastic_neurons(np.array([[1.2]]), np.array([[[0.5]]]))
        with pytest.raises(ValueError, match="probabilities"):
            layers.stochastic_neurons(np.array([[-0.1]]), np.array([[[0.5]]]))

    def test_straight_through_gradient_is_identity(self, rng):
        b = rng.uniform(0.2, 0.8, size=(1, 6))
        out = layers.stochastic_neurons(b, rng.random((1, 1, 6)))
        w = rng.normal(size=(1, 1, 6))
        (g_b,) = out.vjp(2.0 * (out.data + w))
        np.testing.assert_array_equal(g_b, 2.0 * (out.data + w))

    def test_gradient_zeroed_in_clamp_region(self):
        b = np.array([[0.5, 1e-9, 1.0 - 1e-9]])
        out = layers.stochastic_neurons(b, np.full((1, 1, 3), 0.5))
        [(_, g_b)], _ = vjp_grads(out, [b])
        np.testing.assert_array_equal(g_b, [[2.0, 0.0, 0.0]])

    def test_eps_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"noise must be \[K, N, M\]"):
            layers.stochastic_neurons(np.array([[0.5, 0.5]]), np.array([[[0.5]]]))


class TestLogQ:
    def test_half_probabilities(self):
        b = np.full((1, 6), 0.5)
        for bits in (np.zeros((1, 6)), np.ones((1, 6)), np.array([[1, 0, 1, 0, 1, 0.0]])):
            out = layers.log_q(b, bits[None])
            assert abs(out.data[0] - 6 * math.log(0.5)) < 1e-12

    def test_scalar_case(self):
        out = layers.log_q(np.array([[0.9]]), np.array([[[1.0]]]))
        assert abs(out.data[0] - math.log(0.9)) < 1e-12
        assert abs(out.data[0] + 0.10536) < 1e-4

    def test_maximized_at_sampled_bits(self, rng):
        bits = rng.integers(0, 2, size=(1, 1, 8)).astype(float)
        best = np.clip(bits[0], layers.PROB_EPS, 1 - layers.PROB_EPS)
        top = layers.log_q(best, bits).data[0]
        for _ in range(50):
            other = rng.uniform(0.01, 0.99, size=(1, 8))
            assert layers.log_q(other, bits).data[0] <= top

    def test_extreme_probabilities_are_clamped(self):
        b = np.array([[1e-12, 1.0 - 1e-12]])
        out = layers.log_q(b, np.array([[[0.0, 1.0]]]))
        assert np.isfinite(out.data[0])

    def test_non_binary_bits_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            layers.log_q(np.array([[0.5]]), np.array([[[0.4]]]))

    def test_gradients_match_fd(self, rng):
        b = rng.uniform(0.1, 0.9, size=(1, 7))
        bits = rng.integers(0, 2, size=(1, 1, 7)).astype(float)
        check_vjp(lambda: draws_summed(layers.log_q(b, bits)), [b])


class TestLogPGaussian:
    def test_perfect_reconstruction_unit_variance(self, rng):
        d_s = 5
        s = rng.normal(size=(1, d_s))
        dec = param_group(
            w_mu=np.zeros((3, d_s)), b_mu=s[0].copy(),
            w_logvar=np.zeros((3, d_s)), b_logvar=np.zeros(d_s),
        )
        out = layers.log_p_gaussian(s, np.ones((1, 1, 3)), dec)
        assert abs(out.data[0] + 0.5 * d_s * math.log(2 * math.pi)) < 1e-12

    def test_scalar_miniature(self):
        dec = param_group(
            w_mu=np.zeros((2, 1)), b_mu=np.array([1.0]),
            w_logvar=np.zeros((2, 1)), b_logvar=np.array([0.0]),
        )
        out = layers.log_p_gaussian(np.array([[0.0]]), np.ones((1, 1, 2)), dec)
        expected = -0.5 * (math.log(2 * math.pi) + 1.0)
        assert abs(out.data[0] - expected) < 1e-12
        assert abs(out.data[0] + 1.41894) < 1e-5

    def test_monotone_in_residual(self):
        dec = param_group(
            w_mu=np.zeros((2, 1)), b_mu=np.array([0.0]),
            w_logvar=np.zeros((2, 1)), b_logvar=np.array([0.0]),
        )
        bits = np.ones((1, 1, 2))
        values = [layers.log_p_gaussian(np.array([[mu_gap]]), bits, dec).data[0]
                  for mu_gap in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shape_mismatch_rejected(self, rng):
        dec = param_group(
            w_mu=rng.normal(size=(2, 3)), b_mu=np.zeros(3),
            w_logvar=rng.normal(size=(2, 3)), b_logvar=np.zeros(3),
        )
        with pytest.raises(ValueError, match="semantic shape"):
            layers.log_p_gaussian(np.zeros((1, 2)), np.ones((1, 1, 2)), dec)

    def test_gradients_match_fd(self, rng):
        dec = param_group(
            w_mu=rng.normal(size=(4, 3)), b_mu=rng.normal(size=3),
            w_logvar=rng.normal(size=(4, 3)) * 0.3, b_logvar=rng.normal(size=3) * 0.3,
        )
        s = rng.normal(size=(2, 3))
        bits = rng.integers(0, 2, size=(1, 2, 4)).astype(float)
        check_vjp(lambda: draws_summed(layers.log_p_gaussian(s, bits, dec)), [bits], dec)


class TestStraightThroughPath:
    def test_ste_gradient_equals_linearized_fd(self, rng):
        """The production VJPs through the sampler must match finite
        differences of the frozen-offset surrogate b + (bits - b0)."""
        enc = param_group(w=rng.normal(size=(5, 4)), b=rng.normal(size=4))
        dec = param_group(
            w_mu=rng.normal(size=(4, 3)), b_mu=rng.normal(size=3),
            w_logvar=rng.normal(size=(4, 3)) * 0.2, b_logvar=np.zeros(3),
        )
        h = rng.normal(size=(1, 5))
        s = rng.normal(size=(1, 3))
        eps = rng.random((1, 1, 4))

        b0 = layers.encode_soft(h, enc)
        bits = layers.stochastic_neurons(b0.data, eps)
        offset = bits.data - b0.data

        # production gradients through the sampler: decoder, sampler, encoder
        loss = layers.log_p_gaussian(s, bits.data, dec)
        (g_bits,) = loss.vjp(1.0, zero_grads(dec))
        (g_b,) = bits.vjp(g_bits)
        grads = zero_grads(enc)
        b0.vjp(layers.draw_sum(g_b), grads)

        def surrogate():
            b = layers.encode_soft(h, enc)
            return layers.log_p_gaussian(s, b.data + offset, dec).data[0]

        assert_grad_close(grads.w, fd_grad(surrogate, enc.w))
        assert_grad_close(grads.b, fd_grad(surrogate, enc.b))


class TestDrawAxis:
    """The sampler and the three loss layers take K Monte-Carlo draws as a
    leading axis and no other form: the trunk's [N, M] arrays broadcast
    against [K, N, M] noise or bits, and each draw gets the same bits that
    a separate [1, N, M] call gives it."""

    N, M, D_S = 4, 5, 3

    def _codes(self, rng, draws):
        b = rng.uniform(0.05, 0.95, size=(self.N, self.M))
        b[0, :2] = (1e-9, 1.0 - 1e-9)   # the clamp region, where gradients stop
        bits = (b >= rng.random((draws, self.N, self.M))).astype(float)
        return b, bits

    def _decoder(self, rng):
        return param_group(
            w_mu=rng.normal(size=(self.M, self.D_S)), b_mu=rng.normal(size=self.D_S),
            w_logvar=rng.normal(size=(self.M, self.D_S)) * 0.3,
            b_logvar=rng.normal(size=self.D_S) * 0.3)

    @staticmethod
    def _assert_values(out, singles):
        assert out.data.shape == (len(singles),)
        for value, one in zip(out.data, singles):
            assert one.data.shape == (1,)
            assert value == one.data[0]

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_sampler_matches_separate_calls(self, rng, draws):
        b, _ = self._codes(rng, draws)
        eps = rng.random((draws, self.N, self.M))
        out = layers.stochastic_neurons(b, eps)
        g = rng.normal(size=eps.shape)
        (g_b,) = out.vjp(g)
        assert out.data.shape == g_b.shape == eps.shape
        for k in range(draws):
            one = layers.stochastic_neurons(b, eps[k:k + 1])
            np.testing.assert_array_equal(out.data[k], one.data[0])
            np.testing.assert_array_equal(g_b[k], one.vjp(g[k:k + 1])[0][0])

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_log_q_matches_separate_calls(self, rng, draws):
        b, bits = self._codes(rng, draws)
        out = layers.log_q(b, bits)
        singles = [layers.log_q(b, bits[k:k + 1]) for k in range(draws)]
        self._assert_values(out, singles)
        (g_b,) = out.vjp(0.37)
        for k, one in enumerate(singles):
            np.testing.assert_array_equal(g_b[k], one.vjp(0.37)[0][0])

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_decoder_matches_separate_calls(self, rng, draws):
        """Values, bit gradients and weight gradients: each weight gets
        the draws' gradients added in draw order, as K separate calls
        adding into one buffer would."""
        _, bits = self._codes(rng, draws)
        dec = self._decoder(rng)
        s = rng.normal(size=(self.N, self.D_S))
        out = layers.log_p_gaussian(s, bits, dec)
        singles = [layers.log_p_gaussian(s, bits[k:k + 1], dec) for k in range(draws)]
        self._assert_values(out, singles)
        grads, separate = zero_grads(dec), zero_grads(dec)
        (g_bits,) = out.vjp(-0.37, grads)
        for k, one in enumerate(singles):
            np.testing.assert_array_equal(g_bits[k], one.vjp(-0.37, separate)[0][0])
        for name, g_w in vars(grads).items():
            np.testing.assert_array_equal(g_w, getattr(separate, name))

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_code_regression_matches_separate_calls(self, rng, draws):
        _, bits = self._codes(rng, draws)
        f_out, g_out = rng.uniform(0.1, 0.9, size=(2, self.N, self.M))
        out = layers.code_regression(f_out, g_out, bits, self.M)
        singles = [layers.code_regression(f_out, g_out, bits[k:k + 1], self.M)
                   for k in range(draws)]
        self._assert_values(out, singles)
        batched = out.vjp(0.37)
        for k, one in enumerate(singles):
            for g_draws, g_one in zip(batched, one.vjp(0.37), strict=True):
                np.testing.assert_array_equal(g_draws[k], g_one[0])

    def test_decoder_gradients_match_fd(self, rng):
        _, bits = self._codes(rng, 3)
        dec = self._decoder(rng)
        s = rng.normal(size=(self.N, self.D_S))
        check_vjp(lambda: draws_summed(layers.log_p_gaussian(s, bits, dec)), [bits], dec)

    def test_trailing_shapes_must_match(self, rng):
        b, bits = self._codes(rng, 2)
        eps = rng.random(bits.shape)
        dec = self._decoder(rng)
        s = np.zeros((self.N, self.D_S))
        cases = [
            (lambda x: layers.stochastic_neurons(b, x), eps),
            (lambda x: layers.log_q(b, x), bits),
            (lambda x: layers.log_p_gaussian(s, x, dec), bits),
            (lambda x: layers.code_regression(b, b, x, self.M), bits),
        ]
        for call, x in cases:
            # a draw axis of any length, and nothing else: not one draw
            # without it, not two stacked, not mismatched rows or bits
            for bad in (x[0], x[None], x[:, 1:], x[:, :, 1:]):
                with pytest.raises(ValueError, match=r"\[K, N, M\]"):
                    call(bad)
        with pytest.raises(ValueError, match=r"\[K, N, M\]"):
            layers.code_regression(b, b[:, 1:], bits, self.M)
        with pytest.raises(ValueError, match="semantic shape"):
            layers.log_p_gaussian(np.zeros((self.N, self.D_S + 1)), bits, dec)
        with pytest.raises(ValueError, match=r"\[K, N, M\]"):
            layers.log_p_gaussian(np.zeros((self.N + 1, self.D_S)), bits, dec)
