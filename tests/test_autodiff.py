"""The gradient rules that the layer VJPs took over from the generic
operations they replaced.

Each class is named after one of those operations; its tests check the
layer that now carries that piece of math, through the layer's own VJP.
"""

import numpy as np
import pytest

from conftest import (assert_grad_close, check_vjp, draws_summed, fd_grad, layer_loss,
                      param_group, vjp_grads)
from zsih import layers

# the one form the sampler and the loss layers take
KNM = r"\[K, N, M\]"


def _regression_case(rng):
    f_out, g_out = rng.uniform(0.1, 0.9, size=(2, 3, 4))
    b_tilde = rng.uniform(0.1, 0.9, size=(2, 3, 4))
    # b~ enters both differences: the VJP gives it one gradient for each
    return (lambda: draws_summed(layers.code_regression(f_out, g_out, b_tilde, 4)),
            [f_out, g_out, b_tilde, b_tilde])


class TestMatmul:
    """The products H W inside ``graph_conv``, here over the identity adjacency."""

    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = layers.graph_conv(x, np.eye(2), param_group(w_theta=np.eye(3)), layers.relu)
        np.testing.assert_array_equal(out.data, x)

    def test_hand_case(self):
        out = layers.graph_conv(np.array([[1.0, 2.0]]), np.eye(1),
                                param_group(w_theta=[[3.0], [4.0]]), layers.relu)
        assert out.data.tolist() == [[11.0]]

    def test_gradients_match_fd(self, rng):
        a = rng.normal(size=(4, 3))
        layer = param_group(w_theta=rng.normal(size=(3, 2)))
        check_vjp(lambda: layers.graph_conv(a, np.eye(4), layer, layers.sigmoid), [a], layer)

    def test_inner_dim_mismatch(self):
        layer = param_group(w_theta=np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"input must be \[N, 2\]"):
            layers.graph_conv(np.ones((2, 3)), np.eye(2), layer, layers.relu)

    def test_requires_matrices(self):
        layer = param_group(w_theta=np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"input must be \[N, 3\]"):
            layers.graph_conv(np.ones(3), np.eye(3), layer, layers.relu)


class TestAffine:
    """x W + b inside the hash encoders and the attention scores."""

    def test_equals_matmul_plus_bias(self, rng):
        x = rng.normal(size=(4, 3))
        enc = param_group(w=rng.normal(size=(3, 2)), b=rng.normal(size=2))
        out = layers.encode_soft(x, enc)
        np.testing.assert_array_equal(out.data, layers.sigmoid(x @ enc.w + enc.b))

    def test_last_axis_of_a_stack(self, rng):
        # the scores act on the last axis of the [N, L, C] stack: each
        # item pools as it would on its own
        attn = param_group(score_weights=rng.normal(size=(3, 1)), score_bias=[0.5],
                           proj_weights=rng.normal(size=(3, 2)), proj_bias=np.zeros(2))
        feats = rng.normal(size=(2, 5, 3))
        out = layers.attention_pool(feats, attn)
        assert out.data.shape == (2, 2)
        for i in range(2):
            single = layers.attention_pool(feats[i:i + 1], attn)
            np.testing.assert_allclose(out.data[i:i + 1], single.data, rtol=1e-13)

    def test_gradients_match_fd(self, rng):
        x = rng.normal(size=(3, 4))
        enc = param_group(w=rng.normal(size=(4, 2)), b=rng.normal(size=2))
        check_vjp(lambda: layers.encode_soft(x, enc), [x], enc)
        attn = param_group(score_weights=rng.normal(size=(4, 1)), score_bias=rng.normal(size=1),
                           proj_weights=rng.normal(size=(4, 2)), proj_bias=rng.normal(size=2))
        feats = rng.normal(size=(2, 3, 4))
        check_vjp(lambda: layers.attention_pool(feats, attn), [], attn)

    def test_shape_mismatch_rejected(self):
        enc = param_group(w=np.ones((2, 2)), b=np.zeros(2))
        with pytest.raises(ValueError, match="hash encoder input"):
            layers.encode_soft(np.ones((2, 3)), enc)
        with pytest.raises(ValueError, match="hash encoder input"):
            layers.encode_soft(np.ones(2), enc)


class TestElementwise:
    """The activations and the log, exp and square of the loss layers."""

    def test_relu_values(self):
        assert layers.relu(np.array([-1.5, 2.0, 0.0])).tolist() == [0.0, 2.0, 0.0]

    def test_sigmoid_at_zero(self):
        out = layers.graph_conv(np.ones((1, 2)), np.eye(1),
                                param_group(w_theta=np.zeros((2, 1))), layers.sigmoid)
        assert out.data.tolist() == [[0.5]]

    def test_sigmoid_gradient_at_zero(self):
        # d/dx sigmoid(x)^2 = 2 s s' = 2 * 0.5 * 0.25 at x = 0
        x = np.array([[0.0]])
        layer = param_group(w_theta=[[1.0]])

        def conv():
            return layers.graph_conv(x, np.eye(1), layer, layers.sigmoid)

        [(_, g_x)], _ = vjp_grads(conv(), [x], layer)
        fd = fd_grad(lambda: layer_loss(conv()), x)
        assert abs(g_x[0, 0] - 0.25) < 1e-12
        assert_grad_close(g_x, fd)

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = layers.graph_conv(np.array([[-1e4], [1e4]]), np.eye(2),
                                    param_group(w_theta=[[1.0]]), layers.sigmoid)
        assert out.data.tolist() == [[0.0], [1.0]]

    def test_log_domain_error(self):
        # log_q clamps before its logs: probabilities of exactly 0 and 1
        # give a finite value and no gradient
        b = np.array([[0.0, 1.0]])
        out = layers.log_q(b, np.array([[[1.0, 0.0]]]))
        assert np.isfinite(out.data[0])
        (g_b,) = out.vjp(1.0)
        np.testing.assert_array_equal(g_b, [[[0.0, 0.0]]])

    @pytest.mark.parametrize("op", ["relu", "sigmoid", "exp", "square"])
    def test_unary_gradients(self, op, rng):
        if op in ("relu", "sigmoid"):
            x = rng.normal(size=(3, 4)) + 0.01
            layer = param_group(w_theta=rng.normal(size=(4, 2)))
            act = getattr(layers, op)
            check_vjp(lambda: layers.graph_conv(x, np.eye(3), layer, act), [x], layer)
        elif op == "exp":
            # the decoder's precision exp(-logvar)
            dec = param_group(w_mu=rng.normal(size=(3, 2)), b_mu=rng.normal(size=2),
                              w_logvar=rng.normal(size=(3, 2)) * 0.3,
                              b_logvar=rng.normal(size=2) * 0.3)
            bits = rng.integers(0, 2, size=(1, 4, 3)).astype(float)
            s = rng.normal(size=(4, 2))
            check_vjp(lambda: draws_summed(layers.log_p_gaussian(s, bits, dec)), [bits], dec)
        else:
            check_vjp(*_regression_case(rng))

    def test_log_gradient(self, rng):
        # two draws: b gets the sum of both draws' gradients
        b = rng.uniform(0.2, 0.8, size=(2, 5))
        bits = rng.integers(0, 2, size=(2, 2, 5)).astype(float)
        check_vjp(lambda: draws_summed(layers.log_q(b, bits)), [b])

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_binary_gradients(self, op, rng):
        if op == "add":
            # the decoder adds each draw's weight gradients over the draws
            dec = param_group(w_mu=rng.normal(size=(3, 2)), b_mu=rng.normal(size=2),
                              w_logvar=rng.normal(size=(3, 2)) * 0.3,
                              b_logvar=rng.normal(size=2) * 0.3)
            bits = rng.integers(0, 2, size=(2, 4, 3)).astype(float)
            s = rng.normal(size=(4, 2))
            check_vjp(lambda: draws_summed(layers.log_p_gaussian(s, bits, dec)), [bits], dec)
        elif op == "sub":
            check_vjp(*_regression_case(rng))
        else:
            # the Kronecker product multiplies the two modalities
            h_sk = rng.normal(size=(3, 4))
            h_im = rng.normal(size=(3, 4))
            fusion = param_group(w_sk=rng.normal(size=(4, 4)), w_im=rng.normal(size=(4, 4)))
            check_vjp(lambda: layers.fuse(h_sk, h_im, fusion), [h_sk, h_im], fusion)


class TestBroadcasting:
    """No layer broadcasts one input over another, except over a leading
    draw axis: the trunk's [N, M] matrices against [K, N, M] draws.  Every
    other pair of shapes must agree."""

    def test_scalar_with_array(self, rng):
        # the one scalar left is the regression's 1/(2M) weight, which
        # scales the gradient of every entry
        f_out = rng.normal(size=(3, 2))
        zeros = np.zeros((3, 2))
        g_f, _, _, _ = layers.code_regression(f_out, zeros, zeros[None], 2).vjp(1.0)
        np.testing.assert_allclose(g_f, f_out[None] / 2, rtol=1e-15)

    def test_row_with_matrix(self, rng):
        mat = rng.normal(size=(4, 3))
        row = rng.normal(size=3)
        with pytest.raises(ValueError, match=KNM):
            layers.code_regression(row, mat, mat[None], 3)
        with pytest.raises(ValueError, match=KNM):
            layers.code_regression(mat, mat, row[None, None], 3)

    def test_row_gradient_sums_over_batch(self):
        # a bias gradient sums over the batch: 5 rows of 2 * 0.5 * 0.25
        enc = param_group(w=np.zeros((2, 2)), b=np.zeros(2))
        _, grads = vjp_grads(layers.encode_soft(np.ones((5, 2)), enc), [np.ones((5, 2))], enc)
        np.testing.assert_array_equal(grads["b"], [1.25, 1.25])

    def test_keepdims_row_with_matrix_rejected(self):
        mat = np.ones((5, 2))
        with pytest.raises(ValueError, match=KNM):
            layers.code_regression(np.ones((1, 2)), mat, mat[None], 2)
        with pytest.raises(ValueError, match=KNM):
            layers.log_q(mat, np.ones((1, 1, 2)))

    def test_rejected_broadcast(self):
        with pytest.raises(ValueError, match=KNM):
            layers.code_regression(np.ones((2, 3)), np.ones((2, 3)),
                                   np.ones((1, 3, 2)), 2)
        with pytest.raises(ValueError, match=KNM):
            layers.stochastic_neurons(np.full((2, 3), 0.5), np.ones((1, 3, 2)))

    def test_column_broadcast_rejected(self):
        mat = np.ones((3, 2))
        with pytest.raises(ValueError, match=KNM):
            layers.code_regression(np.ones((3, 1)), mat, mat[None], 2)


class TestReduce:
    """The sums over rows and columns inside the loss layers."""

    def test_sum_value(self):
        ones, zeros = np.ones((2, 3)), np.zeros((2, 3))
        assert layers.code_regression(ones, zeros, zeros[None], 3).data.tolist() == [1.0]

    def test_sum_gradient_is_ones(self):
        # each draw's value sums its terms: with |f - b~| = 1 and 1/(2M) = 1/2
        # every entry of every draw gets a gradient of 1
        ones, zeros = np.ones((3, 1)), np.zeros((2, 3, 1))
        reg = layers.code_regression(ones, zeros[0], zeros, 1)
        assert reg.data.tolist() == [1.5, 1.5]
        g_f, g_g, g_bits_f, g_bits_g = reg.vjp(1.0)
        np.testing.assert_array_equal(g_f, np.ones((2, 3, 1)))
        np.testing.assert_array_equal(g_bits_f, -np.ones((2, 3, 1)))
        assert not g_g.any() and not g_bits_g.any()

    def test_axis_reduction_gradients(self, rng):
        # MFB sum-pools the factor products over groups of columns
        h_sk = rng.normal(size=(3, 2))
        h_im = rng.normal(size=(3, 2))
        fusion = param_group(u=rng.normal(size=(2, 6)), v=rng.normal(size=(2, 6)),
                             w_proj=rng.normal(size=(2, 4)))
        check_vjp(lambda: layers.fuse_mfb(h_sk, h_im, fusion), [h_sk, h_im], fusion)


class TestKronVec:
    """The Kronecker product of two vectors, taken row by row of two
    matrices inside ``layers.fuse`` (identity weights, non-negative rows)."""

    @staticmethod
    def _fuse(a, b):
        p = np.shape(a)[1]
        fusion = param_group(w_sk=np.eye(p), w_im=np.eye(p))
        return layers.fuse(np.array(a), np.array(b), fusion)

    def test_hand_case(self):
        out = self._fuse([[1.0, 0.0], [0.0, 1.0]], [[2.0, 3.0], [4.0, 5.0]])
        assert out.data.tolist() == [[2.0, 3.0, 0.0, 0.0], [0.0, 0.0, 4.0, 5.0]]

    def test_full_scale_length(self, rng):
        out = self._fuse(rng.random((2, 256)), rng.random((2, 256)))
        assert out.data.shape == (2, 65536)

    def test_rows_equal_vector_kronecker(self, rng):
        a = rng.random((4, 3))
        b = rng.random((4, 3))
        out = self._fuse(a, b)
        for i in range(4):
            np.testing.assert_array_equal(out.data[i], np.kron(a[i], b[i]))

    def test_gradients_match_fd(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        fusion = param_group(w_sk=rng.normal(size=(3, 3)), w_im=rng.normal(size=(3, 3)))
        check_vjp(lambda: layers.fuse(a, b, fusion), [a, b], fusion)

    def test_rejects_matrices(self):
        # each row must be a vector: stacks of matrices are not flattened
        with pytest.raises(ValueError, match="fusion inputs"):
            self._fuse(np.ones((2, 2, 2)), np.ones((2, 2)))

    def test_rejects_vectors_and_row_mismatch(self):
        fusion = param_group(w_sk=np.eye(2), w_im=np.eye(2))
        with pytest.raises(ValueError, match="fusion inputs"):
            layers.fuse(np.ones(2), np.ones(2), fusion)
        with pytest.raises(ValueError, match="fusion inputs"):
            self._fuse(np.ones((2, 2)), np.ones((3, 2)))


class TestStructureOps:
    """Softmax and pooling inside ``attention_pool``, the clamp inside
    ``log_q`` and the join inside ``fuse_concat``."""

    @staticmethod
    def _attention(rng, channels=4, d_f=3):
        return param_group(
            score_weights=rng.normal(size=(channels, 1)), score_bias=rng.normal(size=1),
            proj_weights=rng.normal(size=(channels, d_f)), proj_bias=rng.normal(size=d_f))

    def test_softmax_normalizes(self, rng):
        s = layers.softmax_rows(rng.normal(size=(3, 6)) * 50.0)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(3), rtol=0, atol=1e-12)

    def test_softmax_rows_are_independent(self, rng):
        x = rng.normal(size=(3, 5))
        s = layers.softmax_rows(x)
        for i in range(3):
            e = np.exp(x[i] - x[i].max())
            np.testing.assert_allclose(s[i], e / e.sum(), rtol=1e-14)

    def test_softmax_gradients(self, rng):
        attn = self._attention(rng)
        feats = rng.normal(size=(3, 5, 4))
        check_vjp(lambda: layers.attention_pool(feats, attn), [], attn)

    def test_softmax_rejects_vectors(self, rng):
        with pytest.raises(ValueError, match=r"\[N, L, C\]"):
            layers.attention_pool(np.ones((3, 4)), self._attention(rng))

    def test_pool_rows_matches_per_row_weighted_sum(self, rng):
        attn = self._attention(rng)
        feats = rng.normal(size=(4, 3, 4))
        out = layers.attention_pool(feats, attn)
        for i in range(4):
            logits = feats[i] @ attn.score_weights[:, 0] + attn.score_bias
            w = np.exp(logits - logits.max())
            pooled = (w / w.sum()) @ feats[i]
            want = layers.relu(pooled @ attn.proj_weights + attn.proj_bias)
            np.testing.assert_allclose(out.data[i], want, rtol=1e-13)

    def test_pool_rows_gradients(self, rng):
        attn = self._attention(rng)
        feats = rng.normal(size=(2, 3, 4))
        check_vjp(lambda: layers.attention_pool(feats, attn), [], attn)

    def test_pool_rows_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="channels"):
            layers.attention_pool(np.ones((2, 4, 5)), self._attention(rng))

    def test_clip_gradient_mask(self):
        b = np.array([[0.2, -0.5, 1.5]])
        (g_b,) = layers.log_q(b, np.ones((1, 1, 3))).vjp(1.0)
        np.testing.assert_array_equal(g_b, [[[1.0 / 0.2, 0.0, 0.0]]])

    def test_concat_gradients(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        fusion = param_group(w_proj=rng.normal(size=(6, 9)))
        check_vjp(lambda: layers.fuse_concat(a, b, fusion), [a, b], fusion)

    def test_concat_rejects_row_mismatch(self):
        fusion = param_group(w_proj=np.ones((4, 4)))
        with pytest.raises(ValueError, match="fusion inputs"):
            layers.fuse_concat(np.ones((2, 2)), np.ones((3, 2)), fusion)
