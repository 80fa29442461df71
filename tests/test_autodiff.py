"""The engine's backward pass, and the gradient rules that the layer VJPs
took over from the generic operations they replaced.

Each class but ``TestBackward`` is named after one of those operations;
its tests check the layer that now carries that piece of math.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (assert_grad_close, check_node_grads, fd_grad, param_group,
                      square_sum)
from zsih import layers, objective
from zsih.autodiff import Node, constant


def _scalar_nodes(rng, count):
    return [Node(rng.normal(), requires_grad=True) for _ in range(count)]


def _regression_case(rng):
    f_out, g_out, b_tilde = (Node(rng.uniform(0.1, 0.9, size=(3, 4)), requires_grad=True)
                             for _ in range(3))
    return (lambda: objective.code_regression(f_out, g_out, b_tilde, 4),
            [f_out, g_out, b_tilde])


class TestMatmul:
    """The products H W inside ``dense`` and ``graph_conv``."""

    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = layers.dense(constant(x), param_group(w_theta=np.eye(3)), layers.relu)
        np.testing.assert_array_equal(out.data, x)

    def test_hand_case(self):
        out = layers.dense(constant([[1.0, 2.0]]), param_group(w_theta=[[3.0], [4.0]]),
                           layers.relu)
        assert out.data.tolist() == [[11.0]]

    def test_gradients_match_fd(self, rng):
        a = Node(rng.normal(size=(4, 3)), requires_grad=True)
        layer = param_group(w_theta=rng.normal(size=(3, 2)))
        check_node_grads(lambda: square_sum(layers.dense(a, layer, layers.sigmoid)),
                         [a, layer.w_theta])

    def test_inner_dim_mismatch(self):
        layer = param_group(w_theta=np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"input must be \[N, 2\]"):
            layers.dense(constant(np.ones((2, 3))), layer, layers.relu)

    def test_requires_matrices(self):
        layer = param_group(w_theta=np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"input must be \[N, 3\]"):
            layers.dense(constant(np.ones(3)), layer, layers.relu)


class TestAffine:
    """x W + b inside the hash encoders and the attention scores."""

    def test_equals_matmul_plus_bias(self, rng):
        x = rng.normal(size=(4, 3))
        enc = param_group(w=rng.normal(size=(3, 2)), b=rng.normal(size=2))
        out = layers.encode_soft(constant(x), enc)
        np.testing.assert_array_equal(out.data, layers.sigmoid(x @ enc.w.data + enc.b.data))

    def test_last_axis_of_a_stack(self, rng):
        # the scores act on the last axis of the [N, L, C] stack: each
        # item pools as it would on its own
        attn = param_group(score_weights=rng.normal(size=(3, 1)), score_bias=[0.5],
                           proj_weights=rng.normal(size=(3, 2)), proj_bias=np.zeros(2))
        feats = rng.normal(size=(2, 5, 3))
        out = layers.attention_pool(feats, attn)
        assert out.shape == (2, 2)
        for i in range(2):
            single = layers.attention_pool(feats[i:i + 1], attn)
            np.testing.assert_allclose(out.data[i:i + 1], single.data, rtol=1e-13)

    def test_gradients_match_fd(self, rng):
        x = Node(rng.normal(size=(3, 4)), requires_grad=True)
        enc = param_group(w=rng.normal(size=(4, 2)), b=rng.normal(size=2))
        check_node_grads(lambda: square_sum(layers.encode_soft(x, enc)), [x, enc.w, enc.b])
        attn = param_group(score_weights=rng.normal(size=(4, 1)), score_bias=rng.normal(size=1),
                           proj_weights=rng.normal(size=(4, 2)), proj_bias=rng.normal(size=2))
        feats = rng.normal(size=(2, 3, 4))
        check_node_grads(lambda: square_sum(layers.attention_pool(feats, attn)),
                         [attn.score_weights, attn.score_bias])

    def test_shape_mismatch_rejected(self):
        enc = param_group(w=np.ones((2, 2)), b=np.zeros(2))
        with pytest.raises(ValueError, match="hash encoder input"):
            layers.encode_soft(constant(np.ones((2, 3))), enc)
        with pytest.raises(ValueError, match="hash encoder input"):
            layers.encode_soft(constant(np.ones(2)), enc)


class TestElementwise:
    """The activations and the log, exp and square of the loss layers."""

    def test_relu_values(self):
        assert layers.relu(np.array([-1.5, 2.0, 0.0])).tolist() == [0.0, 2.0, 0.0]

    def test_sigmoid_at_zero(self):
        out = layers.dense(constant(np.ones((1, 2))), param_group(w_theta=np.zeros((2, 1))),
                           layers.sigmoid)
        assert out.data.tolist() == [[0.5]]

    def test_sigmoid_gradient_at_zero(self):
        # d/dx sigmoid(x)^2 = 2 s s' = 2 * 0.5 * 0.25 at x = 0
        x = Node([[0.0]], requires_grad=True)
        layer = param_group(w_theta=[[1.0]])
        loss = lambda: square_sum(layers.dense(x, layer, layers.sigmoid))
        loss().backward()
        fd = fd_grad(lambda: loss().item(), x)
        assert abs(x.grad[0, 0] - 0.25) < 1e-12
        assert_grad_close(x.grad, fd)

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = layers.dense(constant([[-1e4], [1e4]]), param_group(w_theta=[[1.0]]),
                               layers.sigmoid)
        assert out.data.tolist() == [[0.0], [1.0]]

    def test_log_domain_error(self):
        # log_q clamps before its logs: probabilities of exactly 0 and 1
        # give a finite value and no gradient
        b = Node([0.0, 1.0], requires_grad=True)
        out = layers.log_q(b, np.array([1.0, 0.0]))
        assert np.isfinite(out.item())
        out.backward()
        np.testing.assert_array_equal(b.grad, [0.0, 0.0])

    @pytest.mark.parametrize("op", ["relu", "sigmoid", "exp", "square"])
    def test_unary_gradients(self, op, rng):
        if op in ("relu", "sigmoid"):
            x = Node(rng.normal(size=(3, 4)) + 0.01, requires_grad=True)
            layer = param_group(w_theta=rng.normal(size=(4, 2)))
            act = getattr(layers, op)
            check_node_grads(lambda: square_sum(layers.dense(x, layer, act)),
                             [x, layer.w_theta])
        elif op == "exp":
            # the decoder's precision exp(-logvar)
            dec = param_group(w_mu=rng.normal(size=(3, 2)), b_mu=rng.normal(size=2),
                              w_logvar=rng.normal(size=(3, 2)) * 0.3,
                              b_logvar=rng.normal(size=2) * 0.3)
            bits = constant(rng.integers(0, 2, size=(4, 3)).astype(float))
            s = rng.normal(size=(4, 2))
            check_node_grads(lambda: layers.log_p_gaussian(s, bits, dec),
                             [dec.w_logvar, dec.b_logvar])
        else:
            check_node_grads(*_regression_case(rng))

    def test_log_gradient(self, rng):
        b = Node(rng.uniform(0.2, 0.8, size=(2, 5)), requires_grad=True)
        bits = rng.integers(0, 2, size=(2, 5)).astype(float)
        check_node_grads(lambda: layers.log_q(b, bits), [b])

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_binary_gradients(self, op, rng):
        if op == "add":
            # the loss node sums the three terms of every draw
            nodes = _scalar_nodes(rng, 6)
            check_node_grads(lambda: objective.mc_total([nodes[:3], nodes[3:]])[0], nodes)
        elif op == "sub":
            check_node_grads(*_regression_case(rng))
        else:
            # the Kronecker product multiplies the two modalities
            h_sk = Node(rng.normal(size=(3, 4)), requires_grad=True)
            h_im = Node(rng.normal(size=(3, 4)), requires_grad=True)
            fusion = param_group(w_sk=rng.normal(size=(4, 4)), w_im=rng.normal(size=(4, 4)))
            check_node_grads(lambda: square_sum(layers.fuse(h_sk, h_im, fusion)),
                             [h_sk, h_im])


class TestBroadcasting:
    """No layer broadcasts one input over another: shapes must agree."""

    def test_scalar_with_array(self, rng):
        # the one scalar left is the regression's 1/(2M) weight, which
        # scales the gradient of every entry
        f_out = Node(rng.normal(size=(3, 2)), requires_grad=True)
        zeros = constant(np.zeros((3, 2)))
        objective.code_regression(f_out, zeros, zeros, 2).backward()
        np.testing.assert_allclose(f_out.grad, f_out.data / 2, rtol=1e-15)

    def test_row_with_matrix(self, rng):
        mat = constant(rng.normal(size=(4, 3)))
        row = constant(rng.normal(size=3))
        with pytest.raises(ValueError, match="does not match code shape"):
            objective.code_regression(row, mat, mat, 3)
        with pytest.raises(ValueError, match="does not match code shape"):
            objective.code_regression(mat, mat, row, 3)

    def test_row_gradient_sums_over_batch(self):
        # a bias gradient sums over the batch: 5 rows of 2 * 0.5 * 0.25
        enc = param_group(w=np.zeros((2, 2)), b=np.zeros(2))
        square_sum(layers.encode_soft(constant(np.ones((5, 2))), enc)).backward()
        np.testing.assert_array_equal(enc.b.grad, [1.25, 1.25])

    def test_keepdims_row_with_matrix_rejected(self):
        mat = constant(np.ones((5, 2)))
        with pytest.raises(ValueError, match="does not match code shape"):
            objective.code_regression(constant(np.ones((1, 2))), mat, mat, 2)
        with pytest.raises(ValueError, match="does not match code shape"):
            layers.log_q(mat, np.ones((1, 2)))

    def test_rejected_broadcast(self):
        with pytest.raises(ValueError, match="does not match code shape"):
            objective.code_regression(constant(np.ones((2, 3))), constant(np.ones((2, 3))),
                                      constant(np.ones((3, 2))), 2)
        with pytest.raises(ValueError, match="eps shape"):
            layers.stochastic_neurons(constant(np.full((2, 3), 0.5)), np.ones((3, 2)))

    def test_column_broadcast_rejected(self):
        mat = constant(np.ones((3, 2)))
        with pytest.raises(ValueError, match="does not match code shape"):
            objective.code_regression(constant(np.ones((3, 1))), mat, mat, 2)


class TestReduce:
    """The sums over rows and columns inside the loss layers."""

    def test_sum_value(self):
        ones, zeros = constant(np.ones((2, 3))), constant(np.zeros((2, 3)))
        assert objective.code_regression(ones, zeros, zeros, 3).item() == 1.0

    def test_sum_gradient_is_ones(self, rng):
        # the total is log q - log p + regression, each a sum of its terms
        nodes = _scalar_nodes(rng, 3)
        objective.mc_total([nodes])[0].backward()
        assert [n.grad.item() for n in nodes] == [1.0, -1.0, 1.0]

    def test_axis_reduction_gradients(self, rng):
        # MFB sum-pools the factor products over groups of columns
        h_sk = Node(rng.normal(size=(3, 2)), requires_grad=True)
        h_im = Node(rng.normal(size=(3, 2)), requires_grad=True)
        fusion = param_group(u=rng.normal(size=(2, 6)), v=rng.normal(size=(2, 6)),
                             w_proj=rng.normal(size=(2, 4)))
        check_node_grads(lambda: square_sum(layers.fuse_mfb(h_sk, h_im, fusion)),
                         [h_sk, h_im, fusion.u, fusion.v, fusion.w_proj])


class TestKronVec:
    """The Kronecker product of two vectors, taken row by row of two
    matrices inside ``layers.fuse`` (identity weights, non-negative rows)."""

    @staticmethod
    def _fuse(a, b):
        p = np.shape(a)[1]
        fusion = param_group(w_sk=np.eye(p), w_im=np.eye(p))
        return layers.fuse(constant(a), constant(b), fusion)

    def test_hand_case(self):
        out = self._fuse([[1.0, 0.0], [0.0, 1.0]], [[2.0, 3.0], [4.0, 5.0]])
        assert out.data.tolist() == [[2.0, 3.0, 0.0, 0.0], [0.0, 0.0, 4.0, 5.0]]

    def test_full_scale_length(self, rng):
        out = self._fuse(rng.random((2, 256)), rng.random((2, 256)))
        assert out.shape == (2, 65536)

    def test_rows_equal_vector_kronecker(self, rng):
        a = rng.random((4, 3))
        b = rng.random((4, 3))
        out = self._fuse(a, b)
        for i in range(4):
            np.testing.assert_array_equal(out.data[i], np.kron(a[i], b[i]))

    def test_gradients_match_fd(self, rng):
        a = Node(rng.normal(size=(2, 3)), requires_grad=True)
        b = Node(rng.normal(size=(2, 3)), requires_grad=True)
        fusion = param_group(w_sk=rng.normal(size=(3, 3)), w_im=rng.normal(size=(3, 3)))
        check_node_grads(lambda: square_sum(layers.fuse(a, b, fusion)),
                         [a, b, fusion.w_sk, fusion.w_im])

    def test_rejects_matrices(self):
        # each row must be a vector: stacks of matrices are not flattened
        with pytest.raises(ValueError, match="fusion inputs"):
            self._fuse(np.ones((2, 2, 2)), np.ones((2, 2)))

    def test_rejects_vectors_and_row_mismatch(self):
        fusion = param_group(w_sk=np.eye(2), w_im=np.eye(2))
        with pytest.raises(ValueError, match="fusion inputs"):
            layers.fuse(constant(np.ones(2)), constant(np.ones(2)), fusion)
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
        check_node_grads(lambda: square_sum(layers.attention_pool(feats, attn)),
                         [attn.score_weights, attn.score_bias])

    def test_softmax_rejects_vectors(self, rng):
        with pytest.raises(ValueError, match=r"\[N, L, C\]"):
            layers.attention_pool(np.ones((3, 4)), self._attention(rng))

    def test_pool_rows_matches_per_row_weighted_sum(self, rng):
        attn = self._attention(rng)
        feats = rng.normal(size=(4, 3, 4))
        out = layers.attention_pool(feats, attn)
        for i in range(4):
            logits = feats[i] @ attn.score_weights.data[:, 0] + attn.score_bias.data
            w = np.exp(logits - logits.max())
            pooled = (w / w.sum()) @ feats[i]
            want = layers.relu(pooled @ attn.proj_weights.data + attn.proj_bias.data)
            np.testing.assert_allclose(out.data[i], want, rtol=1e-13)

    def test_pool_rows_gradients(self, rng):
        attn = self._attention(rng)
        feats = rng.normal(size=(2, 3, 4))
        check_node_grads(lambda: square_sum(layers.attention_pool(feats, attn)),
                         [attn.proj_weights, attn.proj_bias])

    def test_pool_rows_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="channels"):
            layers.attention_pool(np.ones((2, 4, 5)), self._attention(rng))

    def test_clip_gradient_mask(self):
        b = Node([0.2, -0.5, 1.5], requires_grad=True)
        layers.log_q(b, np.ones(3)).backward()
        np.testing.assert_array_equal(b.grad, [1.0 / 0.2, 0.0, 0.0])

    def test_concat_gradients(self, rng):
        a = Node(rng.normal(size=(2, 3)), requires_grad=True)
        b = Node(rng.normal(size=(2, 3)), requires_grad=True)
        fusion = param_group(w_proj=rng.normal(size=(6, 9)))
        check_node_grads(lambda: square_sum(layers.fuse_concat(a, b, fusion)),
                         [a, b, fusion.w_proj])

    def test_concat_rejects_row_mismatch(self):
        fusion = param_group(w_proj=np.ones((4, 4)))
        with pytest.raises(ValueError, match="fusion inputs"):
            layers.fuse_concat(constant(np.ones((2, 2))), constant(np.ones((3, 2))), fusion)


class TestBackward:
    def test_identity_loss(self):
        x = Node(3.0, requires_grad=True)
        x.backward()
        assert x.grad == 1.0

    def test_sum_of_squares(self):
        x = Node([1.0, 2.0], requires_grad=True)
        square_sum(x).backward()
        assert x.grad.tolist() == [2.0, 4.0]

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Node([1.0, 2.0], requires_grad=True).backward()

    def test_composite_chain_matches_fd(self, rng):
        w1 = param_group(w_theta=rng.normal(size=(3, 3)))
        w2 = param_group(w_theta=rng.normal(size=(2, 3)))
        fusion = param_group(w_sk=rng.normal(size=(3, 3)), w_im=rng.normal(size=(3, 3)))
        out = param_group(w_theta=rng.normal(size=(9, 2)))
        a = constant(rng.normal(size=(2, 3)))
        b = constant(rng.normal(size=(2, 2)))

        def loss():
            fused = layers.fuse(layers.dense(a, w1, layers.relu),
                                layers.dense(b, w2, layers.relu), fusion)
            return square_sum(layers.dense(fused, out, layers.sigmoid))

        check_node_grads(loss, [w1.w_theta, w2.w_theta, fusion.w_sk, out.w_theta])

    def test_fanout_accumulates_both_paths(self):
        # total = x^2 - x + x^2: x feeds two layer nodes and the total
        x = Node(2.0, requires_grad=True)
        total, _ = objective.mc_total([(square_sum(x), x, square_sum(x))])
        total.backward()
        assert x.grad == 4.0 * 2.0 - 1.0

    def test_double_backward_doubles_exactly(self, rng):
        x = Node(rng.normal(size=(3, 2)), requires_grad=True)
        w = Node(rng.normal(size=(2, 4)), requires_grad=True)
        loss = square_sum(layers.dense(x, SimpleNamespace(w_theta=w), layers.sigmoid))
        loss.backward()
        once_x, once_w = x.grad.copy(), w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * once_x)
        np.testing.assert_array_equal(w.grad, 2.0 * once_w)

    def test_reset_gives_bit_identical_grads(self, rng):
        x = Node(rng.uniform(0.2, 0.8, size=5), requires_grad=True)
        bits = rng.integers(0, 2, size=5).astype(float)

        def run():
            x.zero_grad()
            layers.log_q(x, bits).backward()
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())

    def test_constant_only_graph_leaves_params_untouched(self):
        p = Node(np.ones(3), requires_grad=True)
        loss = square_sum(constant([1.0, 2.0]))
        loss.backward()
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_grad_shape_matches_data(self, rng):
        x = Node(rng.normal(size=(4, 5)), requires_grad=True)
        assert x.grad.shape == x.data.shape
        square_sum(x).backward()
        assert x.grad.shape == x.data.shape
