import numpy as np
import pytest

from conftest import assert_grad_close, check_node_grads, fd_grad
from zsih import autodiff as ad
from zsih.autodiff import Node


class TestMatmul:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(x))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_case(self):
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_gradients_match_fd(self, rng):
        a = Node(rng.normal(size=(4, 3)), requires_grad=True)
        b = Node(rng.normal(size=(3, 2)), requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(ad.square(ad.matmul(a, b))), [a, b])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_requires_matrices(self):
        with pytest.raises(ValueError, match="matrices"):
            ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))))


class TestAffine:
    def test_equals_matmul_plus_bias(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        out = ad.affine(ad.constant(x), ad.constant(w), ad.constant(b))
        np.testing.assert_array_equal(out.data, x @ w + b)

    def test_last_axis_of_a_stack(self, rng):
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(3, 1))
        out = ad.affine(ad.constant(x), ad.constant(w), ad.constant([0.5]))
        assert out.shape == (2, 5, 1)
        np.testing.assert_allclose(out.data, x @ w + 0.5, rtol=1e-14)

    def test_gradients_match_fd(self, rng):
        x = Node(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Node(rng.normal(size=(4, 2)), requires_grad=True)
        b = Node(rng.normal(size=2), requires_grad=True)
        w1 = Node(rng.normal(size=(4, 1)), requires_grad=True)
        b1 = Node(rng.normal(size=1), requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(ad.square(ad.affine(x, w, b))), [x, w, b])
        check_node_grads(lambda: ad.reduce_sum(ad.square(ad.affine(x, w1, b1))), [x, w1, b1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="affine shapes"):
            ad.affine(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 2))), 0.0)
        with pytest.raises(ValueError, match="affine shapes"):
            ad.affine(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))), 0.0)
        with pytest.raises(ValueError, match="bias shape"):
            ad.affine(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))),
                      ad.constant(np.ones(3)))
        with pytest.raises(ValueError, match="bias shape"):
            ad.affine(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 1))),
                      ad.constant(0.5))


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(ad.constant([-1.5, 2.0, 0.0]))
        assert out.data.tolist() == [0.0, 2.0, 0.0]

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant(0.0)).item() == 0.5

    def test_sigmoid_gradient_at_zero(self):
        x = Node(0.0, requires_grad=True)
        loss = ad.sigmoid(x)
        loss.backward()
        fd = fd_grad(lambda: ad.sigmoid(x).item(), x)
        assert abs(x.grad - 0.25) < 1e-12
        assert_grad_close(x.grad, fd)

    def test_sigmoid_saturates_without_overflow(self):
        out = ad.sigmoid(ad.constant([-1e4, 1e4]))
        assert out.data.tolist() == [0.0, 1.0]

    def test_log_domain_error(self):
        with pytest.raises(ValueError, match="non-positive"):
            ad.log(ad.constant([1.0, 0.0]))

    @pytest.mark.parametrize("op", [ad.relu, ad.sigmoid, ad.exp, ad.square])
    def test_unary_gradients(self, op, rng):
        x = Node(rng.normal(size=7) + 0.01, requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(op(x)), [x])

    def test_log_gradient(self, rng):
        x = Node(rng.uniform(0.2, 3.0, size=5), requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(ad.log(x)), [x])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_binary_gradients(self, op, rng):
        a = Node(rng.normal(size=(3, 4)), requires_grad=True)
        b = Node(rng.normal(size=(3, 4)), requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(ad.square(op(a, b))), [a, b])


class TestBroadcasting:
    def test_scalar_with_array(self, rng):
        a = Node(rng.normal(size=(3, 2)), requires_grad=True)
        s = Node(0.7, requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(ad.square(ad.add(a, s))), [a, s])

    def test_row_with_matrix(self, rng):
        # a row is never broadcast over a matrix by the elementwise ops
        a = Node(rng.normal(size=(4, 3)), requires_grad=True)
        row = Node(rng.normal(size=3), requires_grad=True)
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ValueError, match="broadcast"):
                op(a, row)
            with pytest.raises(ValueError, match="broadcast"):
                op(row, a)

    def test_row_gradient_sums_over_batch(self):
        # the one supported row-over-matrix add is affine's bias
        a = ad.constant(np.ones((5, 2)))
        row = Node(np.zeros(2), requires_grad=True)
        ad.reduce_sum(ad.affine(a, ad.constant(np.eye(2)), row)).backward()
        np.testing.assert_array_equal(row.grad, [5.0, 5.0])

    def test_keepdims_row_with_matrix_rejected(self):
        a = ad.constant(np.ones((5, 2)))
        row = Node(np.zeros((1, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="broadcast"):
            ad.add(a, row)

    def test_rejected_broadcast(self):
        with pytest.raises(ValueError, match="broadcast"):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))

    def test_column_broadcast_rejected(self):
        with pytest.raises(ValueError, match="broadcast"):
            ad.add(ad.constant(np.ones((3, 2))), ad.constant(np.ones((3, 1))))


class TestReduce:
    def test_sum_value(self):
        assert ad.reduce_sum(ad.constant([1.0, 2.0, 3.0])).item() == 6.0

    def test_sum_gradient_is_ones(self):
        x = Node(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_axis_reduction_gradients(self, rng):
        x = Node(rng.normal(size=(3, 4)), requires_grad=True)
        for axis in (0, 1):
            check_node_grads(
                lambda: ad.reduce_sum(ad.square(ad.reduce_sum(x, axis=axis))), [x]
            )

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            ad.reduce_sum(ad.constant(np.ones((2, 2))), axis=2)


class TestKronVec:
    """The Kronecker product of two vectors, taken row by row of two
    matrices (``kron_rows``)."""

    def test_hand_case(self):
        out = ad.kron_rows(ad.constant([[1.0, 0.0], [0.0, 1.0]]),
                           ad.constant([[2.0, 3.0], [4.0, 5.0]]))
        assert out.data.tolist() == [[2.0, 3.0, 0.0, 0.0], [0.0, 0.0, 4.0, 5.0]]

    def test_full_scale_length(self, rng):
        a = ad.constant(rng.normal(size=(2, 256)))
        b = ad.constant(rng.normal(size=(2, 256)))
        assert ad.kron_rows(a, b).shape == (2, 65536)

    def test_rows_equal_vector_kronecker(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 5))
        out = ad.kron_rows(ad.constant(a), ad.constant(b))
        for i in range(4):
            np.testing.assert_array_equal(out.data[i], np.kron(a[i], b[i]))

    def test_gradients_match_fd(self, rng):
        a = Node(rng.normal(size=(2, 3)), requires_grad=True)
        b = Node(rng.normal(size=(2, 4)), requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(ad.square(ad.kron_rows(a, b))), [a, b])

    def test_rejects_matrices(self):
        # each row must be a vector: stacks of matrices are not flattened
        with pytest.raises(ValueError, match="equal row counts"):
            ad.kron_rows(ad.constant(np.ones((2, 2, 2))), ad.constant(np.ones((2, 2))))

    def test_rejects_vectors_and_row_mismatch(self):
        with pytest.raises(ValueError, match="equal row counts"):
            ad.kron_rows(ad.constant(np.ones(2)), ad.constant(np.ones(2)))
        with pytest.raises(ValueError, match="equal row counts"):
            ad.kron_rows(ad.constant(np.ones((2, 2))), ad.constant(np.ones((3, 2))))


class TestStructureOps:
    def test_softmax_normalizes(self, rng):
        s = ad.softmax_rows(ad.constant(rng.normal(size=(3, 6)) * 50.0))
        np.testing.assert_allclose(s.data.sum(axis=1), np.ones(3), rtol=0, atol=1e-12)

    def test_softmax_rows_are_independent(self, rng):
        x = rng.normal(size=(3, 5))
        s = ad.softmax_rows(ad.constant(x))
        for i in range(3):
            e = np.exp(x[i] - x[i].max())
            np.testing.assert_allclose(s.data[i], e / e.sum(), rtol=1e-14)

    def test_softmax_gradients(self, rng):
        x = Node(rng.normal(size=(3, 5)), requires_grad=True)
        w = ad.constant(rng.normal(size=(3, 5)))
        check_node_grads(lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(x), w)), [x])

    def test_softmax_rejects_vectors(self):
        with pytest.raises(ValueError, match="matrix"):
            ad.softmax_rows(ad.constant(np.ones(3)))

    def test_pool_rows_matches_per_row_weighted_sum(self, rng):
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(4, 3, 5))
        out = ad.pool_rows(ad.constant(w), ad.constant(x))
        for i in range(4):
            np.testing.assert_allclose(out.data[i], w[i] @ x[i], rtol=1e-13)

    def test_pool_rows_gradients(self, rng):
        w = Node(rng.normal(size=(2, 3)), requires_grad=True)
        x = Node(rng.normal(size=(2, 3, 4)), requires_grad=True)
        check_node_grads(lambda: ad.reduce_sum(ad.square(ad.pool_rows(w, x))), [w, x])

    def test_pool_rows_shape_mismatch(self):
        with pytest.raises(ValueError, match="pool_rows"):
            ad.pool_rows(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 4, 5))))

    def test_clip_gradient_mask(self):
        x = Node([0.2, -0.5, 1.5], requires_grad=True)
        ad.reduce_sum(ad.clip(x, 0.0, 1.0)).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_reshape_gradients(self, rng):
        x = Node(rng.normal(size=(2, 6)), requires_grad=True)
        check_node_grads(
            lambda: ad.reduce_sum(ad.square(ad.reshape(x, (3, 4)))), [x]
        )

    def test_concat_gradients(self, rng):
        a = Node(rng.normal(size=(2, 3)), requires_grad=True)
        b = Node(rng.normal(size=(2, 2)), requires_grad=True)
        check_node_grads(
            lambda: ad.reduce_sum(ad.square(ad.concat_cols(a, b))), [a, b]
        )

    def test_concat_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="equal row counts"):
            ad.concat_cols(ad.constant(np.ones((2, 2))), ad.constant(np.ones((3, 2))))


class TestBackward:
    def test_identity_loss(self):
        x = Node(3.0, requires_grad=True)
        x.backward()
        assert x.grad == 1.0

    def test_sum_of_squares(self):
        x = Node([1.0, 2.0], requires_grad=True)
        ad.reduce_sum(ad.square(x)).backward()
        assert x.grad.tolist() == [2.0, 4.0]

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Node([1.0, 2.0], requires_grad=True).backward()

    def test_composite_chain_matches_fd(self, rng):
        w1 = Node(rng.normal(size=(3, 3)), requires_grad=True)
        w2 = Node(rng.normal(size=(2, 2)), requires_grad=True)
        a = ad.constant(rng.normal(size=(2, 3)))
        b = ad.constant(rng.normal(size=(2, 2)))

        def loss():
            fused = ad.kron_rows(ad.matmul(a, w1), ad.matmul(b, w2))
            return ad.reduce_sum(ad.sigmoid(ad.relu(fused)))

        check_node_grads(loss, [w1, w2])

    def test_fanout_accumulates_both_paths(self):
        x = Node(2.0, requires_grad=True)
        y = ad.add(ad.square(x), ad.mul(x, 3.0))  # x^2 + 3x
        y.backward()
        assert x.grad == 2.0 * 2.0 + 3.0

    def test_double_backward_doubles_exactly(self, rng):
        x = Node(rng.normal(size=(3, 2)), requires_grad=True)
        w = Node(rng.normal(size=(2, 4)), requires_grad=True)
        loss = ad.reduce_sum(ad.sigmoid(ad.matmul(x, w)))
        loss.backward()
        once_x, once_w = x.grad.copy(), w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * once_x)
        np.testing.assert_array_equal(w.grad, 2.0 * once_w)

    def test_reset_gives_bit_identical_grads(self, rng):
        x = Node(rng.normal(size=5), requires_grad=True)

        def run():
            x.zero_grad()
            ad.reduce_sum(ad.exp(ad.mul(x, 0.5))).backward()
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())

    def test_constant_only_graph_leaves_params_untouched(self):
        p = Node(np.ones(3), requires_grad=True)
        loss = ad.reduce_sum(ad.square(ad.constant([1.0, 2.0])))
        loss.backward()
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_grad_shape_matches_data(self, rng):
        x = Node(rng.normal(size=(4, 5)), requires_grad=True)
        assert x.grad.shape == x.data.shape
        ad.reduce_sum(x).backward()
        assert x.grad.shape == x.data.shape
