import ast
import inspect

import numpy as np
import pytest

import oracle
from oracle import FdSpec, fd_gradient, fd_operator, fd_residual_jacobian, rel_error
from pinnopt import network, pde
from pinnopt.network import Architecture, Parameters, init_params
from pinnopt.taylor import OperatorCoeffs, taylor_forward


class TestFdGradient:
    def test_quadratic_exact(self):
        got = fd_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]))
        assert np.max(np.abs(got - [2.0, 4.0])) <= 1e-8

    def test_constant_is_zero(self):
        got = fd_gradient(lambda x: 3.5, np.array([0.1, 0.2, 0.3]))
        assert np.array_equal(got, np.zeros(3))

    def test_cross_checks_engine_gradient(self):
        p = init_params(Architecture((3, 10, 1)), 1)
        x = np.array([0.2, -0.4, 0.6])
        _, out = taylor_forward(p, x[None], OperatorCoeffs.laplacian(3))
        got = fd_gradient(lambda y: oracle.forward(p, y)[0], x)
        assert rel_error(out.gradient[0], got) <= 1e-8


class TestFdOperator:
    def test_norm_squared_laplacian(self):
        got = fd_operator(lambda x: float(x @ x), np.zeros(3), OperatorCoeffs.laplacian(3))
        assert abs(got - 6.0) <= 1e-6

    def test_pure_mixed_derivative(self):
        co = OperatorCoeffs(np.array([[0.0, 0.5], [0.5, 0.0]]))
        got = fd_operator(lambda x: float(x[0] * x[1]), np.array([0.3, 0.7]), co)
        assert abs(got - 1.0) <= 1e-6

    def test_cross_checks_engine_operator(self):
        p = init_params(Architecture((2, 8, 1)), 2)
        x = np.array([0.5, -0.1])
        co = OperatorCoeffs.laplacian(2)
        _, out = taylor_forward(p, x[None], co)
        got = fd_operator(lambda y: oracle.forward(p, y)[0], x, co)
        assert rel_error(out.operator[0], got) <= 1e-6


class TestFdResidualJacobian:
    def test_linear_net_boundary_structure(self):
        # the condition residual of a linear net is linear in the
        # parameters, so central differences are exact: the row equals the
        # bias-augmented input in column-stacked order
        problem = pde.make_problem("poisson2d_sin")
        p = Parameters([np.array([[0.5, -0.5]])], [np.array([0.1])])
        xb = np.array([3.0, 4.0])

        def bres(v):
            q = network.vec_to_params(v, p)
            return oracle.forward(q, xb)[0]

        vec = network.params_to_vec(p)
        h = 1e-6
        row = np.array(
            [
                (bres(vec + h * e) - bres(vec - h * e)) / (2 * h)
                for e in np.eye(vec.size)
            ]
        )
        assert np.max(np.abs(row - [3.0, 4.0, 1.0])) <= 1e-8

    def test_zero_step_direction_unchanged(self):
        problem = pde.make_problem("poisson2d_sin")
        p = init_params(Architecture((2, 4, 1)), 3)
        x = np.array([0.4, 0.6])
        a = fd_residual_jacobian(problem, p, x)
        b = fd_residual_jacobian(problem, p, x)
        assert np.array_equal(a, b)

    def test_cross_checks_engine_rows(self):
        from pinnopt.curvature import residual_jacobian_rows

        problem = pde.make_problem("poisson2d_sin")
        p = init_params(Architecture((2, 5, 1)), 4)
        x = np.array([[0.3, 0.8]])
        batch = pde.Batch(x, np.zeros((1, 2)), np.zeros(1))
        rows, _ = residual_jacobian_rows(p, batch, problem)
        jac = fd_residual_jacobian(problem, p, x[0])
        assert rel_error(rows[0], jac) <= 1e-5


class TestIndependence:
    def test_oracle_never_imports_the_fast_engine(self):
        # agreement between oracle and engine is only evidence if the
        # oracle does not call into the engine
        tree = ast.parse(inspect.getsource(oracle))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module is None or "taylor" not in node.module
                for alias in node.names:
                    assert "taylor" not in alias.name
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert "taylor" not in alias.name


class TestFdSpec:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            FdSpec(step_first=0.0)

    def test_rel_error_floors_denominator(self):
        assert rel_error(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-9)
        assert rel_error(np.array([2.0]), np.array([4.0])) == pytest.approx(0.5)
