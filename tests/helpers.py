"""Shared test oracles: brute-force enumerations and finite differences.

Everything here is deliberately independent of the library's own code paths:
the Frechet oracle enumerates couplings, the matrix exponential uses scaling
and squaring, and gradients come from central differences of the value
functions.
"""

import io

import numpy as np

from minaction import (
    FePath,
    Mesh,
    Quadrature,
    field_from_callable,
    fixed_t_value_grad,
    linear_field,
    maier_stein_field,
    resample_path,
    tmam_value_grad,
    two_scale_field,
    write_study_csv,
)


def brute_force_frechet(p_pts, q_pts) -> float:
    """Discrete Frechet distance by exhaustive coupling enumeration.

    Only usable for tiny polylines (the coupling count grows exponentially).
    """
    p_pts = np.atleast_2d(np.asarray(p_pts, dtype=float))
    q_pts = np.atleast_2d(np.asarray(q_pts, dtype=float))
    np_, nq = len(p_pts), len(q_pts)
    best = [np.inf]

    def rec(i, j, worst):
        worst = max(worst, float(np.linalg.norm(p_pts[i] - q_pts[j])))
        if worst >= best[0]:
            return
        if i == np_ - 1 and j == nq - 1:
            best[0] = worst
            return
        if i + 1 < np_:
            rec(i + 1, j, worst)
        if j + 1 < nq:
            rec(i, j + 1, worst)
        if i + 1 < np_ and j + 1 < nq:
            rec(i + 1, j + 1, worst)

    rec(0, 0, 0.0)
    return best[0]


def expm_scaling_squaring(matrix, n_square=30, n_taylor=18) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated series."""
    a_mat = np.asarray(matrix, dtype=float)
    scaled = a_mat / 2.0**n_square
    result = np.eye(a_mat.shape[0])
    term = np.eye(a_mat.shape[0])
    for k in range(1, n_taylor + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(n_square):
        result = result @ result
    return result


def random_mesh(rng, n_lo=4, n_hi=20, nonuniform=False) -> Mesh:
    n = int(rng.integers(n_lo, n_hi + 1))
    if not nonuniform:
        return Mesh(np.linspace(0.0, 1.0, n + 1))
    interior = np.sort(rng.random(n - 1))
    nodes = np.concatenate([[0.0], interior, [1.0]])
    if np.min(np.diff(nodes)) < 1e-4:
        return Mesh(np.linspace(0.0, 1.0, n + 1))
    return Mesh(nodes)


def bisected_mesh(mesh) -> Mesh:
    """``mesh`` with every element split at its midpoint."""
    nodes = np.empty(2 * mesh.nodes.size - 1)
    nodes[0::2] = mesh.nodes
    nodes[1::2] = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    return Mesh(nodes)


def refined(path) -> FePath:
    """The same piecewise-linear function on the bisected mesh."""
    return resample_path(path, bisected_mesh(path.mesh))


def random_path(rng, dim, scale=1.0, nonuniform=False) -> FePath:
    mesh = random_mesh(rng, nonuniform=nonuniform)
    values = scale * rng.standard_normal((mesh.num_elements + 1, dim))
    return FePath(mesh, values)


def fd_gradient(value_fn, path, step=1e-6) -> np.ndarray:
    """Central finite differences of a value function w.r.t. interior nodes."""
    interior = path.values[1:-1].copy()
    grad = np.zeros_like(interior)
    for i in range(interior.shape[0]):
        for j in range(interior.shape[1]):
            plus = interior.copy()
            plus[i, j] += step
            minus = interior.copy()
            minus[i, j] -= step
            grad[i, j] = (
                value_fn(path.replace_interior(plus)) - value_fn(path.replace_interior(minus))
            ) / (2.0 * step)
    return grad


def fd_grad_fixed_T(path, field, T, quad, step=1e-6) -> np.ndarray:
    return fd_gradient(lambda p: fixed_t_value_grad(p, field, T, quad)[0], path, step)


def fd_grad_optimal(path, field, quad, step=1e-6) -> np.ndarray:
    return fd_gradient(lambda p: tmam_value_grad(p, field, quad)[0], path, step)


def csv_text(records) -> str:
    """The study CSV of ``records`` as a string."""
    buf = io.StringIO()
    write_study_csv(records, buf)
    return buf.getvalue()


def builtin_fields():
    """The built-in drift fields exercised by the randomized suites."""
    return {
        "scalar_linear": linear_field([[-1.0]]),
        "general_linear": linear_field([[-1.0, 0.5], [-0.3, -2.0]]),
        "two_scale": two_scale_field(),
        "maier_stein": maier_stein_field(),
    }


DEFAULT_QUAD = Quadrature(3)


def spiral_point(c=2.0):
    """(b, Db) at one point of b(x) = -(1 + |x|^2)(I - c R) x on R^2, R the rotation by pi/2.

    b = -grad U + c R grad U with U = |x|^2 / 2 + |x|^4 / 4, whose two parts
    are orthogonal, so the quasi-potential is 2U (Freidlin & Wentzell,
    *Random Perturbations of Dynamical Systems*, ch. 4): a nonlinear,
    non-gradient field with a closed-form minimum action (``spiral_transition``).
    """
    def func(x):
        u, v = x
        s = 1.0 + u * u + v * v
        return np.array([-s * (u + c * v), -s * (v - c * u)])

    def jac(x):
        u, v = x
        s = 1.0 + u * u + v * v
        a, b = u + c * v, v - c * u
        return np.array([[-2.0 * u * a - s, -2.0 * v * a - c * s],
                         [-2.0 * u * b + c * s, -2.0 * v * b - s]])

    return func, jac


def spiral_transition(c=2.0, r_a=0.2, theta_a=0.3, tau=1.0):
    """(x_a, x_b, S): the ends of ``spiral_point``'s uphill flow over the time ``tau``, and its action.

    The uphill flow phi' = (I + c R) grad U has |phi'| = |b(phi)|, so it is
    the minimizer from x_a to x_b with optimal horizon ``tau`` and action
    S = 2 (U(x_b) - U(x_a)).  In polar coordinates r' = r + r^3, so
    r(t)^2 = K^2 e^{2t} / (1 - K^2 e^{2t}) with K^2 = r_a^2 / (1 + r_a^2),
    and theta = theta_a + c ln(r / r_a).
    """
    k_sq = r_a * r_a / (1.0 + r_a * r_a) * np.exp(2.0 * tau)
    r_b = np.sqrt(k_sq / (1.0 - k_sq))
    theta_b = theta_a + c * np.log(r_b / r_a)
    potential = lambda r: r * r / 2.0 + r**4 / 4.0
    return (r_a * np.array([np.cos(theta_a), np.sin(theta_a)]),
            r_b * np.array([np.cos(theta_b), np.sin(theta_b)]),
            2.0 * (potential(r_b) - potential(r_a)))


def cyclic_chain_field(n):
    """b(x) = (2 (S - S^T) - I) x - x * x * x on R^n, S the cyclic shift (S x)_i = x_{i+1}.

    Non-gradient for n >= 3, where S - S^T is a nonzero skew matrix.  The
    field has no Jacobian of its own, so it is a finite difference of its
    values (``field_from_callable`` without ``jac``).
    """
    shift = np.roll(np.eye(n), 1, axis=1)
    matrix = 2.0 * (shift - shift.T) - np.eye(n)
    return field_from_callable(n, lambda x: matrix @ x - x * x * x)
