import json
import logging

import numpy as np
import pytest

from ldplab.cli import main
from ldplab.model import Box, DriftFamily, Modulus, SdeProblem, VectorField
from ldplab.problems import build_field, load_problem, parse_problem_text
from ldplab.simulate import dynamics
from ldplab.zvonkin import (GridFunction, SolveFailure, ZvonkinMap, _assemble_operator,
                            _measure_norms, _nodal_jacobian, _reflect, _spectral_norm,
                            _transport, find_lambda0, solve_resolvent, theta,
                            theta_inv, transform)


def _problem_with_singular(func, bound, name="synthetic"):
    singular = VectorField(in_dim=1, out_dim=1, func=func,
                           declared_modulus=Modulus.lipschitz(10.0),
                           declared_bound=bound, name=name)
    zero = VectorField(in_dim=1, out_dim=1,
                       func=lambda x: np.zeros((x.shape[0], 1)), name="zero")
    return SdeProblem(name=name, dims=(1,), horizon_T=1.0,
                      ellipticity_K=2.0, lipschitz_L=1.0,
                      working_box=Box.of([-6.0], [6.0]), start=np.zeros(1),
                      drift=DriftFamily(limit=zero), singular_drift=singular,
                      diffusion=build_field("identity_matrix", 1, 1))


def test_zero_perturbation_gives_zero_map():
    problem = load_problem("brownian-1d")
    zmap = solve_resolvent(problem, 1.0, resolution=65)
    assert zmap.norms == (0.0, 0.0, 0.0)
    assert zmap.certified


def test_constant_closed_form():
    problem = _problem_with_singular(lambda x: np.full((x.shape[0], 1), 0.75), 0.75)
    zmap = solve_resolvent(problem, 3.0, resolution=65)
    assert np.max(np.abs(zmap.u.values - 0.25)) <= 1e-9


def test_lambda_ladder_monotone_tanh():
    problem = _problem_with_singular(lambda x: np.tanh(x), 1.0, "tanh")
    res = find_lambda0(problem, resolution=129)
    sums = [s for _, _, s in res.trail]
    assert all(b <= a + 1e-12 for a, b in zip(sums, sums[1:]))
    assert res.map.certified


def test_lambda_ladder_logged_at_debug_only(caplog):
    """Each lambda that ``find_lambda0`` tries makes one DEBUG record on
    ``ldplab.zvonkin`` with its norm sum, Picard iterations and verdict; at
    the default level nothing is recorded."""
    problem = _problem_with_singular(lambda x: np.tanh(x), 1.0, "tanh")
    find_lambda0(problem, resolution=65)
    assert not [r for r in caplog.records if r.name == "ldplab.zvonkin"]
    caplog.set_level(logging.DEBUG, logger="ldplab.zvonkin")
    res = find_lambda0(problem, resolution=65)
    records = [r for r in caplog.records if r.name == "ldplab.zvonkin"]
    assert len(records) == len(res.trail) > 1
    for record, (lam, _, norm_sum) in zip(records, res.trail):
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert f"lambda={lam:g} norm_sum={norm_sum:.6g} picard_iters=" in message
        assert message.endswith(f"certified={lam == res.map.lam}")


def test_lambda_cap_reports_trajectory():
    problem = _problem_with_singular(lambda x: np.tanh(x), 1.0, "tanh")
    with pytest.raises(SolveFailure) as info:
        find_lambda0(problem, resolution=65, max_doublings=1)
    assert "trajectory" in str(info.value)


def test_theta_lower_lipschitz(dini_map, rng):
    """A certified map contracts by at most 1/2: |theta(x)-theta(y)| >= |x-y|/2."""
    pts = dini_map.interior_box().sample(rng, 400)
    x, y = pts[:200], pts[200:]
    num = np.linalg.norm(theta(dini_map, x) - theta(dini_map, y), axis=-1)
    den = np.linalg.norm(x - y, axis=-1)
    keep = den > 1e-9
    assert np.all(num[keep] >= 0.5 * den[keep] * (1 - 1e-9))


def test_theta_inv_requires_certificate():
    problem = _problem_with_singular(lambda x: np.tanh(x), 1.0, "tanh")
    zmap = solve_resolvent(problem, 1.0, resolution=65)
    assert not zmap.certified
    with pytest.raises(SolveFailure):
        theta_inv(zmap, np.zeros(1))


def test_transform_drift_is_lipschitz(dini_problem, dini_map):
    """The composed limit drift must be Lipschitz even though b2 is not."""
    tsde = transform(dini_problem, dini_map)
    coefficients = tsde.coefficients(0.0)

    def drift(z):
        return coefficients(z)[0]

    box = dini_map.interior_box()
    rng = np.random.Generator(np.random.Philox(key=5))
    pts = box.sample(rng, 500)
    qts = box.sample(rng, 500)
    num = np.linalg.norm(np.atleast_2d(drift(pts)) - np.atleast_2d(drift(qts)), axis=-1)
    den = np.linalg.norm(pts - qts, axis=-1)
    keep = den > 1e-9
    # chain-rule bound: ||grad theta|| <= 3/2, ||grad theta^-1|| <= 2
    allowed = 1.5 * dini_problem.lipschitz_L * 2.0 + dini_map.lam * sum(dini_map.norms)
    assert np.max(num[keep] / den[keep]) <= allowed


def test_transform_start_maps_through_theta(dini_problem, dini_map):
    """A transformed system's start is its base problem's, in original
    coordinates, as an SdeProblem's is; its dynamics start from theta of it."""
    tsde = transform(dini_problem, dini_map)
    assert tsde.start is dini_problem.start
    assert np.array_equal(dynamics(tsde, 0.5).x0, theta(dini_map, dini_problem.start))


def test_save_map_files(dini_map, tmp_path, capsys):
    """The zvonkin verb saves the certified map: certificate.json holds its
    lambda, grid and norms, map_values.csv reads back to u bit for bit."""
    assert main(["zvonkin", "--problem", "dini-tanhlog-1d", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "certificate.json").read_text())
    assert written["lambda0"] == dini_map.lam
    assert written["box_lo"] == dini_map.box.lo.tolist()
    assert written["box_hi"] == dini_map.box.hi.tolist()
    assert written["resolution"] == 257
    assert written["norms"] == list(dini_map.norms)
    assert written["certified"] is True and written["margin"] == 0.2
    table = np.loadtxt(tmp_path / "map_values.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(table, dini_map.u.values.reshape(-1, dini_map.u.m))


def test_resolvent_rejects_bad_lambda():
    problem = load_problem("brownian-1d")
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            solve_resolvent(problem, lam)
    for kwargs in ({"lambda_start": np.inf}, {"lambda_start": np.nan}, {"max_doublings": -1}):
        with pytest.raises(ValueError):
            find_lambda0(problem, resolution=17, **kwargs)


def test_interior_residual_small(dini_map):
    assert dini_map.residual <= 1e-8


def _reference_theta_inv(zmap, y):
    """The contraction written with the public checked calls: a per-row box
    test, a clip onto the box, ``GridFunction.__call__`` and the largest row
    norm as the step size."""
    x, steps = y.copy(), []
    widened = Box(lo=zmap.box.lo - 1e-12, hi=zmap.box.hi + 1e-12)
    for _ in range(200):
        assert np.all(widened.contains(x))
        x_new = y - zmap.u(np.clip(x, zmap.box.lo, zmap.box.hi))
        steps.append(float(np.max(np.linalg.norm(x_new - x, axis=-1))))
        x = x_new
        if steps[-1] < 1e-12:
            return x, steps
    raise AssertionError("reference contraction did not converge")


def test_theta_inv_matches_reference_contraction(dini_map, rng):
    """The same iterates and step sizes, bit for bit, on a batch that covers
    the whole box, its edges included."""
    pts = np.concatenate([dini_map.box.sample(rng, 2000),
                          dini_map.box.lo[None], dini_map.box.hi[None]])
    y = theta(dini_map, pts)
    y = y[dini_map.box.contains(y)]
    x, steps = theta_inv(dini_map, y, record_steps=True)
    x_ref, steps_ref = _reference_theta_inv(dini_map, y)
    assert np.array_equal(x, x_ref)
    assert steps == steps_ref
    single, single_steps = theta_inv(dini_map, y[0], record_steps=True)
    assert single.shape == (1,)
    assert np.array_equal(single, x_ref[0])
    assert single_steps == _reference_theta_inv(dini_map, y[:1])[1]


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["outside-image", "nan"])
def test_theta_inv_refuses_points_it_cannot_invert(dini_map, bad):
    y = np.zeros((3, 1))
    y[1] = dini_map.box.hi + 1.0 if bad == np.inf else bad
    with pytest.raises(SolveFailure, match="left the box"):
        theta_inv(dini_map, y)


def test_theta_inv_round_trip_on_a_2d_grid(rng):
    """The N-D branch: a hand-built smooth u on a 2-D grid inverts to 1e-10."""
    box = Box.of([-1.0] * 2, [1.0] * 2)
    axes = [np.linspace(-1.0, 1.0, 65)] * 2
    gx, gy = np.meshgrid(*axes, indexing="ij")
    values = 0.05 * np.stack([np.sin(gx + 0.5 * gy), np.cos(gx * gy)], axis=-1)
    zmap = ZvonkinMap(lam=1.0, u=GridFunction(box=box, axes=axes, values=values),
                      norms=(0.05, 0.1, 0.1), residual=0.0, certified=True)
    pts = zmap.interior_box().sample(rng, 200)
    back, steps = theta_inv(zmap, theta(zmap, pts), record_steps=True)
    assert np.max(np.abs(back - pts)) <= 1e-10
    assert steps[-1] < 1e-12
    corner = zmap.u(np.array([[1.0, -1.0]]))
    assert np.array_equal(zmap.u.clamped(np.array([[1.5, -2.0]])), corner)
    assert np.array_equal(zmap.u.jacobian(np.array([[1.5, -2.0]])),
                          zmap.u.jacobian_grid()[None, -1, 0])


def test_one_dimensional_grid_function_has_one_component():
    axis = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ValueError, match="one component"):
        GridFunction(box=Box.of([-1.0], [1.0]), axes=[axis], values=np.zeros((17, 2)))


def test_grid_function_refuses_nan_in_every_dimension(dini_map):
    """A NaN point lies outside the box: a 1-D grid raises, as an N-D grid does."""
    with pytest.raises(ValueError, match="outside the grid box"):
        theta(dini_map, [np.nan])
    with pytest.raises(ValueError, match="outside the grid box"):
        dini_map.u(np.array([[0.0], [np.nan]]))
    box = Box.of([-1.0] * 2, [1.0] * 2)
    grid = GridFunction(box=box, axes=[np.linspace(-1.0, 1.0, 5)] * 2, values=np.zeros((5, 5, 1)))
    with pytest.raises(ValueError, match="out of bounds"):
        grid([np.nan, 0.0])


def test_dini_certificate_recorded(dini_lambda0):
    """dini-tanhlog-1d's certificate on the 257-point grid."""
    zmap = dini_lambda0.map
    assert zmap.lam == 16.0
    assert zmap.norm_sum == pytest.approx(0.4661068269956721, rel=1e-12)
    assert zmap.picard_iters == 11


# The resolvent solve's stencils written out one component and one axis at a time.

def _axis_gradient(values, h, axis):
    return np.gradient(values, h[axis], axis=axis, edge_order=2)


def _reference_jacobian(values, h):
    m, d = values.shape[-1], len(h)
    jac = np.empty(values.shape[:-1] + (m, d))
    for c in range(m):
        for i in range(d):
            jac[..., c, i] = _axis_gradient(values[..., c], h, i)
    return jac


def _reference_hessian(values, h):
    jac = _reference_jacobian(values, h)
    m, d = jac.shape[-2:]
    hess = np.empty(jac.shape + (d,))
    for c in range(m):
        for i in range(d):
            for j in range(d):
                hess[..., c, i, j] = _axis_gradient(jac[..., c, i], h, j)
    return hess


def _reference_transport(b2, u, h):
    out = np.zeros_like(b2)
    for c in range(u.shape[-1]):
        for i in range(u.shape[-1]):
            out[:, c] += b2[:, i] * _axis_gradient(u[..., c], h, i).reshape(-1)
    return out


def _reference_operator(axes, a_nodes, lam):
    """lambda - L as COO triplets: the +-e_i neighbours axis by axis, then the
    four diagonal neighbours of each pair i < j, then the diagonal."""
    from scipy.sparse import csr_matrix

    shape = tuple(len(ax) for ax in axes)
    d, n_pts = len(shape), int(np.prod(shape))
    h = [ax[1] - ax[0] for ax in axes]
    strides = np.array([int(np.prod(shape[k + 1:])) for k in range(d)])
    idx_nd = np.stack(np.meshgrid(*[np.arange(n) for n in shape], indexing="ij"),
                      axis=-1).reshape(n_pts, d)
    base = np.arange(n_pts)
    rows, cols, data = [], [], []
    diag = np.full(n_pts, lam)

    def add(nd_neighbor, coeff):
        rows.append(base)
        cols.append(nd_neighbor @ strides)
        data.append(coeff)

    for i in range(d):
        coeff = 0.5 * a_nodes[:, i, i] / h[i] ** 2
        for sgn in (+1, -1):
            nb = idx_nd.copy()
            nb[:, i] = _reflect(nb[:, i] + sgn, shape[i])
            add(nb, -coeff)
        diag += 2 * coeff
    for i in range(d):
        for j in range(i + 1, d):
            coeff = a_nodes[:, i, j] / (4.0 * h[i] * h[j])
            for si, sj, sign in ((1, 1, -1.0), (-1, -1, -1.0), (1, -1, 1.0), (-1, 1, 1.0)):
                nb = idx_nd.copy()
                nb[:, i] = _reflect(nb[:, i] + si, shape[i])
                nb[:, j] = _reflect(nb[:, j] + sj, shape[j])
                add(nb, sign * coeff)
    add(idx_nd, diag)
    A = csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_pts, n_pts))
    A.sum_duplicates()
    return A


_OFF_DIAGONAL_2D = """
[problem]
name = off-diagonal-2d
dims = 2
box_lo = -3.0
box_hi = 3.0

[drift]
limit = expr: 0; 0

[singular]
field = expr: 0.8 * tanh(3 * x1) * cos(x2); 0.5 * sin(2 * x2)

[modulus]
kind = lipschitz
l = 4

[diffusion]
field = expr: 1; 0.3; 0; 1
"""


def _random_grid():
    """A 2-D, two-component grid with unequal steps and a full sigma sigma^T."""
    rng = np.random.Generator(np.random.Philox(key=7))
    axes = [np.linspace(-1.0, 2.0, 19), np.linspace(-0.5, 0.5, 23)]
    u = rng.standard_normal((19, 23, 2))
    sigma = rng.standard_normal((19 * 23, 2, 2))
    return axes, sigma @ np.swapaxes(sigma, -1, -2), rng.standard_normal((19 * 23, 2)), u


def _off_diagonal_problem():
    problem = parse_problem_text(_OFF_DIAGONAL_2D)
    zmap = solve_resolvent(problem, 8.0, resolution=33)
    axes = zmap.u.axes
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    sigma = problem.diffusion(nodes)
    return (axes, sigma @ np.swapaxes(sigma, -1, -2), problem.singular_drift(nodes),
            zmap.u.values)


@pytest.mark.parametrize("case", [_random_grid, _off_diagonal_problem],
                         ids=["random-grid", "off-diagonal-problem"])
def test_stencils_match_per_axis_reference(case):
    """The nodal Jacobian, the Hessian behind the norms, the transport term and
    the operator equal their per-axis forms bit for bit."""
    axes, a_nodes, b2, u = case()
    h = [ax[1] - ax[0] for ax in axes]
    gf = GridFunction(box=Box.of([ax[0] for ax in axes], [ax[-1] for ax in axes]),
                      axes=axes, values=u)
    jac, hess = _reference_jacobian(u, h), _reference_hessian(u, h)
    assert gf.jacobian_grid().tobytes() == jac.tobytes()
    assert _nodal_jacobian(jac.reshape(u.shape[:-1] + (-1,)), h).tobytes() == hess.tobytes()
    per_comp = _spectral_norm(hess.reshape(-1, 2, 2)).reshape(-1, 2)
    assert _measure_norms(gf) == (float(np.max(np.linalg.norm(u, axis=-1))),
                                  float(np.max(_spectral_norm(jac.reshape(-1, 2, 2)))),
                                  float(np.max(np.linalg.norm(per_comp, axis=-1))))
    assert _transport(b2, u, h).tobytes() == _reference_transport(b2, u, h).tobytes()
    for lam in (2.0, 8.0):
        new, ref = _assemble_operator(axes, a_nodes, lam), _reference_operator(axes, a_nodes, lam)
        for part in ("indptr", "indices", "data"):
            assert getattr(new, part).tobytes() == getattr(ref, part).tobytes(), part
