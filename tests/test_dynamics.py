import warnings

import numpy as np
import pytest

from wickns import (
    SolverConfig,
    Trajectory,
    XsbParams,
    bessel_operator,
    cubic_coeffs_block,
    discrete_duhamel,
    evolve_wick_rk4ip,
    fl_norm,
    frequencies,
    gauge_transform,
    identity_operator,
    make_field,
    mode_field,
    philox_stream,
    picard_iterate,
    sample_convolution_path,
    solve,
    wick_coeffs_block,
    wick_nonlinearity_direct,
    wick_trilinear,
    xsb_norm,
    zero_field,
)
from wickns import dynamics, norms
from wickns.dynamics import _cubic_coeffs_conv
from wickns.fields import _five_smooth, alias_free_length, from_grid, propagator_phases, to_grid
from wickns.noise import _complex_normal, _draw_increments
from conftest import fields_close, random_field, traced_peak


def _single_mode_exact(A, k, t):
    # the Wick flow reduces on A*e_k to i u' = (|A|^2 - k^2) u
    return A * np.exp(-1j * (abs(A) ** 2 - k**2) * t)


# ---------------------------------------------------------------------------
# nonlinearity forms


def test_wick_direct_zero():
    out = wick_nonlinearity_direct(zero_field(3))
    assert fields_close(out, zero_field(3), 0.0)


def test_wick_direct_single_mode():
    out = wick_nonlinearity_direct(mode_field(2, 0, 1.0))
    assert fields_close(out, mode_field(2, 0, -1.0), 1e-15)


def test_wick_direct_two_modes():
    # (e_0 + e_1): cubic sum gives 3e_0 + 3e_1 + e_{-1} + e_2, mass term -4u
    u = make_field(2, [0, 0, 1, 1, 0])
    want = make_field(2, [0, 1, -1, -1, 1])
    assert fields_close(wick_nonlinearity_direct(u), want, 1e-14)


def test_trilinear_resonant_only():
    e0 = mode_field(2, 0, 1.0)
    split = wick_trilinear(e0, e0, e0)
    assert fields_close(split.nonres, zero_field(2), 0.0)
    assert fields_close(split.res, mode_field(2, 0, -1.0), 0.0)


def test_trilinear_single_offdiagonal_triple():
    split = wick_trilinear(mode_field(2, 1), mode_field(2, 0), mode_field(2, -1))
    assert fields_close(split.nonres, mode_field(2, 0, 1.0), 0.0)
    assert fields_close(split.res, zero_field(2), 0.0)


def test_trilinear_diagonal_identity(rng):
    for N in (4, 8):
        for _ in range(5):
            u = random_field(N, rng)
            split = wick_trilinear(u, u, u)
            direct = wick_nonlinearity_direct(u)
            assert fields_close(split.total, direct, 1e-12)


def test_trilinear_linearity(rng):
    u1, u2, u3, v = (random_field(3, rng) for _ in range(4))
    a, b = 0.7 - 0.2j, -1.1 + 0.4j

    def comb(x, y, f, g):  # x f + y g
        return make_field(3, x * f.coeffs + y * g.coeffs)

    # linear in slots 1 and 3
    lhs = wick_trilinear(comb(a, b, u1, v), u2, u3)
    r1, r2 = wick_trilinear(u1, u2, u3), wick_trilinear(v, u2, u3)
    assert fields_close(lhs.nonres, comb(a, b, r1.nonres, r2.nonres), 1e-12)
    assert fields_close(lhs.res, comb(a, b, r1.res, r2.res), 1e-12)
    lhs = wick_trilinear(u1, u2, comb(a, b, u3, v))
    r1, r2 = wick_trilinear(u1, u2, u3), wick_trilinear(u1, u2, v)
    assert fields_close(lhs.nonres, comb(a, b, r1.nonres, r2.nonres), 1e-12)
    # conjugate-linear in slot 2
    lhs = wick_trilinear(u1, comb(a, b, u2, v), u3)
    r1, r2 = wick_trilinear(u1, u2, u3), wick_trilinear(u1, v, u3)
    assert fields_close(lhs.nonres, comb(np.conj(a), np.conj(b), r1.nonres, r2.nonres), 1e-12)


def test_trilinear_cutoff_mismatch():
    with pytest.raises(ValueError):
        wick_trilinear(mode_field(2, 0), mode_field(3, 0), mode_field(2, 0))


def test_blocked_forms_match_convolution_path(rng):
    # N = 0, 3, 4, 7, 8 sit at the power-of-two boundaries of the padded length (>= 4N+1)
    for N in (0, 1, 3, 4, 7, 8, 9):
        U = np.stack([random_field(N, rng).coeffs for _ in range(3)])
        wick_block = wick_coeffs_block(U)
        cubic_block = cubic_coeffs_block(U)
        for i in range(3):
            f = make_field(N, U[i])
            assert np.max(np.abs(wick_block[i] - wick_nonlinearity_direct(f).coeffs)) < 1e-12
            assert np.max(np.abs(cubic_block[i] - _cubic_coeffs_conv(U[i]))) < 1e-12


def _wick_on_grid(U, L):
    """The Wick nonlinearity of rows U with the cubic formed on L points by
    to_grid and from_grid and the mass summed in coefficient space:
    wick_coeffs_block's arithmetic at any grid length."""
    N = (U.shape[1] - 1) // 2
    phys = to_grid(U, L)
    cubic = from_grid(np.abs(phys) ** 2 * phys, N)
    return cubic - 2.0 * np.sum(np.abs(U) ** 2, axis=1, keepdims=True) * U


def test_grouped_grid_kernels_match_one_whole_block_transform(monkeypatch):
    # Picard's 1025 x 512 grid goes through in groups of 128 rows; every row
    # is transformed alone, so the bits are those of one whole-block pass
    N = 64
    U = _complex_normal(philox_stream(41), (1025, 2 * N + 1))
    phys = to_grid(U, alias_free_length(N))
    cubic = from_grid(np.abs(phys) ** 2 * phys, N)
    groups = []
    whole = dynamics._cubic_on_grid
    monkeypatch.setattr(dynamics, "_cubic_on_grid", lambda V, *a: groups.append(len(V)) or whole(V, *a))
    assert np.array_equal(cubic_coeffs_block(U), cubic)
    assert np.array_equal(wick_coeffs_block(U), _wick_on_grid(U, alias_free_length(N)))
    assert groups == 2 * ([128] * 8 + [1])  # group sizes of each call: cubic, then Wick


@pytest.mark.parametrize("shape", [(9,), (2, 3, 9)])
def test_grid_kernels_take_rows_only(shape):
    # a (2, 3, 9) block used to get the cubic over its flattened rows but
    # the mass summed over axis 1: here a Wick term 98.8 off the row-wise
    # one, with no error
    U = _complex_normal(philox_stream(43), shape)
    for kernel in (cubic_coeffs_block, wick_coeffs_block):
        with pytest.raises(ValueError) as err:
            kernel(U)
        assert str(err.value) == f"U must be a (B, 2N+1) block of rows, got shape {shape}"


def test_five_smooth_grid_matches_convolution_oracle():
    # _five_smooth(4N+1) leaves the power-of-two ladder at N = 2 (10 < 16); the
    # plain convolutions are the oracle of the stepper's stage, with unit
    # phases, whatever the grid length
    rng = philox_stream(31)
    for N in range(65):
        L = _five_smooth(4 * N + 1)
        U = rng.standard_normal((3, 2 * N + 1)) + 1j * rng.standard_normal((3, 2 * N + 1))
        ones = np.ones(2 * N + 1, dtype=complex)
        got = np.empty_like(U)
        dynamics._wick_stage(U, ones, ones, L, got, np.empty((3, L)))
        want = np.stack([wick_nonlinearity_direct(make_field(N, u)).coeffs for u in U])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# gauge transform


def test_gauge_fixes_t0_and_preserves_norms(rng):
    times = np.linspace(0.0, 0.5, 9)
    states = np.stack([random_field(4, rng).coeffs for _ in range(9)])
    traj = Trajectory(times, states)
    out = gauge_transform(traj)
    assert np.array_equal(out.states[0], states[0])
    for m in range(9):
        a = fl_norm(make_field(4, states[m]), 0.3, 2.5)
        b = fl_norm(make_field(4, out.states[m]), 0.3, 2.5)
        assert abs(a - b) <= 1e-14 * a


# ---------------------------------------------------------------------------
# one exponential Euler step: solve with horizon = dt


def _one_step(u, op, dt, nonlinearity="wick", seed=0):
    cfg = SolverConfig(cutoff=u.cutoff, dt=dt, horizon=dt)
    return make_field(u.cutoff, solve(u, op, cfg, nonlinearity=nonlinearity, rng=philox_stream(seed, 0)).states[1])


def test_step_single_mode_local_order():
    u = mode_field(4, 2, 0.7)
    errs = []
    for dt in (0.02, 0.01):
        got = _one_step(u, None, dt).coeffs[4 + 2]
        errs.append(abs(got - _single_mode_exact(0.7, 2, dt)))
    assert 3.5 < errs[0] / errs[1] < 4.5  # local error is O(dt^2)


def test_step_pure_noise_increment():
    # the step's increment is the first row of the (seed, 0) block of variance dt
    rng = philox_stream(4, 0)
    z = (rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5)))[0] * np.sqrt(0.1 / 2.0)
    got = _one_step(zero_field(2), identity_operator(2), 0.1, seed=4)
    assert np.max(np.abs(got.coeffs - (-1j) * z)) == 0.0


def test_step_unknown_nonlinearity(rng):
    with pytest.raises(ValueError):
        _one_step(random_field(2, rng), None, 0.1, nonlinearity="quintic")


def test_solve_rejects_an_unknown_nonlinearity_before_any_draw(monkeypatch):
    # a bad name must fail before the whole (steps, 2N+1) increment block
    # is drawn, not at the first step
    monkeypatch.setattr(dynamics, "_draw_increments", lambda *a, **k: pytest.fail("drew"))
    cfg = SolverConfig(cutoff=4, dt=1 / 32, horizon=1.0)
    with pytest.raises(ValueError, match=r"^nonlinearity must be one of \('wick', 'cubic'\)$"):
        solve(zero_field(4), identity_operator(4), cfg, nonlinearity="heat", rng=philox_stream(3, 0))
    # the guard is live: a known name does reach the draw
    with pytest.raises(pytest.fail.Exception, match="drew"):
        solve(zero_field(4), identity_operator(4), cfg, rng=philox_stream(3, 0))


# ---------------------------------------------------------------------------
# solve


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(cutoff=4, dt=0.3, horizon=1.0)  # dt does not divide T
    with pytest.raises(ValueError):
        SolverConfig(cutoff=4, dt=0.1, horizon=1.0, picard_tolerance=0.0)
    # each message names the rejected field first; config maps it to its key
    for kwargs, msg in (
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": float("nan")}, "dt must be positive"),
        ({"horizon": -1.0}, "horizon must be positive"),
        ({"dt": 1e-10, "horizon": 1e300}, "dt must divide"),  # step count overflows
    ):
        with pytest.raises(ValueError, match="^" + msg):
            SolverConfig(**{"cutoff": 4, "dt": 0.1, "horizon": 1.0, **kwargs})
    cfg = SolverConfig(cutoff=4, dt=0.25, horizon=1.0)
    assert cfg.steps == 4
    assert np.array_equal(cfg.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_solve_zero_everything():
    cfg = SolverConfig(cutoff=3, dt=0.125, horizon=0.5)
    traj = solve(zero_field(3), None, cfg)
    assert traj.failed_at is None
    assert np.all(traj.states == 0)


def test_solve_single_mode_convergence_order():
    A, k, T = 0.7, 2, 0.5
    errs = []
    for halv in range(3):
        dt = T / 16 / 2**halv
        cfg = SolverConfig(cutoff=4, dt=dt, horizon=T)
        traj = solve(mode_field(4, k, A), None, cfg)
        errs.append(abs(traj.states[-1][k + 4] - _single_mode_exact(A, k, T)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9


def test_solve_deterministic_given_seed():
    cfg = SolverConfig(cutoff=4, dt=1 / 32, horizon=0.25)
    op = identity_operator(4)
    a = solve(zero_field(4), op, cfg, rng=philox_stream(17, 0))
    b = solve(zero_field(4), op, cfg, rng=philox_stream(17, 0))
    assert np.array_equal(a.states, b.states)


def test_solve_cutoff_mismatches():
    cfg = SolverConfig(cutoff=4, dt=0.125, horizon=0.5)
    with pytest.raises(ValueError):
        solve(zero_field(3), None, cfg)
    with pytest.raises(ValueError):
        solve(zero_field(4), identity_operator(3), cfg)
    with pytest.raises(ValueError, match="needs an rng"):
        solve(zero_field(4), identity_operator(4), cfg)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_solve_blowup_flagged():
    cfg = SolverConfig(cutoff=2, dt=0.25, horizon=1.0)
    huge = mode_field(2, 0, 1e160)
    traj = solve(huge, None, cfg)
    assert traj.failed_at is not None
    assert len(traj.times) < 5
    assert np.all(np.isfinite(traj.states.view(np.float64)))


def test_solve_mass_drift_order():
    # phi = 0: Parseval mass drift shrinks at first order under dt refinement
    u0 = make_field(4, [0, 0.1j, 0.5, 0.8, 0.3 - 0.2j, 0.1, 0, 0, 0.05])
    drifts = []
    for halv in range(3):
        cfg = SolverConfig(cutoff=4, dt=1 / 64 / 2**halv, horizon=0.25)
        traj = solve(u0, None, cfg)
        mass_T = float(np.sum(np.abs(traj.states[-1]) ** 2))
        drifts.append(abs(mass_T - u0.mass()))
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9


def test_gauge_equivalence_of_flows():
    # Wick trajectory equals the gauged plain-cubic trajectory up to O(dt)
    rng = philox_stream(5)
    u0 = make_field(8, 0.1 * (rng.standard_normal(17) + 1j * philox_stream(6).standard_normal(17)))
    residuals = []
    for dt in (1 / 32, 1 / 64):
        cfg = SolverConfig(cutoff=8, dt=dt, horizon=0.25)
        wick = solve(u0, None, cfg, nonlinearity="wick")
        gauged = gauge_transform(solve(u0, None, cfg, nonlinearity="cubic"))
        residuals.append(np.max(np.abs(wick.states - gauged.states)))
    assert residuals[0] < 5e-4
    assert np.log2(residuals[0] / residuals[1]) >= 0.9


# ---------------------------------------------------------------------------
# batched interaction-picture integrator


def test_rk4ip_single_mode_high_accuracy():
    U0 = mode_field(4, 2, 0.7).coeffs[None, :]
    out = evolve_wick_rk4ip(U0, np.ones(9), np.zeros((1, 32, 9), dtype=complex), dt=1 / 64, substeps=2)
    got = out[0, 2 + 4]
    assert abs(got - _single_mode_exact(0.7, 2, 0.5)) < 1e-9


def test_rk4ip_noise_kick_matches_recursion():
    # one step, zero datum: output is exactly -i phi zeta
    phi = np.linspace(0.5, 1.5, 5)
    Z = (philox_stream(9).standard_normal((2, 1, 5)) * (1 + 0j))[:]
    out = evolve_wick_rk4ip(np.zeros((2, 5), dtype=complex), phi, Z, dt=0.1, substeps=2)
    assert np.max(np.abs(out - (-1j) * phi * Z[:, 0, :])) == 0.0


@pytest.mark.parametrize("rows", [1007, 5])
def test_rk4ip_row_blocks_match_rows_evolved_alone(rows):
    # rows never interact: one call over 1007 rows must not move a single bit
    N, steps, dt = 3, 4, 1 / 64
    rng = philox_stream(21)
    U0 = rng.standard_normal((rows, 2 * N + 1)) + 1j * rng.standard_normal((rows, 2 * N + 1))
    Z = _draw_increments(rng, (rows, steps, 2 * N + 1), dt)
    phi = np.linspace(0.5, 1.5, 2 * N + 1)
    out = evolve_wick_rk4ip(U0, phi, Z, dt, 2)
    alone = np.concatenate([evolve_wick_rk4ip(U0[i : i + 1], phi, Z[i : i + 1], dt, 2) for i in range(rows)])
    assert out.shape == (rows, 2 * N + 1)
    assert np.array_equal(out, alone)


def _allocating_rk4ip(U0, phi, Z, dt, substeps, record):
    """evolve_wick_rk4ip in its allocating textbook form, the stepper's
    oracle: every stage a fresh array from _wick_on_grid, which takes the
    Wick mass in coefficient space, and the RK4 weights applied to the
    stage inputs and the sum."""
    N = (U0.shape[-1] - 1) // 2
    h = dt / substeps
    L = _five_smooth(4 * N + 1)
    out = np.empty((len(record), *U0.shape), dtype=np.complex128)
    order = {r: i for i, r in enumerate(record)}

    def phases(s):
        ph = propagator_phases(N, s)
        return ph, 1j * np.conj(ph)

    substep_phases = [(phases(s), phases(s + 0.5 * h), phases(s + h)) for s in (k * h for k in range(substeps))]

    def rhs(V, phase):
        fwd, back = phase
        W = _wick_on_grid(fwd * V, L)
        return np.multiply(back, W, out=W)

    prop = propagator_phases(N, dt)
    U = U0
    if 0 in order:
        out[order[0]] = U
    for m in range(Z.shape[1]):
        V = U
        for p0, p1, p2 in substep_phases:
            k1 = rhs(V, p0)
            k2 = rhs(V + 0.5 * h * k1, p1)
            k3 = rhs(V + 0.5 * h * k2, p1)
            k4 = rhs(V + h * k3, p2)
            V = V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        U = prop * V - 1j * phi * Z[:, m, :]
        if m + 1 in order:
            out[order[m + 1]] = U
    return out


def test_rk4ip_matches_allocating_wick_kernel_oracle():
    # variance-test's scale, with one row scaled until it overflows to inf
    # and nan mid-run.  The finite rows agree with the oracle to rounding
    # (the stepper takes the Wick mass on the grid and folds the RK4 weights
    # into its phases), the overflowing row still ends non-finite, and a run
    # split into two calls, the second from the state the first returned, as
    # variance-test chains its segments, keeps every bit of the whole run
    N, steps, dt, rows = 16, 8, 1 / 256, 40
    rng = philox_stream(23)
    U0 = _complex_normal(rng, (rows, 2 * N + 1)) / np.sqrt(2.0)
    U0[7] *= 1e60
    Z = _draw_increments(rng, (rows, steps, 2 * N + 1), dt)
    phi = np.linspace(0.5, 1.5, 2 * N + 1)
    with np.errstate(all="ignore"):
        mid = evolve_wick_rk4ip(U0, phi, Z[:, :2], dt, 2)
        got = np.stack([U0, mid, evolve_wick_rk4ip(mid, phi, Z[:, 2:], dt, 2)])
        whole = evolve_wick_rk4ip(U0, phi, Z, dt, 2)
        want = _allocating_rk4ip(U0, phi, Z, dt, 2, [0, 2, steps])
    finite = np.delete(np.arange(rows), 7)
    assert not np.isfinite(got[-1, 7]).any() and np.isfinite(got[:, finite]).all()
    err = np.max(np.abs(got[:, finite] - want[:, finite]), axis=-1)
    assert np.all(err <= 1e-12 * np.max(np.abs(want[:, finite]), axis=-1))
    assert np.array_equal(whole.view(np.float64), got[-1].view(np.float64), equal_nan=True)


def test_wick_stage_matches_wick_kernel_in_any_row_groups():
    # one stage, in place as the stepper runs it, against
    # back * _wick_on_grid(fwd * X, L) to rounding
    N, L, rows = 16, 72, 10
    rng = philox_stream(24)
    X = _complex_normal(rng, (rows, 2 * N + 1))
    fwd = propagator_phases(N, 0.3)
    back = 0.25j * np.conj(fwd)
    want = back * _wick_on_grid(fwd * X, L)
    dynamics._wick_stage(X, fwd, back, L, X, np.empty((rows, L)))
    assert np.max(np.abs(X - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "U0_shape, Z_shape, phi_len, match",
    [
        ((2, 5), (1, 4, 5), 5, r"^Z must have shape \(B, steps, 2N\+1\) for U0 of shape \(B, 2N\+1\), got Z \(1, 4, 5\) and U0 \(2, 5\)"),
        ((2, 5), (2, 4, 7), 5, r"^Z must have shape .*, got Z \(2, 4, 7\) and U0 \(2, 5\)"),
        ((5,), (1, 4, 5), 5, r"^Z must have shape .*, got Z \(1, 4, 5\) and U0 \(5,\)"),
        ((2, 5), (2, 4, 5), 1, r"^phi must have shape \(2N\+1,\) = \(5,\), got \(1,\)"),
    ],
)
def test_rk4ip_rejects_mismatched_shapes(monkeypatch, U0_shape, Z_shape, phi_len, match):
    # a one-row Z or a length-1 phi used to broadcast over every row, so the
    # rows shared one noise path; nothing is stepped before the check
    monkeypatch.setattr(dynamics, "_wick_stage", lambda *a, **k: pytest.fail("stepped"))
    with pytest.raises(ValueError, match=match):
        evolve_wick_rk4ip(np.zeros(U0_shape, dtype=complex), np.ones(phi_len), np.zeros(Z_shape, dtype=complex), 0.1, 1)
    # the guard is live: shapes that pass the check do reach the stage
    with pytest.raises(pytest.fail.Exception, match="stepped"):
        evolve_wick_rk4ip(np.zeros((2, 5), dtype=complex), np.ones(5), np.zeros((2, 1, 5), dtype=complex), 0.1, 1)


def test_rk4ip_five_smooth_grid_matches_power_of_two_grid(monkeypatch):
    # the ensemble stepper's 72-point kernel (N = 16) against the same evolution
    # with the kernel on alias_free_length's 128 points, at variance-test's scale
    N, steps, dt, rows = 16, 8, 1 / 256, 6
    rng = philox_stream(22)
    U0 = _complex_normal(rng, (rows, 2 * N + 1)) / np.sqrt(2.0)
    Z = _draw_increments(rng, (rows, steps, 2 * N + 1), dt)
    phi = np.linspace(0.5, 1.5, 2 * N + 1)
    got = evolve_wick_rk4ip(U0, phi, Z, dt, 2)
    monkeypatch.setattr(dynamics, "_five_smooth", lambda n: alias_free_length((n - 1) // 4))
    want = evolve_wick_rk4ip(U0, phi, Z, dt, 2)
    assert not np.array_equal(got, want)  # the two runs did use different grids
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# picard iteration


def _zero_psi(cfg):
    dim = 2 * cfg.cutoff + 1
    return Trajectory(cfg.grid(), np.zeros((cfg.steps + 1, dim), dtype=complex))


def test_picard_trivial_converges_first_iteration():
    cfg = SolverConfig(cutoff=3, dt=0.1 / 16, horizon=0.1)
    rep = picard_iterate(zero_field(3), _zero_psi(cfg), cfg)
    assert rep.converged
    assert rep.iterations == 1
    assert np.all(rep.solution.states == 0)


def test_picard_small_data_contracts():
    cfg = SolverConfig(cutoff=4, dt=0.1 / 16, horizon=0.1, picard_tolerance=1e-12)
    rep = picard_iterate(mode_field(4, 1, 0.1), _zero_psi(cfg), cfg)
    assert rep.converged
    assert max(rep.ratios) < 0.5
    assert rep.contraction_factor < 0.5


def test_picard_limit_matches_stepper():
    cfg = SolverConfig(
        cutoff=4, dt=0.1 / 16, horizon=0.1, picard_max_iters=40, picard_tolerance=1e-12
    )
    rep = picard_iterate(mode_field(4, 1, 0.1), _zero_psi(cfg), cfg)
    traj = solve(mode_field(4, 1, 0.1), None, cfg)
    sup = max(
        fl_norm(make_field(4, rep.solution.states[m] - traj.states[m]), 0.0, 2.0)
        for m in range(cfg.steps + 1)
    )
    assert sup <= 10 * max(cfg.dt, cfg.picard_tolerance)


def test_picard_non_contracting_diagnosed():
    u_big = make_field(4, np.array([0, 0, 0, 1.5, 1.5, 0, 0, 0, 0], dtype=complex))
    cfg = SolverConfig(cutoff=4, dt=1 / 32, horizon=0.5)
    rep = picard_iterate(u_big, _zero_psi(cfg), cfg)
    assert rep.non_contracting
    assert not rep.converged
    assert len(rep.ratios) >= 3 and all(r >= 1.0 for r in rep.ratios[-3:])


def test_picard_stops_at_first_non_finite_difference():
    # the cubic term overflows by the third iterate; numpy stays silent, the
    # loop stops there, and no ratio is taken against the non-finite difference
    cfg = SolverConfig(cutoff=8, dt=1 / 128, horizon=0.25, picard_max_iters=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = picard_iterate(make_field(8, np.full(17, 1e12 + 0j)), _zero_psi(cfg), cfg)
    assert rep.non_finite and not rep.converged and not rep.non_contracting
    assert rep.iterations == len(rep.differences) < cfg.picard_max_iters
    assert np.all(np.isfinite(rep.differences[:-1])) and not np.isfinite(rep.differences[-1])
    assert len(rep.ratios) == len(rep.differences) - 1


def _picard_oracle(u0, psi, cfg, params):
    """picard_iterate's loop as first written: the forcing, the Duhamel term,
    the new iterate and the difference each in an array of its own, and the
    propagator phases as one exp of i t n^2.  Returns the differences and
    the final iterate."""
    times = psi.times
    n2 = frequencies(u0.cutoff).astype(np.float64) ** 2
    lin = u0.coeffs[None, :] * np.exp(1j * np.multiply.outer(times, n2))
    cur = lin - 1j * psi.states
    diffs, bad_streak = [], 0
    for _ in range(cfg.picard_max_iters):
        forcing = wick_coeffs_block(cur)
        duh = discrete_duhamel(Trajectory(times, forcing))
        new = lin + 1j * duh.states - 1j * psi.states
        diff = xsb_norm(Trajectory(times, new - cur), params)
        diffs.append(diff)
        if len(diffs) >= 2:
            bad_streak = bad_streak + 1 if diffs[-2] > 0 and diff / diffs[-2] >= 1.0 else 0
        cur = new
        if not np.isfinite(diff) or diff < cfg.picard_tolerance or bad_streak >= 3:
            break
    return diffs, cur


def _noisy_picard_case(N, dt, iters):
    cfg = SolverConfig(cutoff=N, dt=dt, horizon=0.25, picard_max_iters=iters, picard_tolerance=1e-12)
    u0 = random_field(N, philox_stream(4), scale=0.05)
    psi = sample_convolution_path(bessel_operator(N, 0.75), cfg.grid(), philox_stream(5))
    return u0, psi, cfg, XsbParams(s=0.0, b=0.45, bprime=-0.1, p=2.0, q=2.0, T=0.25)


def test_picard_in_place_loop_matches_the_out_of_place_oracle():
    u0, psi, cfg, params = _noisy_picard_case(8, 1 / 64, 25)
    rep = picard_iterate(u0, psi, cfg, params)
    diffs, final = _picard_oracle(u0, psi, cfg, params)
    assert rep.converged and rep.iterations == len(diffs) > 3
    assert rep.differences == diffs
    assert np.array_equal(rep.solution.states, final)


def test_picard_peak_memory_is_a_few_trajectories():
    # psi, lin, cur and new across each norm, with the norm's own workspace
    # (w, the cached inverse phases and its padded buffer) beside them, and
    # the cached q = 2 operator built before any of them; nine trajectories
    # alive at once and the operator built on top read 11.8x psi
    u0, psi, cfg, params = _noisy_picard_case(32, 1 / 2048, 3)
    norms._xsb_circulant.cache_clear()
    norms._inverse_phases.cache_clear()
    _, peak = traced_peak(lambda: picard_iterate(u0, psi, cfg, params))
    assert peak < 10.5 * psi.states.nbytes


def test_picard_grid_mismatch():
    cfg = SolverConfig(cutoff=3, dt=1 / 32, horizon=0.5)
    bad = Trajectory(np.linspace(0, 0.25, cfg.steps + 1), np.zeros((cfg.steps + 1, 7), dtype=complex))
    with pytest.raises(ValueError):
        picard_iterate(zero_field(3), bad, cfg)

