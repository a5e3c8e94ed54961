import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import wickns
from wickns import (
    NoiseOperator,
    SolverConfig,
    Trajectory,
    bessel_operator,
    convolution_from_path,
    convolution_paths_block,
    discrete_duhamel,
    frequencies,
    identity_operator,
    make_field,
    make_grid,
    operator_from_csv,
    operator_to_csv,
    philox_stream,
    picard_iterate,
    sample_convolution_path,
    sample_white_noise_field,
    solve,
    trajectory_to_csv,
)
from wickns.fields import _csv_rows
from wickns.noise import (
    _CSV_BLOCK_ROWS,
    _DRAW_BUF,
    _complex_normal,
    _draw_buffer,
    _draw_increments,
    _fill_normal,
    _increment_blocks,
)
from conftest import traced_peak

PICARD_NOISE = pathlib.Path(__file__).resolve().parents[1] / "wickbench" / "workloads" / "picard_noise.csv"


# ---------------------------------------------------------------------------
# operators


def test_bessel_small_case():
    op = bessel_operator(1, 2.0)
    assert np.array_equal(op.multiplier, [0.5, 1.0, 0.5])


def test_bessel_high_mode_value():
    op = bessel_operator(64, 0.25)
    assert op.multiplier[-1] == (1.0 + 64**2) ** -0.125


def test_identity_operator_is_flat():
    op = identity_operator(6)
    assert np.array_equal(op.multiplier, np.ones(13))


def test_bessel_negative_alpha_amplifies():
    op = bessel_operator(4, -1.0)
    assert op.multiplier[-1] == np.sqrt(17.0)


def test_multiplier_row_l2():
    op = NoiseOperator(1, multiplier=[0.25, -1.0, 0.5])
    assert np.array_equal(op.row_l2(), [0.25, 1.0, 0.5])


def test_matrix_operator_row_l2_and_apply(rng):
    mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    op = NoiseOperator(2, matrix=mat)
    want = np.sqrt(np.sum(np.abs(mat) ** 2, axis=1))
    assert np.allclose(op.row_l2(), want, rtol=0, atol=1e-14)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.allclose(op.apply_to_vector(z), mat @ z, rtol=0, atol=1e-13)


def _dense_from_csv(text: str) -> np.ndarray:
    """The matrix a `n,k,re,im` table lists, zeros elsewhere."""
    rows = _csv_rows(text, "n,k,re,im", (int, int, float, float))
    N = max(n for n, *_ in rows)
    mat = np.zeros((2 * N + 1, 2 * N + 1), dtype=np.complex128)
    for n, k, re, im in rows:
        mat[n + N, k + N] = complex(re, im)
    return mat


@pytest.mark.parametrize("shape", [(129,), (1024, 129), (3, 64, 129)])
def test_real_diagonal_matrix_file_loads_as_multiplier_with_blas_bits(shape):
    # the picard_path workload's diagonal Bessel matrix, on increment-sized draws
    text = PICARD_NOISE.read_text()
    op, mat = operator_from_csv(text), _dense_from_csv(text)
    assert op.is_multiplier and np.array_equal(op.multiplier, np.diagonal(mat).real)
    z = _draw_increments(philox_stream(4, len(shape)), shape, 1 / 1024)
    assert np.array_equal(op.apply_to_vector(z), z @ mat.T)


def test_complex_diagonal_matrix_file_stays_a_matrix():
    # an elementwise product would not reproduce zgemm's bits here
    mat = np.diag(np.exp(1j * np.linspace(0.0, 1.0, 129)))
    op = operator_from_csv(operator_to_csv(NoiseOperator(64, matrix=mat)))
    assert not op.is_multiplier and np.array_equal(op.matrix, mat)


# wickns is imported before numpy, as the CLI does
_DENSE_PATHS_PROBE = """
import hashlib
from wickns import NoiseOperator, convolution_paths_block, make_grid, philox_stream
import numpy as np
rng = philox_stream(2024, 1)
matrix = (rng.standard_normal((129, 129)) + 1j * rng.standard_normal((129, 129))) / np.sqrt(129.0)
states = convolution_paths_block(NoiseOperator(64, matrix=matrix), make_grid(0.5, 32), philox_stream(2024, 2), 64)
print(hashlib.sha256(states.tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core starts no BLAS helper thread")
def test_dense_matrix_paths_bits_do_not_depend_on_the_blas_default():
    # a threaded zgemm of this size changes its last bits with the thread
    # count; the package's one-thread default makes an unset variable read as 1
    src = os.path.dirname(os.path.dirname(wickns.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    digests = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        run = subprocess.run([sys.executable, "-c", _DENSE_PATHS_PROBE], env={**env, **extra}, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert digests[0] == digests[1]


def test_operator_validation():
    with pytest.raises(ValueError):
        NoiseOperator(1)  # neither given
    with pytest.raises(ValueError):
        NoiseOperator(1, multiplier=np.ones(3), matrix=np.eye(3))
    with pytest.raises(ValueError):
        NoiseOperator(2, multiplier=np.ones(3))  # wrong length
    with pytest.raises(ValueError):
        NoiseOperator(1, multiplier=np.array([1.0, np.inf, 1.0]))
    with pytest.raises(ValueError):
        NoiseOperator(129, matrix=np.eye(259))  # matrix size cap


def test_operator_csv_multiplier():
    text = operator_to_csv(bessel_operator(1, 2.0))
    lines = text.strip().splitlines()
    assert lines[0] == "n,phi_n"
    assert lines[1] == "-1,0.5"
    assert lines[2] == "0,1.0"


def test_operator_csv_matrix_header():
    text = operator_to_csv(NoiseOperator(1, matrix=np.eye(3)))
    lines = text.strip().splitlines()
    assert lines[0] == "n,k,re,im"
    assert len(lines) == 1 + 9


def test_operator_csv_matrix_round_trip(rng):
    op = NoiseOperator(2, matrix=rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    back = operator_from_csv(operator_to_csv(op))
    assert back.cutoff == 2 and np.array_equal(back.matrix, op.matrix)
    # entries left out are zero, so a diagonal operator may list its diagonal only
    diag = operator_from_csv("n,k,re,im\n-1,-1,0.5,0.0\n0,0,1.0,0.0\n1,1,0.5,-0.25\n")
    assert np.array_equal(diag.matrix, np.diag([0.5, 1.0, 0.5 - 0.25j]))


def test_operator_csv_rejects_a_repeated_entry():
    # the later value used to overwrite the earlier one without a word
    with pytest.raises(ValueError, match=r"^entry n = 0, k = 0 is listed twice$"):
        operator_from_csv("n,k,re,im\n0,0,2.0,0.0\n0,0,5.0,0.0\n")


# ---------------------------------------------------------------------------
# streams and white noise


def test_philox_stream_reproducible():
    a = philox_stream(7, 3).standard_normal(8)
    b = philox_stream(7, 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_philox_stream_keys_disjoint():
    a = philox_stream(7, 0).standard_normal(8)
    b = philox_stream(7, 1).standard_normal(8)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("shape", [5, (3, 4), (2, 3, 7)])
def test_complex_normal_matches_two_block_draw(shape):
    # real block first, then the imaginary block, from one stream
    rng = philox_stream(8, 1)
    want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(_complex_normal(philox_stream(8, 1), shape), want)


@pytest.mark.parametrize("B, rows", [(1007, 500), (3, 500), (1000, 500), (7, 2)])
def test_increment_blocks_match_whole_draw(B, rows):
    # the same bits as one whole draw, and the stream left where that draw leaves it
    shape, dt = (B, 6, 5), 1 / 64
    rng, whole = philox_stream(8, 2), philox_stream(8, 2)
    blocks = list(_increment_blocks(rng, shape, dt, rows))
    want = _draw_increments(whole, shape, dt)
    slices = [r for r, _ in blocks]
    assert slices == [slice(lo, min(lo + rows, B)) for lo in range(0, B, rows)]
    assert np.array_equal(rng.standard_normal(4), whole.standard_normal(4))
    # one reused buffer: copy each block before asking for the next
    rng = philox_stream(8, 2)
    got = [z.copy() for _, z in _increment_blocks(rng, shape, dt, rows)]
    assert all(np.array_equal(z, want[r]) for r, z in zip(slices, got))
    assert all(np.shares_memory(z, blocks[0][1]) for _, z in blocks)


@pytest.mark.parametrize("shape", [(2 * _DRAW_BUF + 7,), (3, _DRAW_BUF + 5), (301, 16, 9)])
def test_fill_normal_matches_one_whole_draw(shape):
    # into the imaginary parts of a strided complex view, in rows that fit
    # the buffer, rows that do not, and a buffer count that is not whole
    block = np.zeros((*shape[:-1], shape[-1] + 2), dtype=np.complex128)
    dest = block[..., 1:-1].imag
    rng, whole = philox_stream(8, 3), philox_stream(8, 3)
    _fill_normal(rng, dest, _draw_buffer(dest.size))
    assert np.array_equal(dest, whole.standard_normal(shape))
    assert not block.real.any() and not block[..., [0, -1]].any()
    assert np.array_equal(rng.standard_normal(4), whole.standard_normal(4))
    # a discarded draw moves the stream as far
    _fill_normal(rng, dest.size, _draw_buffer(dest.size))
    whole.standard_normal(dest.size)
    assert np.array_equal(rng.standard_normal(4), whole.standard_normal(4))


def test_increment_blocks_peak_is_one_block():
    # the real and imaginary parts go through one bounded float buffer, so
    # the complex block is the only array of its size (24.2 MiB with a
    # block-sized float buffer beside it)
    shape, rows = (2500, 64, 33), 500

    def draw_all():
        for _ in _increment_blocks(philox_stream(8, 4), shape, 1 / 256, rows):
            pass

    _, peak = traced_peak(draw_all)
    assert peak < rows * math.prod(shape[1:]) * 16 + (1 << 20)


def test_white_noise_zero_variance():
    f = sample_white_noise_field(3, 0.0, philox_stream(0))
    assert f.mass() == 0.0


def test_white_noise_negative_variance():
    with pytest.raises(ValueError):
        sample_white_noise_field(3, -1.0, philox_stream(0))


def test_white_noise_moments():
    # E|g_n|^2 = 1 per mode, modes uncorrelated
    rng = philox_stream(11)
    block = np.stack(
        [sample_white_noise_field(2, 1.0, rng).coeffs for _ in range(100_000)]
    )
    second = np.mean(np.abs(block) ** 2, axis=0)
    assert second.min() > 0.99 and second.max() < 1.01
    cov = block.conj().T @ block / block.shape[0]
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.02


# ---------------------------------------------------------------------------
# increment paths and the convolution recursion


def _increments(grid, cutoff, seed):
    rng = philox_stream(seed)
    shape = (len(grid) - 1, 2 * cutoff + 1)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt((grid[1] - grid[0]) / 2.0)


def test_noise_path_shape_validation():
    # one increment row per step: a block as long as the grid is rejected
    with pytest.raises(ValueError, match="len\\(times\\)-1"):
        convolution_from_path(identity_operator(1), np.linspace(0, 1, 5), np.zeros((5, 3), dtype=complex))


def test_convolution_recursion_unrolled():
    op = bessel_operator(3, 0.5)
    grid = make_grid(0.5, 6)
    z = _increments(grid, 3, seed=9)
    traj = convolution_from_path(op, grid, z)
    ns = frequencies(3).astype(float)
    prop = np.exp(1j * (grid[1] - grid[0]) * ns**2)
    cur = np.zeros(7, dtype=complex)
    assert np.array_equal(traj.states[0], cur)
    for m in range(6):
        cur = prop * cur + op.multiplier * z[m]
        assert np.max(np.abs(traj.states[m + 1] - cur)) == 0.0


def test_convolution_width_mismatch():
    grid = make_grid(1.0, 4)
    z = _increments(grid, 3, seed=1)
    with pytest.raises(ValueError):
        convolution_from_path(bessel_operator(5, 1.0), grid, z)


def test_convolution_nonuniform_grid_rejected():
    times = np.array([0.0, 0.1, 0.5, 1.0])
    with pytest.raises(ValueError, match="uniform"):
        convolution_from_path(identity_operator(1), times, np.zeros((3, 3), dtype=complex))


def test_grid_halving_consistency():
    # Two fine steps compose into one coarse step with the combined increment
    # zeta' = exp(i delta n^2) zeta_{2m} + zeta_{2m+1}; trajectories agree on
    # the shared grid times.
    op = bessel_operator(4, 1.0)
    fine = make_grid(1.0, 16)
    z = _increments(fine, 4, seed=77)
    traj_fine = convolution_from_path(op, fine, z)
    ns = frequencies(4).astype(float)
    delta = fine[1] - fine[0]
    phase = np.exp(1j * delta * ns**2)
    combined = phase * z[0::2] + z[1::2]
    coarse = fine[::2]
    traj_coarse = convolution_from_path(op, coarse, combined)
    err = np.max(np.abs(traj_fine.states[::2] - traj_coarse.states))
    assert err < 1e-13


def test_block_matches_single_path():
    grid = make_grid(1.0, 10)
    mat = philox_stream(5).standard_normal((11, 11)) + 1j * philox_stream(6).standard_normal((11, 11))
    for op in (bessel_operator(5, 0.75), NoiseOperator(5, matrix=mat)):
        single = sample_convolution_path(op, grid, philox_stream(3, 1))
        block = convolution_paths_block(op, grid, philox_stream(3, 1), 1)
        assert np.array_equal(block[0], single.states)


def test_block_matrix_case_matches_multiplier():
    grid = make_grid(0.5, 4)
    mult = bessel_operator(2, 1.0)
    mat = NoiseOperator(2, matrix=np.diag(mult.multiplier))
    a = convolution_paths_block(mult, grid, philox_stream(8), 3)
    b = convolution_paths_block(mat, grid, philox_stream(8), 3)
    assert np.max(np.abs(a - b)) < 1e-14


def _paths_oracle(op, grid, rng, n_paths):
    """One whole real block, then one whole imaginary block, scaled, then
    the recursion step by step over a separate increment array."""
    dt = grid[1] - grid[0]
    shape = (n_paths, len(grid) - 1, 2 * op.cutoff + 1)
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(dt / 2.0)
    prop = np.exp(1j * dt * frequencies(op.cutoff).astype(float) ** 2)
    out = np.zeros((n_paths, len(grid), shape[2]), dtype=np.complex128)
    for m in range(len(grid) - 1):
        out[:, m + 1] = prop * out[:, m] + op.apply_to_vector(z[:, m])
    return out


@pytest.mark.parametrize("kind", ["bessel", "real diagonal", "dense complex"])
def test_paths_block_matches_whole_draw_and_step_loop(kind):
    # drawn and recursed in place, with the bits of a separate increment
    # block; 301 paths of 16 x 9 values fill the draw buffer 1.3 times
    N, grid = 4, make_grid(0.5, 16)
    rng = philox_stream(9, 1)
    ops = {
        "bessel": bessel_operator(N, 0.75),
        "real diagonal": NoiseOperator(N, matrix=np.diag(np.linspace(0.5, 1.5, 2 * N + 1))),
        "dense complex": NoiseOperator(N, matrix=_complex_normal(rng, (2 * N + 1, 2 * N + 1)) / 3.0),
    }
    op, paths = ops[kind], 301
    assert (paths * 16 * (2 * N + 1)) % _DRAW_BUF
    rng, whole = philox_stream(9, 2), philox_stream(9, 2)
    assert np.array_equal(convolution_paths_block(op, grid, rng, paths), _paths_oracle(op, grid, whole, paths))
    assert np.array_equal(rng.standard_normal(4), whole.standard_normal(4))


def test_paths_block_peak_is_about_its_output():
    # only the returned block is allocated: about 2.1x its size when the
    # increments and a float block of real parts lived beside it
    op, grid = bessel_operator(16, 0.75), make_grid(0.5, 32)
    convolution_paths_block(op, grid, philox_stream(3), 2)  # the propagator phases are built once
    states, peak = traced_peak(lambda: convolution_paths_block(op, grid, philox_stream(3), 500))
    assert peak < 1.2 * states.nbytes


def test_convolution_from_path_leaves_increments_unwritten():
    grid = make_grid(0.5, 6)
    z = _increments(grid, 3, seed=9)
    before = z.copy()
    traj = convolution_from_path(bessel_operator(3, 0.5), grid, z)
    assert np.array_equal(z, before) and z.flags.writeable
    assert not np.shares_memory(traj.states, z)


# ---------------------------------------------------------------------------
# variance law


# the exact second moment of psi_hat(t, n), per mode: t * sum_k |phi(e_k)(n)|^2


def test_convolution_variance_identity():
    law = 3.0 * identity_operator(7).row_l2() ** 2
    assert np.array_equal(law, np.full(15, 3.0))


def test_convolution_variance_bessel_closed_form():
    law = 2.0 * bessel_operator(8, 1.0).row_l2() ** 2
    assert abs(law[4 + 8] - 2.0 / 17.0) < 1e-15


def test_empirical_variance_bessel():
    # mode 4, alpha = 1, horizon 2: target 2/17 within 5%
    op = bessel_operator(8, 1.0)
    grid = make_grid(2.0, 8)
    states = convolution_paths_block(op, grid, philox_stream(22), 10_000)
    v = np.mean(np.abs(states[:, -1, 4 + 8]) ** 2)
    assert abs(v - 2.0 / 17.0) / (2.0 / 17.0) < 0.05


def test_empirical_variance_identity_band():
    op = identity_operator(8)
    grid = make_grid(1.0, 4)
    states = convolution_paths_block(op, grid, philox_stream(31), 10_000)
    ratios = np.mean(np.abs(states[:, -1, :]) ** 2, axis=0)
    assert ratios.min() > 0.94 and ratios.max() < 1.06


def test_path_continuity_exponent():
    # In the rotating frame the squared modulus of an increment scales like
    # the separation; the log-log slope over dyadic separations sits near 1.
    rng = philox_stream(808)
    op = bessel_operator(16, 1.0)
    grid = make_grid(1.0, 64)
    states = convolution_paths_block(op, grid, rng, 2000)
    ns = frequencies(16).astype(float)
    V = states * np.exp(-1j * grid[None, :, None] * ns[None, None, :] ** 2)
    dt = 1.0 / 64
    hs, ds = [], []
    for k in (1, 2, 4, 8, 16, 32):
        diffs = V[:, k:, :] - V[:, :-k, :]
        hs.append(k * dt)
        ds.append(np.mean(np.sum(np.abs(diffs) ** 2, axis=2)))
    slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
    assert 0.9 < slope < 1.1


# ---------------------------------------------------------------------------
# trajectories and serialization


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 4), dtype=complex))
    with pytest.raises(ValueError):
        Trajectory(np.array([1.0, 0.0]), np.zeros((2, 3), dtype=complex))


def test_trajectory_copies_the_callers_arrays():
    times, states = make_grid(1.0, 2), np.zeros((3, 3), dtype=complex)
    traj = Trajectory(times, states)
    times[1], states[1, 1] = 0.75, 5.0
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0]) and not traj.states.any()
    assert times.flags.writeable and states.flags.writeable
    assert not traj.states.flags.writeable and not traj.times.flags.writeable


def test_internal_trajectories_are_read_only():
    # each is built over an array its builder just made, kept, not copied
    op, cfg = bessel_operator(2, 0.5), SolverConfig(cutoff=2, dt=1 / 32, horizon=0.5)
    grid = cfg.grid()
    psi = sample_convolution_path(op, grid, philox_stream(4))
    u0 = make_field(2, 0.1 * _complex_normal(philox_stream(5), 5))
    built = [
        psi,
        convolution_from_path(op, grid, _increments(grid, 2, seed=3)),
        discrete_duhamel(psi),
        solve(u0, op, cfg, rng=philox_stream(6)),
        picard_iterate(u0, psi, cfg).solution,
    ]
    for traj in built:
        assert not traj.states.flags.writeable and not traj.times.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            traj.states[0, 0] = 1.0
    assert grid.flags.writeable  # times are copied, so the caller's grid keeps its flag


def _read_trajectory_csv(text: str) -> Trajectory:
    """trajectory_to_csv's table, joined, read back; each time lists -N..N in order."""
    t, n, re, im = (np.array(col) for col in zip(*_csv_rows(text, "t,n,re,im", (float, int, float, float))))
    dim = 2 * int(n.max()) + 1
    assert np.array_equal(n, np.tile(frequencies(dim // 2), len(n) // dim))
    assert np.array_equal(t, np.repeat(t[::dim], dim))
    return Trajectory(t[::dim], np.column_stack([re, im]).view(np.complex128).reshape(-1, dim))


def _grid_csv_oracle(header, outer, inner, values, outer_kind=float) -> str:
    """The grid tables row by row, one repr per cell."""
    rows = [
        f"{outer_kind(a)!r},{int(b)},{float(values[i, j].real)!r},{float(values[i, j].imag)!r}"
        for i, a in enumerate(outer)
        for j, b in enumerate(inner)
    ]
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("N", [0, 2, 64])
def test_grid_csv_matches_row_oracle(N):
    # awkward floats in both the time column and the values; each time and
    # frequency string is formatted once and repeated, and the rows are
    # formatted in blocks of whole times, so compare bytes on both sides of
    # a block boundary (N = 64: a matrix table of two blocks)
    odd = np.array([-0.0, 0.0, 1e-05, 1e16, 5e-324, -2.0, 3.0, 0.1, -1e-300, 1.5e308])
    dim = 2 * N + 1
    block = _CSV_BLOCK_ROWS // dim
    for count in (1, block - 1, block + 1, 1025):
        times = np.append(np.concatenate([[-0.0, 5e-324, 1e-05], 3.0 + np.arange(count) / 7])[: count - 1], 1e16)
        k = np.arange(count * dim)
        states = (odd[k % len(odd)] + 1j * odd[(3 * k + 1) % len(odd)]).reshape(count, dim)
        traj = Trajectory(times, states)
        text = "".join(trajectory_to_csv(traj))
        assert text == _grid_csv_oracle("t,n,re,im", times, frequencies(N), states)
        back = _read_trajectory_csv(text)
        assert back.times.tobytes() == times.tobytes()
        assert back.states.tobytes() == states.tobytes()

    k = np.arange(dim * dim)
    mat = (odd[k % len(odd)] - 1j * odd[(k + 4) % len(odd)]).reshape(dim, dim)
    op = NoiseOperator(N, matrix=mat)
    ns = frequencies(N)
    assert operator_to_csv(op) == _grid_csv_oracle("n,k,re,im", ns, ns, mat, outer_kind=int)
    assert operator_from_csv(operator_to_csv(op)).matrix.tobytes() == mat.tobytes()


def test_trajectory_csv_peak_memory_is_about_twice_its_text():
    # the rows are formatted a block at a time: the block texts and their
    # join are alive at once, one block's per-row strings besides (4.4x its
    # text when the whole table was formatted at once)
    rng = philox_stream(12)
    traj = Trajectory(make_grid(0.25, 1024), _complex_normal(rng, (1025, 129)))
    text, peak = traced_peak(lambda: "".join(trajectory_to_csv(traj)))
    assert peak < 2.2 * len(text)


def test_trajectory_csv_round_trip():
    grid = make_grid(0.25, 3)
    traj = sample_convolution_path(bessel_operator(2, 0.5), grid, philox_stream(6))
    text = "".join(trajectory_to_csv(traj))
    assert text.splitlines()[0] == "t,n,re,im"
    back = _read_trajectory_csv(text)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)


def test_make_grid_contract():
    g = make_grid(1.0, 4)
    assert np.array_equal(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        make_grid(0.0, 4)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)
