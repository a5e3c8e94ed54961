import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickns import (
    SpectralField,
    field_from_csv,
    fl_norm,
    mode_field,
    operator_from_csv,
    philox_stream,
    zero_field,
)
from wickns.fields import _csv_text, _five_smooth, alias_free_length, frequencies, from_grid, propagator_phases, to_grid
from conftest import brute_convolve, fields_close, random_field

complex_lists = st.integers(min_value=0, max_value=8).flatmap(
    lambda N: st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=2 * N + 1,
        max_size=2 * N + 1,
    )
)


def test_make_field_single_mode():
    f = SpectralField(0, [1.0])
    assert f.coeffs[0] == 1.0
    assert f.cutoff == 0


def test_make_field_zero():
    f = SpectralField(1, [0, 0, 0])
    assert fields_close(f, zero_field(1))
    assert f.mass() == 0.0


def test_make_field_index_convention():
    f = SpectralField(1, [0, 1, 1])
    assert list(f.coeffs) == [0, 1, 1]  # frequencies -1, 0, 1


def test_make_field_length_mismatch():
    with pytest.raises(ValueError):
        SpectralField(2, [1.0, 2.0])


def test_make_field_rejects_nonfinite():
    with pytest.raises(ValueError):
        SpectralField(0, [np.nan])


def free_evolution(f: SpectralField, t) -> SpectralField:
    """S(t) f: the propagator's phases times the coefficients."""
    return SpectralField(f.cutoff, f.coeffs * propagator_phases(f.cutoff, t))


def test_propagator_zero_mode_fixed():
    f = mode_field(3, 0, 2.0 - 1.0j)
    g = free_evolution(f, 17.3)
    assert fields_close(g, f, 1e-15)


def test_propagator_unit_rotation():
    f = mode_field(2, 1, 1.0)
    g = free_evolution(f, np.pi)
    assert abs(g.coeffs[2 + 1] - (-1.0)) < 1e-14


def test_propagator_inverse_round_trip(rng):
    f = random_field(6, rng)
    g = free_evolution(free_evolution(f, 0.7), -0.7)
    assert fields_close(g, f, 1e-12)
    # an array of times gives one row per time; S(-t) is the conjugate
    times = np.linspace(0.0, 0.7, 5)
    rows = propagator_phases(6, times)
    assert rows.shape == (5, 13)
    for t, row in zip(times, rows):
        assert np.array_equal(row, propagator_phases(6, t))
    assert np.max(np.abs(np.conj(rows[-1]) * propagator_phases(6, 0.7) - 1.0)) < 1e-15


@given(complex_lists, st.floats(-20, 20), st.floats(-20, 20))
@settings(max_examples=60, deadline=None)
def test_propagator_unitary_and_group(coeffs, t1, t2):
    N = (len(coeffs) - 1) // 2
    f = SpectralField(N, coeffs)
    # unitarity of every FL norm
    g = free_evolution(f, t1)
    for s, p in [(0.0, 2.0), (0.5, 3.0), (-1.0, 1.5)]:
        a, b = fl_norm(f, s, p), fl_norm(g, s, p)
        assert abs(a - b) <= 1e-14 * max(1.0, a)
    # group law S(t1) S(t2) = S(t1 + t2)
    lhs = free_evolution(g, t2)
    rhs = free_evolution(f, t1 + t2)
    assert fields_close(lhs, rhs, 1e-12 * max(1.0, float(np.max(np.abs(f.coeffs)))))


def grid_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """The truncated product convolution h(n) = sum_k f(k) g(n-k), |n| <= N,
    as the grid kernels form it: pointwise on an alias-free grid."""
    L = alias_free_length(f.cutoff)
    return SpectralField(f.cutoff, from_grid(to_grid(f.coeffs, L) * to_grid(g.coeffs, L), f.cutoff))


def test_convolve_delta_identity():
    e0 = mode_field(3, 0, 1.0)
    assert fields_close(grid_product(e0, e0), e0)


def test_convolve_truncation_rule():
    e1 = mode_field(2, 1, 1.0)
    out = grid_product(e1, e1)
    assert fields_close(out, mode_field(2, 2, 1.0))
    e1_small = mode_field(1, 1, 1.0)
    assert fields_close(grid_product(e1_small, e1_small), zero_field(1))


def test_convolve_matches_brute_force(rng):
    f = random_field(8, rng)
    g = random_field(8, rng)
    assert fields_close(grid_product(f, g), brute_convolve(f, g), 1e-13)


@given(st.integers(0, 5), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_convolve_brute_force_property(N, seed):
    r = philox_stream(seed)
    f, g = random_field(N, r), random_field(N, r)
    got = grid_product(f, g)
    assert fields_close(got, brute_convolve(f, g), 1e-12)
    # commutativity
    assert fields_close(got, grid_product(g, f), 1e-12)


def test_evaluate_constant():
    vals = to_grid(mode_field(1, 0, 1.0).coeffs, 8)
    assert np.allclose(vals, 1.0)


def test_evaluate_zero():
    assert np.allclose(to_grid(zero_field(4).coeffs, 16), 0.0)


def test_evaluate_round_trip(rng):
    N = 6
    f = random_field(N, rng)
    vals = to_grid(f.coeffs, 4 * N)
    # forward transform on the same grid recovers the coefficients
    back = np.fft.fft(vals) / (4 * N)
    rec = np.concatenate([back[-N:], back[: N + 1]])
    assert np.max(np.abs(rec - f.coeffs)) < 1e-12
    assert np.max(np.abs(from_grid(vals, N) - f.coeffs)) < 1e-12


@pytest.mark.parametrize("N, L", [(0, 1), (1, 8), (3, 16), (16, 128), (40, 256)])
def test_grid_pair_matches_backward_normalized_forms(N, L):
    # on a power-of-two grid the forward-normalized transforms equal
    # ifft(spec) * L and fft(x) / L bit for bit, and from_grid leaves that
    # spectrum in its input
    rng = philox_stream(4)
    U = rng.standard_normal((6, 2 * N + 1)) + 1j * rng.standard_normal((6, 2 * N + 1))
    spec = np.zeros((6, L), dtype=np.complex128)
    spec[:, : N + 1] = U[:, N:]
    spec[:, L - N :] = U[:, :N]
    assert np.array_equal(to_grid(U, L), np.fft.ifft(spec) * L)
    x = to_grid(U, L)
    x *= np.abs(x) ** 2
    W = np.fft.fft(x) / L
    assert np.array_equal(from_grid(x, N), np.concatenate([W[:, L - N :], W[:, : N + 1]], axis=1))
    assert np.array_equal(x, W)


@pytest.mark.parametrize("L", [2 * 16 + 1, 72, 128])
def test_grid_mean_of_density_is_parseval_mass(L):
    # the ensemble stepper's Wick mass: on any grid of at least 2N+1 points
    # the mean of |u|^2 is sum |u_hat|^2, with no aliasing of the density
    N = 16
    rng = philox_stream(8)
    U = rng.standard_normal((6, 2 * N + 1)) + 1j * rng.standard_normal((6, 2 * N + 1))
    mean = np.mean(np.abs(to_grid(U, L)) ** 2, axis=1)
    mass = np.sum(np.abs(U) ** 2, axis=1)
    assert np.max(np.abs(mean - mass) / mass) <= 1e-14


def _is_five_smooth(n):
    for f in (2, 3, 5):
        while n % f == 0:
            n //= f
    return n == 1


def test_five_smooth_is_least_five_smooth_length():
    # n up to 2100 covers 2M + 1 = 2049 of the X^{s,b} circulant at M = 1024;
    # 2160 = 2^4 3^3 5 >= 2100 closes the list
    smooth = [m for m in range(1, 2161) if _is_five_smooth(m)]
    got = [_five_smooth(n) for n in range(1, 2101)]
    assert got == [next(m for m in smooth if m >= n) for n in range(1, 2101)]
    assert _five_smooth(4 * 16 + 1) == 72 < alias_free_length(16) == 128


def test_evaluate_grid_too_small():
    # on 2N points frequencies N and -N share a grid mode: to_grid used to
    # write one over the other and from_grid to read both from it, with no
    # error; 2N+1 points still round-trip
    rng = philox_stream(6)
    for N in (1, 3, 8):
        message = f"need at least {2 * N + 1} gridpoints to avoid aliasing, got {2 * N}"
        U = rng.standard_normal((2, 2 * N + 1)) + 1j * rng.standard_normal((2, 2 * N + 1))
        for call in (lambda: to_grid(mode_field(N, 0).coeffs, 2 * N), lambda: to_grid(U, 2 * N), lambda: from_grid(U[:, 1:], N)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message
        assert np.max(np.abs(from_grid(to_grid(U, 2 * N + 1), N) - U)) < 1e-12


def test_field_csv_round_trip(rng):
    # a table the one writer makes, as a datum file would hold it, re-reads bit for bit
    f = random_field(5, rng)
    text = _csv_text("n,re,im", [frequencies(f.cutoff).tolist(), f.coeffs.real.tolist(), f.coeffs.imag.tolist()])
    assert text.splitlines()[0] == "n,re,im"
    g = field_from_csv(text)
    assert g.cutoff == f.cutoff
    assert np.array_equal(g.coeffs, f.coeffs)


def test_csv_text_golden_bytes():
    # columns of plain values (str alone) and of mixed numpy values (_fmt) give one text
    plain = [[0.1, -3, 2.5], [-0.0, "", 7], [1e-300, True, 0.1]]
    mixed = [[0.1, np.int64(-3), 2.5], [np.float64(-0.0), "", 7], [1e-300, True, np.float32(0.1)]]
    assert _csv_text("a,b,c", plain) == "a,b,c\n0.1,-0.0,1e-300\n-3,,True\n2.5,7,0.1\n"
    assert _csv_text("a,b,c", mixed) == "a,b,c\n0.1,-0.0,1e-300\n-3,,True\n2.5,7,0.10000000149011612\n"
    assert _csv_text("a,b,c", [[], [], []]) == _csv_text("a,b,c", []) == "a,b,c\n"


@pytest.mark.parametrize(
    "reader, header, good",
    [
        (field_from_csv, "n,re,im", "0,1.0,0.0"),
        (operator_from_csv, "n,k,re,im", "0,0,1.0,0.0"),
    ],
)
def test_csv_readers_name_the_bad_line(reader, header, good):
    k = header.count(",") + 1
    short = good.rsplit(",", 1)[0]
    garbled = good.replace("1.0", "one")
    for text, msg in (
        (f"{header}\n{good}\n{short}\n", f"line 3: expected {k} fields {header}, got {k - 1}"),
        (f"\n\n{header}\n{short}\n", f"line 4: expected {k} fields {header}, got {k - 1}"),
        (f"{header}\n{good}\n{garbled}\n", f"line 3: cannot parse '{garbled}'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            reader(text)


def test_field_coeffs_read_only(rng):
    f = random_field(3, rng)
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


def test_mass_is_parseval_sum(rng):
    f = random_field(5, rng)
    assert abs(f.mass() - np.sum(np.abs(f.coeffs) ** 2)) < 1e-14
