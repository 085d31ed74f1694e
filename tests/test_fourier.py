"""Fourier transforms of the equilibrium measures and power-law fitting."""

import math
import tracemalloc

import numpy as np
import pytest

import reference
from solenoidlab import fourier
from solenoidlab.circle_map import coefficient_table, linear_spec
from solenoidlab.fourier import decay_exponent, dyadic_frequencies, mu_hat, nu_hat
from solenoidlab.solenoid import push_forward
from solenoidlab.thermo import GridFunction, mme_potential, nodes, sample, solve_equilibrium
from test_differential import check


@pytest.fixture(scope="module")
def lin_eq():
    return solve_equilibrium(linear_spec(), mme_potential(1 << 14))


@pytest.fixture(scope="module")
def pert_eq():
    return solve_equilibrium(coefficient_table(5), mme_potential(1 << 14))


def test_nu_hat_at_zero(pert_eq):
    assert nu_hat(pert_eq, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_nu_hat_lebesgue_integer_frequencies(lin_eq):
    for k in (1, 2, 7, 100):
        val = nu_hat(lin_eq, 2.0 * math.pi * k)
        assert abs(val) < 1e-10


def test_nu_hat_modulus_bound(pert_eq):
    for t in (3.0, 50.0, 1234.5):
        assert abs(nu_hat(pert_eq, t)) <= 1.0 + 1e-10


def test_nu_hat_lebesgue_envelope(lin_eq):
    # |int e^{i t x} dx| = 2 |sin(t/2)| / t
    for t in (10.0, 100.0, 1000.0):
        want = 2.0 * abs(math.sin(t / 2.0)) / t
        assert abs(nu_hat(lin_eq, t)) == pytest.approx(want, abs=1e-8)


def test_nu_hat_grid_agreement(pert_eq):
    spec = pert_eq.spec
    mid = solve_equilibrium(spec, mme_potential(1 << 15))
    fine = solve_equilibrium(spec, mme_potential(1 << 16))
    for t in (100.0, 1000.0, 10000.0):
        assert abs(nu_hat(mid, t) - nu_hat(fine, t)) < 1e-8


def test_nu_hat_rejects_frequencies_whose_square_overflows(pert_eq):
    # the closed form divides by (i t)^2, finite up to t = sqrt(largest double) ~ 1.3408e154
    assert abs(nu_hat(pert_eq, 1.34e154)) <= 1.0 + 1e-10
    for t in (1.35e154, -1.35e154, math.inf, math.nan):
        with pytest.raises(ValueError):
            nu_hat(pert_eq, t)


def test_mu_hat_at_zero(pert_eq):
    val, err = mu_hat(pert_eq, (0.0, 0.0, 0.0), samples=2_000, seed=1)
    assert val == 1.0 + 0.0j
    assert err == 0.0


def test_mu_hat_matches_nu_hat_on_first_axis(pert_eq):
    for t in (10.0, 100.0):
        val, err = mu_hat(pert_eq, (t, 0.0, 0.0), samples=200_000, seed=5)
        ref = nu_hat(pert_eq, t)
        assert abs(val - ref) < 3.0 * err


def test_mu_hat_matches_nu_hat_on_the_holder_state():
    # mu projects onto nu along the fibers, so the angular marginal must be
    # nu's for any potential, not only mme's; a forward push of the draws
    # drifts toward the SRB measure here and misses by ~200 stderr
    psi = GridFunction(0.5 * np.sin(2 * np.pi * nodes(1 << 14)))
    eq = solve_equilibrium(coefficient_table(5), psi)
    xis = [(2.0 * math.pi * k, 0.0, 0.0) for k in (1, 2, 3)]
    for xi, (val, err) in zip(xis, mu_hat(eq, xis, samples=1_000_000)):
        assert abs(val - nu_hat(eq, xi[0])) < 3.0 * err, xi


def test_mu_hat_conjugate_symmetry(pert_eq):
    xi = (50.0, 3.0, -2.0)
    a, _ = mu_hat(pert_eq, xi, samples=5_000, seed=9)
    b, _ = mu_hat(pert_eq, tuple(-x for x in xi), samples=5_000, seed=9)
    assert a == pytest.approx(b.conjugate(), abs=1e-14)


def test_mu_hat_repeatability(pert_eq):
    a = mu_hat(pert_eq, (100.0, 1.0, 1.0), samples=5_000, seed=33)
    b = mu_hat(pert_eq, (100.0, 1.0, 1.0), samples=5_000, seed=33)
    assert a == b


def test_mu_hat_decays_in_tilted_unstable_direction(pert_eq):
    v = np.array([1.0, 0.7, 0.0])
    v /= np.linalg.norm(v)  # ~35 degrees off the angular axis
    low, err_low = mu_hat(pert_eq, tuple(10.0 * v), samples=200_000, seed=11)
    high, err_high = mu_hat(pert_eq, tuple(100.0 * v), samples=200_000, seed=11)
    assert abs(low) > 0.1
    assert abs(high) < 0.01
    assert abs(low) - abs(high) > 5.0 * (err_low + err_high)


def test_mu_hat_batch_matches_single_calls(pert_eq):
    xis = [(10.0, 0.0, 0.0), (50.0, 3.0, -2.0), (-7.0, 0.0, 40.0)]
    batch = mu_hat(pert_eq, xis, samples=5_000, seed=21)
    singles = [mu_hat(pert_eq, xi, samples=5_000, seed=21) for xi in xis]
    assert batch == singles  # bit for bit, value and stderr
    assert mu_hat(pert_eq, xis[:1], samples=5_000, seed=21) == singles[:1]
    assert mu_hat(pert_eq, np.zeros((0, 3)), samples=5_000) == []


def test_mu_hat_holds_one_frequency_at_a_time():
    # the draws and one complex array, which takes each row's phase and its
    # variance in place, about 24 bytes per draw; a phase array or var's real
    # temporary beside them adds 8 each, and a one-pass sample peaks at 64.8
    eq = solve_equilibrium(coefficient_table(5), mme_potential(1 << 12))
    samples = 1 << 18
    tracemalloc.start()
    try:
        mu_hat(eq, [(10.0, 0.0, 0.0), (-3.0, 0.0, 0.0)], samples=samples, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * samples


@pytest.mark.parametrize("samples", [1_000, 12_345, 1 << 17])
def test_mu_hat_matches_the_textbook_form_bit_for_bit(pert_eq, samples):
    # (-0.0, 0.0, 0.0) has phase -0.0, which 1j * phase turns into +0.0j
    rows = [(10.0, 0.0, 0.0), (-7.5, 0.0, 0.0), (1000.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0),
            (-0.0, -0.0, -0.0), (50.0, 3.0, -2.0), (-7.0, 0.0, 40.0), (-0.0, 2.0, -0.0)]
    for seed in (1, 2, 3):
        check("mu_hat", pert_eq, rows, samples, seed)


_PARTIAL = 3 * fourier._CHUNK + 777  # three whole chunks and a partial one


@pytest.mark.parametrize(
    "rows, samples",
    [
        ([(10.0, 0.0, 0.0), (100.0, 0.0, 0.0), (1000.0, 0.0, 0.0)], _PARTIAL),
        ([(10.0, 0.3, -0.2), (100.0, 0.0, 0.0), (1e3, 1.0, 2.0)], _PARTIAL),
        ([(10.0, 0.0, 0.0), (-7.0, 0.0, 40.0)], 12_345),  # below one chunk
    ],
)
def test_mu_hat_bits_do_not_follow_the_worker_count(pert_eq, monkeypatch, rows, samples):
    # every chunk takes its phase and exp, and every sum runs over the whole
    # array, whichever worker computes a chunk and however many run
    pushed = push_forward(pert_eq.spec, sample(pert_eq, samples, 4), fourier._FIBER_DEPTH)
    want = reference.mu_hat(pert_eq, rows, samples, 4, pushed)
    monkeypatch.setattr(fourier, "push_forward", lambda *args: pushed)  # the same push, once
    for workers in (1, 2, 3):
        monkeypatch.setattr(fourier, "_workers", lambda: workers)
        got = mu_hat(pert_eq, rows, samples=samples, seed=4)
        reference.same_bits(got, want)


def test_mu_hat_pool_is_capped_at_the_chunk_count_and_shut_down(pert_eq, monkeypatch):
    import concurrent.futures
    import threading

    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    threads = threading.active_count()
    for workers, samples in [(1, 4 * fourier._CHUNK), (3, fourier._CHUNK), (3, 2 * fourier._CHUNK + 1)]:
        monkeypatch.setattr(fourier, "_workers", lambda: workers)
        mu_hat(pert_eq, (10.0, 0.0, 0.0), samples=samples)
        assert threading.active_count() == threads  # every worker joined
    assert sizes == [3]  # one worker, or one chunk, runs inline


def test_mu_hat_pushes_the_fiber_only_when_a_frequency_reads_it(pert_eq, monkeypatch):
    def push(*args):
        raise AssertionError("the fiber was pushed")

    monkeypatch.setattr(fourier, "push_forward", push)
    mu_hat(pert_eq, (10.0, 0.0, 0.0), samples=2_000)
    mu_hat(pert_eq, [(10.0, 0.0, 0.0), (-3.0, -0.0, 0.0)], samples=2_000)
    for xi in [(10.0, 0.0, 1.0), [(10.0, 0.0, 0.0), (0.0, 2.0, 0.0)]]:
        with pytest.raises(AssertionError, match="fiber"):
            mu_hat(pert_eq, xi, samples=2_000)


def test_mu_hat_rejects_malformed_xi(pert_eq):
    for xi in [(1.0, 0.0), [[1.0, 0.0, 0.0, 0.0]], np.zeros((2, 2, 3))]:
        with pytest.raises(ValueError):
            mu_hat(pert_eq, xi, samples=2_000)


def test_mu_hat_rejects_shallow_depth(pert_eq, monkeypatch):
    # fiber rows are pushed a fixed 20 steps, within 2 * 4^-20 of the
    # attractor, so no caller can ask for a shallow push
    with pytest.raises(TypeError, match="depth"):
        mu_hat(pert_eq, (1.0, 0.0, 0.0), samples=2_000, depth=10)
    depths = []

    def push(spec, thetas, depth):
        depths.append(depth)
        return push_forward(spec, thetas, depth)

    monkeypatch.setattr(fourier, "push_forward", push)
    mu_hat(pert_eq, (1.0, 1.0, 0.0), samples=2_000)
    assert depths == [20]


def test_decay_exponent_pure_power_law():
    freqs = dyadic_frequencies()
    series = [(f, 1.0 / f) for f in freqs]
    fit = decay_exponent(series)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
    assert fit.stderr < 1e-12
    assert fit.n_used == len(freqs)


def test_decay_exponent_constant():
    freqs = dyadic_frequencies()
    fit = decay_exponent([(f, 0.5) for f in freqs])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_decay_exponent_validation():
    freqs = dyadic_frequencies(count=6)
    with pytest.raises(ValueError):
        decay_exponent([(f, 1.0) for f in freqs])  # too few points
    with pytest.raises(ValueError):
        decay_exponent([(f, 1.0) for f in np.linspace(10, 90, 9)])  # < 2 decades
    with pytest.raises(ValueError):
        decay_exponent([(f, 0.0) for f in dyadic_frequencies()])  # no positive modulus


def test_perturbed_mme_decay_experiment(pert_eq):
    spec = pert_eq.spec
    eq = solve_equilibrium(spec, mme_potential(1 << 17))
    freqs = dyadic_frequencies(100.0, 11)  # up to 102400 < 2 pi m / 8
    series = [(t, abs(nu_hat(eq, t))) for t in freqs]
    fit = decay_exponent(series)
    assert fit.exponent < -0.05
    assert fit.stderr < 0.5 * abs(fit.exponent)
