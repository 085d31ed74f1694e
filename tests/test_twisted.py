"""Twisted-operator profiles, phase tables, pair counts, exponential sums."""

import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from reference import pair_counts, same_bits
from solenoidlab import twisted
from solenoidlab.circle_map import BUMP_KINDS, _MAX_ORDER, coefficient_table, linear_spec
from solenoidlab.symbolic import apply_word, index_word, preimage_tree
from solenoidlab.thermo import mme_potential, solve_equilibrium
from solenoidlab.twisted import (
    ZetaTable,
    concentration_report,
    exp_sum,
    nonconcentration_count,
    table_scale,
    twisted_norm_profile,
    zeta_table,
)
from test_differential import check


@pytest.fixture(scope="module")
def pert_eq():
    return solve_equilibrium(coefficient_table(5), mme_potential(1 << 14))


@pytest.fixture(scope="module")
def lin_eq():
    return solve_equilibrium(linear_spec(), mme_potential(1 << 12))


def _table(values):
    return ZetaTable(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# twisted norms
# ---------------------------------------------------------------------------

def test_profile_t0_is_one(pert_eq):
    prof = twisted_norm_profile(pert_eq, 0.0, 30)
    assert np.max(np.abs(prof - 1.0)) < 1e-8


def test_profile_linear_constant_for_any_t(lin_eq):
    for t in (5.0, 100.0, 777.0):
        prof = twisted_norm_profile(lin_eq, t, 40)
        assert np.max(np.abs(prof - 1.0)) < 1e-12
        slope = np.polyfit(np.arange(1, 41), np.log(prof), 1)[0]
        assert abs(slope) < 1e-12


def test_profile_perturbed_decreases(pert_eq):
    prof = twisted_norm_profile(pert_eq, 100.0, 80)
    slope = np.polyfit(np.arange(1, 81), np.log(prof), 1)[0]
    assert slope < 0.0
    assert prof[-1] < prof[0]


def test_profile_perturbed_strong_contraction_at_high_frequency(pert_eq):
    prof = twisted_norm_profile(pert_eq, 1e4, 80)
    slope = np.polyfit(np.arange(1, 81), np.log(prof), 1)[0]
    assert slope < -5e-3
    assert prof[-1] < 0.6


# ---------------------------------------------------------------------------
# zeta tables
# ---------------------------------------------------------------------------

def test_zeta_linear_all_ones(lin_eq):
    tab = zeta_table(lin_eq, (0, 1, 1, 0, 1), 4)
    assert tab.size == 1 << 5
    assert np.max(np.abs(tab.values - 1.0)) < 1e-12


def test_zeta_matches_word_composition(pert_eq):
    n = 4
    ctx = (1, 0, 0, 1, 1)
    tab = zeta_table(pert_eq, ctx, n)
    spec = pert_eq.spec
    fixed = {0: 0.0, 1: 1.0}
    rng = np.random.default_rng(6)
    for idx in rng.integers(0, tab.size, size=8):
        b = index_word(int(idx), n + 1)
        word = ctx[:-1] + b[:-1]
        _, deriv = apply_word(spec, word, fixed[b[-1]])
        want = math.exp(2.0 * pert_eq.lyapunov * n) * deriv
        assert tab.values[idx] == pytest.approx(want, rel=1e-12)


def test_zeta_values_positive_and_near_one(pert_eq):
    tab = zeta_table(pert_eq, (0, 1) * 5 + (0,), 10)
    assert tab.values.min() > 0.9
    assert tab.values.max() < 1.1
    assert tab.size == 1 << 11


def test_zeta_context_length_validation(pert_eq):
    with pytest.raises(ValueError):
        zeta_table(pert_eq, (0, 1, 0), 4)


def test_zeta_values_cached_read_only_and_equal_to_a_fresh_build(pert_eq):
    ctx = (0, 1) * 6 + (0,)
    first = zeta_table(pert_eq, ctx, 12)
    again = zeta_table(pert_eq, list(ctx), 12)
    assert again.values is first.values
    assert twisted._zeta_values.cache_info()[:2] == (1, 1)  # hits, misses
    with pytest.raises(ValueError):
        first.values[0] = 1.0
    twisted._zeta_values.cache_clear()
    rebuilt = zeta_table(pert_eq, ctx, 12)
    assert rebuilt.values is not first.values
    same_bits(rebuilt.values, first.values)


def test_zeta_table_follows_spec_lyapunov_context_and_n(pert_eq):
    ctx, n = (0, 1) * 3 + (0,), 6
    base = zeta_table(pert_eq, ctx, n).values.tobytes()
    changes = {
        "spec": (dataclasses.replace(pert_eq, spec=coefficient_table(5, "smoothstep")), ctx, n),
        "lyapunov": (dataclasses.replace(pert_eq, lyapunov=pert_eq.lyapunov * (1 + 2**-40)), ctx, n),
        "context": (pert_eq, (1, 0) * 3 + (1,), n),
        "n": (pert_eq, ctx + (1,), n + 1),
    }
    for name, (eq, ctx_, n_) in changes.items():
        got = zeta_table(eq, ctx_, n_).values
        same_bits(got, twisted._zeta_values.__wrapped__(eq.spec, eq.lyapunov, ctx_, n_))
        # a memo that ignored this argument would have handed back the base table
        assert got.tobytes() != base, name
        assert zeta_table(pert_eq, ctx, n).values.tobytes() == base, name
    assert twisted._zeta_values.cache_info().hits == 0


def test_profile_step_validation(pert_eq):
    with pytest.raises(ValueError):
        twisted_norm_profile(pert_eq, 1.0, 300)
    with pytest.raises(ValueError):
        nonconcentration_count(_table([1.0, 2.0]), 0.0)


# ---------------------------------------------------------------------------
# pair counting
# ---------------------------------------------------------------------------

def test_count_all_equal_table():
    tab = _table(np.ones(50))
    for sigma in (1e-8, 0.3, 2.0):
        assert nonconcentration_count(tab, sigma) == 2500


def test_count_sigma_covers_spread():
    tab = _table([1.0, 1.4, 2.0])
    assert nonconcentration_count(tab, 1.0) == 9


def test_count_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(2, 400))
        vals = rng.random(n) * rng.choice([1e-3, 1.0, 5.0])
        # duplicate some entries to stress tie handling
        vals[rng.integers(0, n, size=n // 3)] = vals[0]
        check("pair_counts", vals, [float(rng.choice([1e-6, 1e-3, 0.05, 0.5]))])


def test_property_count_matches_brute_force():
    # the pair_counts row draws these inputs; here its two fixed cases:
    # |1.1 - 1.0| rounds to 0.10000000000000009 > 0.1, yet 1.0 + 0.1 rounds up to 1.1
    check("pair_counts", [1.0, 1.1], [0.1])
    check("pair_counts", [1.0, 2.0], [1.0 - 2.0**-53])


_ROUND_UP_GAP = 1.1 - 1.0  # 0.10000000000000009: 1.0 + 0.1 rounds to 1.1, yet 1.1 - 1.0 > 0.1


@pytest.mark.parametrize("sigma", [
    0.1, np.nextafter(0.1, 0.0), np.nextafter(0.1, 1.0),
    _ROUND_UP_GAP, np.nextafter(_ROUND_UP_GAP, 0.0), np.nextafter(_ROUND_UP_GAP, 1.0),
])
def test_counts_step_past_a_2000_entry_atom_at_the_bound(sigma):
    # at sigma = 0.1 the rounded bound 1.0 + sigma takes the whole atom at 1.1
    # into the pairs of every 1.0 row, and the exact judge takes it back out
    vals = np.r_[np.full(7, 1.0), np.full(2000, 1.1), 0.9, 1.25]
    check("pair_counts", np.random.default_rng(4).permutation(vals), [sigma])


def test_concentration_report_sorts_the_table_once(monkeypatch):
    sorts = []
    real_sort = np.sort
    monkeypatch.setattr(np, "sort", lambda a, *args, **kwargs: sorts.append(np.size(a)) or real_sort(a, *args, **kwargs))
    tab = _table(np.round(np.random.default_rng(3).random(4096), 3))  # ties in every block
    rep = concentration_report(tab, np.logspace(-4, -1, 10))
    assert sorts == [4096]
    monkeypatch.undo()
    assert list(rep.counts) == pair_counts(tab.values, rep.sigma_list)


def test_count_monotone_in_sigma(pert_eq):
    tab = zeta_table(pert_eq, (0, 1, 0, 1, 0, 1, 0, 1, 0), 8)
    sigmas = np.logspace(-6, -1, 12)
    counts = [nonconcentration_count(tab, s) for s in sigmas]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == tab.size**2


def test_concentration_report_positive_gamma(pert_eq):
    tab = zeta_table(pert_eq, (0, 1) * 6 + (0,), 12)
    rep = concentration_report(tab, np.logspace(-4, -1, 10))
    assert rep.gamma_emp > 0.0
    assert rep.N == tab.size
    assert all(c <= rep.N**2 for c in rep.counts)


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def test_exp_sum_all_ones():
    tab = _table(np.ones(32))
    etas = (0.1, 1.0, 17.0)
    assert exp_sum(etas, [tab]).moduli == pytest.approx([1.0] * 3, abs=1e-12)
    assert exp_sum(etas, [tab, tab, tab]).moduli == pytest.approx([1.0] * 3, abs=1e-10)


def test_exp_sum_geometric_sum_closed_form():
    n = 64
    tab = _table(np.arange(n) * 2.0 * np.pi / n)
    (got,) = exp_sum([1.0], [tab]).moduli
    # |sum_{b<n} e^{i 2 pi b / n}| = 0 exactly
    assert got == pytest.approx(0.0, abs=1e-12)


def test_exp_sum_k1_matches_direct():
    check("exp_sum", 3.7, [_table(1.0 + 0.01 * np.random.default_rng(21).random(100))])


def test_exp_sum_k2_matches_double_loop():
    rng = np.random.default_rng(12)
    check("exp_sum", 11.3, [_table(1.0 + 0.05 * rng.random(40)) for _ in range(2)])


def test_exp_sum_k3_fold_matches_triple_loop():
    rng = np.random.default_rng(13)
    check("exp_sum", 7.9, [_table(1.0 + 0.1 * rng.random(24)) for _ in range(3)])


def test_exp_sum_permutation_invariant():
    rng = np.random.default_rng(44)
    vals = 1.0 + 0.02 * rng.random(64)
    shuf = vals.copy()
    rng.shuffle(shuf)
    assert exp_sum([5.0], [_table(vals), _table(vals)]).moduli == pytest.approx(
        exp_sum([5.0], [_table(shuf), _table(shuf)]).moduli, abs=1e-12
    )


def test_exp_sum_bounded(pert_eq):
    tab = zeta_table(pert_eq, (1, 0) * 4 + (1,), 8)
    for val in exp_sum(np.geomspace(3.0, 300.0, 6), [tab, tab]).moduli:
        assert 0.0 <= val <= 1.0 + 1e-12


def test_exp_sum_decreasing_trend_over_jn(pert_eq):
    n = 10
    tab = zeta_table(pert_eq, (0, 1) * 5 + (0,), n)
    eps0 = 0.3
    etas = np.geomspace(np.exp(eps0 * n / 2), np.exp(2 * eps0 * n), 10)
    mods = exp_sum(etas, [tab, tab]).moduli
    slope = np.polyfit(np.log(etas), np.log(mods), 1)[0]
    assert slope < 0.0


def test_product_distribution_folds_from_the_empty_product(pert_eq):
    assert [list(a) for a in twisted._product_distribution([])] == [[1.0], [1.0]]
    rng = np.random.default_rng(5)
    distinct = 1.0 + 0.05 * rng.random(40)
    random_tables = [_table(np.concatenate([distinct, rng.choice(distinct, 30)])) for _ in range(3)]
    tab = zeta_table(pert_eq, (1, 0) * 4 + (1,), 8)
    for tables in (random_tables[:2], random_tables, [tab, tab]):
        check("product_distribution", tables)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_expansion_matches_exact_reference(k):
    rng = np.random.default_rng(71 + k)
    compared = []
    for spread in (1e-3, 0.05, 2.0):
        tables = []
        for _ in range(k):
            distinct = 1.0 + spread * rng.random(40)
            tables.append(_table(np.concatenate([distinct, rng.choice(distinct, 20)])))
        v, _ = twisted._product_distribution(tables[:-1])
        half_w = np.ptp(tables[-1].values) / 2
        half_v = max(np.ptp(v) / 2, half_w)  # k = 1 has the one value 1.0
        for bound in (1e-6, 1e-3, 0.5, 3.0, 40.0, 1e3):  # B of the unbanded sum
            eta = bound / (half_v * half_w)
            # past phases eta v w of 1e4 rad, rounding the phase costs either
            # path ~1e-13; the mpmath test covers that range
            if eta * v.max() * tables[-1].values.max() > 1e4:
                continue
            check("exp_sum", eta, tables)
            compared.append((bound, eta, tables))
    # spread 2 reaches B = 1e3, which splits the values into many bands
    bound, eta, tables = compared[-1]
    assert min(c[0] for c in compared) == 1e-6 and bound == 1e3
    report = exp_sum([eta], tables)
    assert report.max_cross_bound <= 1.0 + 1e-12
    assert report.terms >= 40 or k == 1


@pytest.mark.parametrize("fold_limit", [twisted._FOLD_LIMIT, 150_000])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("etas_per_call", [1, 2])
def test_banded_exp_sum_equals_whole_block(monkeypatch, etas_per_call, k, fold_limit):
    rng = np.random.default_rng(71)
    tables = []
    for _ in range(k):
        distinct = 1.0 + 0.05 * rng.random(150)
        tables.append(_table(np.concatenate([distinct, rng.choice(distinct, 50)])))
    etas = (3.0, 47.0, 910.0, 5000.0)  # 5000 splits the values into several bands at k >= 2
    default = exp_sum(etas, tables).moduli
    if (etas_per_call, fold_limit) == (1, twisted._FOLD_LIMIT):
        for eta in etas:  # the other cases give these sums bit for bit
            check("exp_sum", eta, tables)
    monkeypatch.setattr(twisted, "_FOLD_LIMIT", fold_limit)
    calls = [etas[i : i + etas_per_call] for i in range(0, len(etas), etas_per_call)]
    split = [m for part in calls for m in exp_sum(part, tables).moduli]
    for got, before in zip(split, default):
        assert got == before  # neither the split of the eta list nor the fold limit reaches a sum
    if k > 1:
        values, _ = twisted._product_distribution(tables[:-1])
        assert len(list(twisted._bands(etas[-1], values, np.ptp(tables[-1].values) / 2))) > 1


def test_twisted_starts_no_threads():
    # exp_sum runs on the calling thread, so no thread count can reach its
    # sums; a pool brought back here needs a test that the sums do not
    # depend on the thread count.
    imported = set()
    for node in ast.walk(ast.parse(Path(twisted.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names}
    assert not {name.split(".")[0] for name in imported} & {"solenoid", "threading", "concurrent"}


def test_expansion_matches_mpmath_on_default_table(pert_eq):
    tab = zeta_table(pert_eq, (0, 1) * 6 + (0,), 12)  # the CLI's default table
    sub = _table(np.random.default_rng(8).choice(tab.values, 128, replace=False))
    vals, cnt = np.unique(sub.values, return_counts=True)
    with mpmath.workdps(40):
        for eta in (5e2, 1e4, 3e5, 3e6, 3e7):  # 3e7 spans several bands
            ref = mpmath.fsum(
                int(ca * cb) * mpmath.expj(mpmath.mpf(eta) * mpmath.mpf(a) * mpmath.mpf(b))
                for a, ca in zip(vals.tolist(), cnt) for b, cb in zip(vals.tolist(), cnt)
            )
            want = float(abs(ref) / 128**2)
            assert abs(exp_sum([eta], [sub, sub]).moduli[0] - want) <= 1e-14, eta


def test_exp_sum_memory_and_extreme_eta(pert_eq):
    tab = zeta_table(pert_eq, (0, 1) * 6 + (0,), 12)
    eta = math.exp(2.0 * 0.26 * 12)  # the CLI's largest default eta
    tracemalloc.start()
    try:
        exp_sum([eta], [tab, tab])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # the N x M phase block would be ~60 MB
    # past every distinct value's spacing each value is its own band, with B = 0
    report = exp_sum([1e30], [tab, tab])
    assert 0.0 <= report.moduli[0] <= 1.0
    assert (report.terms, report.max_cross_bound) == (np.unique(tab.values).size, 0.0)


def test_exp_sum_rejects_non_finite_eta():
    tab = _table(np.ones(4))
    for eta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            exp_sum([1.0, eta], [tab, tab])


def test_table_scale_linear_and_ties(lin_eq):
    scale = table_scale(zeta_table(lin_eq, (0, 1, 1, 0, 1), 4))
    assert (scale.spread, scale.distinct, scale.largest_atom, scale.tie_floor) == (0.0, 1, 1.0, 1.0)
    scale = table_scale(_table([2.0, 1.0, 2.0, 3.0]))
    assert (scale.spread, scale.distinct, scale.largest_atom, scale.tie_floor) == (2.0, 3, 0.5, 0.375)


# ---------------------------------------------------------------------------
# the phase table's x = 1 column read from the x = 0 tree
# ---------------------------------------------------------------------------

_COLUMN_SPECS = [
    pytest.param(kind, n_max, id=f"{kind}-{n_max}")
    for kind in BUMP_KINDS
    for n_max in (1, 5, _MAX_ORDER)
]


@pytest.mark.parametrize("kind, n_max", _COLUMN_SPECS)
def test_the_x1_column_is_the_x0_column_moved_up_one_row(kind, n_max):
    # g_0(1) and g_1(0) solve the same equation 2y + g(y) = 1, g_1 fixes 1,
    # and f'(1) = f'(0) = 2
    spec = coefficient_table(n_max, kind)
    for n in range(1, 14):
        y, deriv = preimage_tree(spec, [0.0, 1.0], n)
        for col, last in ((y, 1.0), (deriv, deriv[0, 0])):
            same_bits(col[:-1, 1], col[1:, 0])
            same_bits(col[-1, 1], np.float64(last))


@pytest.mark.parametrize("kind, n_max", _COLUMN_SPECS)
def test_zeta_table_matches_the_two_column_build_byte_for_byte(kind, n_max, monkeypatch):
    spec = coefficient_table(n_max, kind)
    eq = SimpleNamespace(spec=spec, lyapunov=0.6931471805599453 - 2.5e-9)
    rng = np.random.default_rng(n_max)
    composed = []
    real = twisted._compose
    monkeypatch.setattr(
        twisted, "_compose", lambda s, w, y, d: composed.append((y.copy(), d.copy())) or real(s, w, y, d)
    )
    for n in (1, 2, 5, 12, 14, 9):
        ctx = tuple(int(s) for s in rng.integers(0, 2, n + 1))
        check("zeta_table", eq, ctx, n)
        # the context continues the two-column tree's points and derivatives
        same_bits(composed.pop(0), tuple(a.ravel() for a in preimage_tree(spec, [0.0, 1.0], n)))


def test_the_phase_table_lets_its_anchor_columns_go():
    # with the x = 0 tree built, the table's peak is the composition of its
    # 2^13 entries: 125.5 bytes an entry when the anchor columns go with the
    # first context symbol, 141.5 while the builder still holds them (the
    # two-column tree built in place peaked at 142.4)
    spec = coefficient_table(5)
    ctx = (0, 1) * 6 + (0,)
    twisted._zeta_values.__wrapped__(spec, 0.69, ctx, 12)  # builds the tree and g's terms
    tracemalloc.start()
    try:
        twisted._zeta_values.__wrapped__(spec, 0.69, ctx, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (1 << 13) <= 130.0
