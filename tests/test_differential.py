"""Each fast kernel against its plainest form in reference.py, as one table.

A row names the fast kernel, its reference, a hypothesis strategy for the
arguments both take, and how the results are compared: bit for bit, or
within the tolerance the row states.  One test runs every row's strategy;
each kernel's fixed edge inputs (support edges and their nextafter
neighbours, +-0.0, NaN, plateau edges and ties) stay with its other tests,
each run through check(row, ...).
"""

import math
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import same_bits
from solenoidlab import circle_map, symbolic, thermo, twisted
from solenoidlab.circle_map import (
    BUMP_KINDS, _MAX_ORDER, _mod1, coefficient_table, f_eval, g_eval, linear_spec,
)
from solenoidlab.fourier import mu_hat
from solenoidlab.solenoid import push_forward
from solenoidlab.symbolic import apply_word, level_endpoints, preimage_tree
from solenoidlab.thermo import GridFunction, nodes, sample, srb_potential, transfer_matrix
from solenoidlab.twisted import ZetaTable, exp_sum, zeta_table


class Row(NamedTuple):
    fast: Callable
    ref: Callable
    inputs: st.SearchStrategy  # tuples of arguments for both
    compare: Callable = same_bits  # asserts that the two results agree
    examples: int = 10


def _check_matrix(got, want):
    # dtype and bits: tobytes differs on a -0.0 or a NaN payload that == misses
    assert got.shape == want.shape
    same_bits((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr))
    x = np.random.default_rng(got.shape[0]).standard_normal(got.shape[0])
    same_bits((got @ x, got.T @ x), (want @ x, want.T @ x))


def _check_cell(got, want):
    assert got[0].dtype == got[1].dtype == np.int32
    for g, w in zip(got[:2], want[:2]):
        assert np.shape(g) == np.shape(w) and np.array_equal(g, w)
    same_bits(got[2], want[2])


def _quietly(kernel):
    """kernel(spec, x), NumPy's invalid warning off where x holds +-inf (NaN mod 1)."""

    def run(spec, x):
        with np.errstate(invalid="ignore" if np.isinf(x).any() else np.geterr()["invalid"]):
            return kernel(spec, x)

    return run


def _tree_and_word(spec, cols, n, word):
    return (*preimage_tree(spec, cols, n), *apply_word(spec, word, cols))


def _by_the_all_points_solve(spec, cols, n, word):
    with mock.patch.object(symbolic, "_solve_branch", reference.solve_branch):
        return _tree_and_word(spec, cols, n, word)


def _sample_from(eq, r):
    """sample's draws on eq from the fractions r, which its generator hands out whole."""
    generator = SimpleNamespace(random=lambda count: r if count == r.size else None)
    with mock.patch.object(np.random, "default_rng", lambda seed: generator):
        return sample(eq, r.size, 0)


_KINDS = st.sampled_from(BUMP_KINDS)
_SYMBOLS = st.sampled_from((0, 1))
_SPEC_AND_ANGLES = st.builds(
    lambda n_max, kind, x, rows: (coefficient_table(n_max, kind), np.array(x * rows).reshape(rows, -1)),
    st.integers(1, _MAX_ORDER),
    _KINDS,
    # the lattice centres c_N, where a term's chi can be -0.0
    st.lists(st.floats(-2.0, 3.0) | st.floats(allow_infinity=True)
             | st.sampled_from([1.0 / (2.0**n - 1.0) for n in range(2, _MAX_ORDER + 1)]), min_size=1, max_size=24),
    st.integers(1, 3),
)
QUARTER = [0.0, -0.0, 0.25, -0.25, np.nextafter(0.25, 1.0), np.nextafter(-0.25, -1.0),
           np.nextafter(0.25, 0.0), 0.5, -0.5, 0.75, np.nan]
# an angle, or the image of a point inside the order-n bump, so one preimage sees g != 0
ANGLE = st.floats(0.0, 1.0) | st.builds(
    lambda kind, n, u: f_eval(coefficient_table(5, kind), 1.0 / (2.0**n - 1.0) + u * 8.0**-n)[0],
    _KINDS, st.integers(2, 5), st.floats(-0.5, 0.5),
)
CELL_EDGES = [-1e-300, -0.0, 0.0, 1.0, float(np.nextafter(1.0, 0.0)), 0.5, -0.25, 7.0 + 1e-9]
_CELL_X = st.floats(-2.0, 3.0) | st.sampled_from(CELL_EDGES)
_DISTINCT = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40)
_PICKS = st.lists(st.integers(0, 39), min_size=1, max_size=80)
_TABLES = st.lists(
    st.lists(st.floats(0.5, 2.0) | st.sampled_from((0.75, 1.0, 1.5)), min_size=1, max_size=30)
    .map(lambda values: ZetaTable(np.array(values))),
    min_size=1, max_size=3,
)
_FREQUENCY = st.sampled_from((0.0, -0.0, 10.0, -7.5, 1000.0, 3.0, -2.0)) | st.floats(-1e3, 1e3)


@st.composite
def _tree_inputs(draw):
    spec = coefficient_table(draw(st.sampled_from((1, 2, 5, 8, 18))), draw(_KINDS))
    cols = np.array([draw(ANGLE), 0.0, 0.5, 2.0 / 3.0, 1.0])
    return spec, cols, draw(st.integers(0, 7)), draw(st.lists(_SYMBOLS, max_size=12))


@st.composite
def _zeta_inputs(draw):
    n = draw(st.integers(1, 14))
    spec = coefficient_table(draw(st.sampled_from((1, 5, _MAX_ORDER))), draw(_KINDS))
    # zeta_table reads only the spec and the exponent of the equilibrium
    eq = SimpleNamespace(spec=spec, lyapunov=draw(st.sampled_from((0.0, 0.6931471805599453 - 2.5e-9))))
    return eq, tuple(draw(st.lists(_SYMBOLS, min_size=n + 1, max_size=n + 1))), n


@st.composite
def _transfer_inputs(draw):
    kind = draw(st.sampled_from(("exp", "smoothstep", "linear")))
    spec = linear_spec() if kind == "linear" else coefficient_table(5, kind)
    m = 1 << draw(st.integers(10, 12))
    pot = srb_potential(spec, m).values + draw(st.floats(-1.0, 1.0)) * np.sin(2 * np.pi * nodes(m))
    return spec, GridFunction(pot), draw(st.sampled_from((0.0, 100.0, 1e4, -1e4)) | st.floats(-1e5, 1e5))


@st.composite
def _interp_inputs(draw):
    values = np.array(draw(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0]),
                                    min_size=2, max_size=16)))
    x = np.array(draw(st.lists(_CELL_X, min_size=1, max_size=16)))
    return (values, *thermo._cell(x, values.size))


@st.composite
def _pair_count_inputs(draw):
    distinct, picks = draw(_DISTINCT), draw(_PICKS)
    vals = [distinct[i % len(distinct)] for i in picks]  # repeated picks are ties
    if draw(st.booleans()):
        return vals, [draw(st.floats(1e-12, 10.0))]
    # sigma at chosen gaps between two entries and one double either side of each
    pairs = draw(st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), min_size=1, max_size=3))
    gaps = [abs(vals[i % len(vals)] - vals[j % len(vals)]) for i, j in pairs]
    return vals, [s for gap in gaps for s in (np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf))
                  if s > 0.0]


@st.composite
def _exp_sum_inputs(draw):
    tables = draw(_TABLES)
    size = min(t.size for t in tables)
    tables = [ZetaTable(t.values[:size]) for t in tables]
    largest = math.prod(t.values.max() for t in tables)
    # phases up to 1e3 rad: past 1e4 rad, rounding the phase costs either path ~1e-13
    return draw(st.floats(1e-6, 1.0)) * 1e3 / largest, tables


ROWS = {
    "mod1": Row(lambda x: (_mod1(np.array([x])), _mod1(x)),
                lambda x: (np.array([x]) % 1.0, np.asarray(x) % 1.0),
                st.tuples(st.floats(allow_nan=False, allow_infinity=False)), examples=100),
    "g": Row(_quietly(g_eval), reference.g, _SPEC_AND_ANGLES, examples=100),
    "f": Row(_quietly(f_eval), reference.f, _SPEC_AND_ANGLES),
    "bump_chi": Row(circle_map.bump_chi, reference.bump_chi,
                    st.tuples(st.lists(st.floats(-1.0, 1.0) | st.sampled_from(QUARTER), max_size=24)
                              .map(np.array), _KINDS),
                    partial(same_bits, any_nan=True)),
    "exp_step": Row(circle_map._exp_step, reference.exp_step,
                    st.tuples(st.lists(st.floats() | st.just(-0.0), min_size=1, max_size=24).map(np.array)),
                    partial(same_bits, any_nan=True)),
    "lattice": Row(circle_map.verify_lattice, reference.lattice,
                   st.tuples(st.integers(2, 40), st.integers(2, 64)), np.testing.assert_equal),
    "push_forward": Row(push_forward, reference.walk,
                        st.tuples(st.builds(coefficient_table, st.integers(1, 8), _KINDS),
                                  st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50).map(np.array),
                                  st.integers(0, 20))),
    "branch_solve": Row(_tree_and_word, _by_the_all_points_solve, _tree_inputs(), examples=100),
    "level_tree": Row(lambda spec, n: [level_endpoints(spec, k) for k in range(n + 1)], reference.levels,
                      st.tuples(st.builds(coefficient_table, st.sampled_from((1, 3, 5, 8)), _KINDS),
                                st.integers(0, 16))),
    "zeta_table": Row(lambda eq, ctx, n: zeta_table(eq, ctx, n).values, reference.zeta_values,
                      _zeta_inputs()),
    "transfer_matrix": Row(transfer_matrix, reference.transfer_matrix, _transfer_inputs(), _check_matrix),
    "cell": Row(thermo._cell, reference.cell,
                st.tuples(_CELL_X | st.lists(_CELL_X, min_size=1, max_size=16).map(np.array),
                          st.sampled_from((1 << 10, 1 << 13, 1 << 17))),
                _check_cell),
    "interp_cells": Row(thermo._interp_cells, reference.interp, _interp_inputs(), examples=60),
    "sample": Row(_sample_from, reference.sample,
                  st.tuples(st.sampled_from(("mme", "srb", "sin", "flat")).map(reference.equilibrium),
                            st.builds(lambda seed, count: np.random.default_rng(seed).random(count),
                                      st.integers(0, 2**32 - 1), st.integers(1, 50_000))),
                  examples=40),
    "pair_counts": Row(twisted._pair_counts, reference.pair_counts, _pair_count_inputs(), examples=400),
    "product_distribution": Row(twisted._product_distribution, reference.product_distribution,
                                st.tuples(_TABLES)),
    "exp_sum": Row(lambda eta, tables: exp_sum([eta], tables).moduli[0], reference.exp_sum,
                   _exp_sum_inputs(), partial(np.testing.assert_allclose, rtol=0, atol=1e-13)),
    "mu_hat": Row(mu_hat, reference.mu_hat,
                  st.tuples(st.just("mme").map(reference.equilibrium),
                            st.lists(st.tuples(_FREQUENCY, _FREQUENCY, _FREQUENCY), min_size=1, max_size=4),
                            st.integers(1_000, 20_000), st.integers(0, 2**32 - 1)),
                  examples=5),
}


def check(name, *args):
    """Row name's fast kernel and reference on args, compared as the row states."""
    row = ROWS[name]
    row.compare(row.fast(*args), row.ref(*args))


@pytest.mark.parametrize("name", ROWS)
def test_fast_kernel_matches_its_reference(name):
    @settings(max_examples=ROWS[name].examples)
    @given(ROWS[name].inputs)
    def each(args):
        check(name, *args)

    each()
