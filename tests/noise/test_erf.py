"""The Cephes erf port against scipy, alone and inside the loss term of
compiled programs.

The port exists so the compile path can drop scipy while every pinned
fidelity stays bit-identical; these tests hold it to the bit, not to a
tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import CompileOptions, atomique_result
from repro.generators import bernstein_vazirani, qaoa_random, qsim_random
from repro.hardware.parameters import neutral_atom_params
from repro.noise import movement_loss_fidelity
from repro.noise.movement_noise import MAXLOG, erf

scipy_special = pytest.importorskip("scipy.special")

#: ±0, the |x| = 1 and |x| = 8 branch points and their neighbours, the
#: exp(-x^2) underflow cut at sqrt(MAXLOG) ~ 26.64, a subnormal, ±inf, nan
EDGES = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    math.nextafter(1.0, 2.0),
    math.nextafter(1.0, 0.0),
    8.0,
    -8.0,
    math.nextafter(8.0, 0.0),
    math.sqrt(MAXLOG),
    -math.sqrt(MAXLOG),
    math.nextafter(math.sqrt(MAXLOG), math.inf),
    26.64,
    -26.64,
    5e-324,
    -5e-324,
    math.inf,
    -math.inf,
    math.nan,
]


def bits(values):
    """float64 bit patterns, with every nan mapped to one pattern."""
    arr = np.array(values, dtype=np.float64)
    arr[np.isnan(arr)] = np.nan
    return arr.view(np.int64).tolist()


def test_pinned_edges_match_scipy():
    expected = bits(scipy_special.erf(np.array(EDGES)))
    assert bits([erf(x) for x in EDGES]) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=64))
def test_any_float_matches_scipy(xs):
    expected = bits(scipy_special.erf(np.array(xs, dtype=np.float64)))
    assert bits([erf(x) for x in xs]) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-30.0, max_value=30.0), max_size=64))
def test_working_range_matches_scipy(xs):
    """Uniform floats rarely land in [-30, 30], where the branches are."""
    expected = bits(scipy_special.erf(np.array(xs, dtype=np.float64)))
    assert bits([erf(x) for x in xs]) == expected


def test_dense_seeded_sample_matches_scipy():
    """Last-bit slips (numpy's SIMD exp instead of libm's, say) hit about
    one input in a thousand, below what the hypothesis runs reliably see."""
    rng = np.random.default_rng(14)
    xs = np.concatenate(
        [rng.uniform(-6.0, 6.0, 100_000), rng.uniform(-27.0, 27.0, 50_000)]
    )
    expected = bits(scipy_special.erf(xs))
    assert bits([erf(x) for x in xs.tolist()]) == expected


def scipy_loss_fidelity(log, params):
    """The loss term as it was computed with ``scipy.special.erf``."""
    f = 1.0
    for nv in log:
        if nv <= 0.0:
            loss = 0.0
        else:
            z = (params.n_vib_max - nv) / math.sqrt(2.0 * nv)
            loss = 1.0 - 0.5 * (1.0 + float(scipy_special.erf(z)))
        f *= 1.0 - loss
    return f


@pytest.mark.parametrize(
    "circuit",
    [qaoa_random(24, seed=5), qsim_random(20, seed=2), bernstein_vazirani(30)],
    ids=lambda c: c.name,
)
def test_loss_fidelity_matches_scipy_on_compiled_programs(circuit):
    params = neutral_atom_params()
    log = atomique_result(circuit, CompileOptions()).program.atom_loss_log
    assert log  # the program moved atoms, so the term is exercised
    got = movement_loss_fidelity(log, params)
    assert bits([got]) == bits([scipy_loss_fidelity(log, params)])


def test_loss_fidelity_edge_entries():
    params = neutral_atom_params()
    log = [0.0, -1.0, 1e-300, params.n_vib_max, 1e6, 7, math.nan, 30.0]
    got = movement_loss_fidelity(log, params)
    assert bits([got]) == bits([scipy_loss_fidelity(log, params)])
    assert movement_loss_fidelity([], params) == 1.0
