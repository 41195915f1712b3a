"""Atom-movement overhead models (Sec. IV, Eqs. 1-2).

Four multiplicative fidelity terms characterize movement:

* ``F_mov_heating`` — heating degrades each two-qubit gate in proportion to
  the pair's vibrational quantum number (Eq. 2);
* ``F_mov_loss`` — hot atoms escape the trap with an erf-model probability;
* ``F_mov_cooling`` — swapping an overheated AOD with a pre-cooled twin
  costs 2 CZ per atom;
* ``F_mov_deco`` — qubits decohere for the duration of every move.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from ..hardware.parameters import HardwareParams

# -- erf ----------------------------------------------------------------------
#
# A port of the Cephes ``ndtr.c`` erf/erfc that scipy.special.erf wraps.
# The coefficient tables, the Horner order of ``polevl``/``p1evl`` and the
# branch points are Cephes's own, so every result is bit-identical to
# scipy's.  ``math.erf`` is not: it differs by up to 3 ulp on roughly one
# input in ten, which would move the pinned fidelity goldens.

#: erf on |x| <= 1: x * T(x^2) / U(x^2)
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
#: erfc on 1 <= |x| < 8: exp(-x^2) * P(|x|) / Q(|x|)
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
#: erfc on |x| >= 8: exp(-x^2) * R(|x|) / S(|x|)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
#: ln(DBL_MAX): below -MAXLOG, exp(-x^2) underflows and erfc is 0
MAXLOG = 7.09782712893383996843e2


def _polevl(x, coef):
    """Cephes ``polevl``: ``coef[0] x^N + ... + coef[N]`` in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    """The error function, bit-identical to ``scipy.special.erf``."""
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -erf(-x)
    if x <= 1.0:
        z = x * x
        return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    # 1 - erfc(x), Cephes's erfc inlined for x > 1
    z = -x * x
    if z < -MAXLOG:
        return 1.0
    z = math.exp(z)
    if x < 8.0:
        y = (z * _polevl(x, _ERFC_P)) / _p1evl(x, _ERFC_Q)
    else:
        y = (z * _polevl(x, _ERFC_R)) / _p1evl(x, _ERFC_S)
    return 1.0 - y


def heating_gate_factor(n_vib: float, params: HardwareParams) -> float:
    """Per-gate heating fidelity factor: ``1 - lam * (1 - f2q) * n_vib``.

    Clamped at 0 — beyond that the gate is certainly lost.
    """
    val = 1.0 - params.lam * (1.0 - params.f_2q) * n_vib
    return max(val, 0.0)


def movement_heating_fidelity(
    gate_n_vibs: Sequence[float], params: HardwareParams
) -> float:
    """Eq. 2 over all executed 2Q gates.

    *gate_n_vibs* is typically a :class:`~repro.core.program.ProgramStore`
    n_vib column consumed as-is (no per-gate objects); the product runs in
    column order, which is gate execution order.
    """
    f = 1.0
    for nv in gate_n_vibs:
        f *= heating_gate_factor(nv, params)
    return f


def movement_heating_fidelity_arrays(
    chunks: Iterable[np.ndarray], params: HardwareParams
) -> float:
    """Eq. 2 over ``n_vib`` column arrays (the vectorized fast path).

    Bit-identical to :func:`movement_heating_fidelity` on the same values:
    the per-gate factor ``max(1 - (lam * (1 - f2q)) * n, 0)`` is computed
    elementwise in float64 (IEEE ops match the scalar path exactly), and
    the running product accumulates sequentially in column order.
    *chunks* lets a spilling store hand over one array per flushed
    segment without concatenating.
    """
    coef = params.lam * (1.0 - params.f_2q)
    f = 1.0
    for arr in chunks:
        factors = np.maximum(
            1.0 - coef * np.asarray(arr, dtype=np.float64), 0.0
        )
        for v in factors.tolist():
            f *= v
    return f


def atom_loss_probability(n_vib: float, params: HardwareParams) -> float:
    """Sec. IV loss model: ``1 - 0.5 (1 + erf((n_max - n) / sqrt(2 n)))``.

    Zero at ``n_vib = 0``; ~0.5 at ``n_vib = n_max``; approaches 1 beyond.
    """
    if n_vib <= 0.0:
        return 0.0
    z = (params.n_vib_max - n_vib) / math.sqrt(2.0 * n_vib)
    return 1.0 - 0.5 * (1.0 + erf(z))


def movement_loss_fidelity(
    move_n_vibs: Sequence[float], params: HardwareParams
) -> float:
    """Probability no atom is lost across all (atom, move) events."""
    f = 1.0
    for nv in move_n_vibs:
        f *= 1.0 - atom_loss_probability(nv, params)
    return f


def cooling_fidelity(num_cooling_cz: int, params: HardwareParams) -> float:
    """Fidelity cost of cooling swaps: ``f2q ** (2 * N_AOD)`` per event."""
    return params.f_2q**num_cooling_cz


def movement_decoherence_fidelity(
    num_moving_stages: int, num_qubits: int, params: HardwareParams
) -> float:
    """``prod_i exp(-N * T_mov / T1)`` over stages with movement."""
    exponent = -num_moving_stages * num_qubits * params.t_per_move / params.t1
    return math.exp(exponent)
