"""Golden + differential regression tests for the incremental SABRE.

The golden corpus (``golden_sabre.json``) was captured from the naive
rescoring implementation; the incremental rewrite must reproduce every swap
sequence, final layout, and routed gate stream bit-for-bit, with either
swap scorer (the numpy one for dense maps, the scalar one for sparse maps).
The differential test replays real routing runs and cross-checks each
scorer's delta-maintained candidate scores against a from-scratch naive
rescoring loop at every single swap decision.  A hypothesis differential
checks the extended-set broadcast and the scalar per-candidate routine
against the per-ext-pair loop the broadcast replaced, and the layout
search's output-free routes against emitting ones.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.decompose import lower_to_two_qubit
from repro.generators import qaoa_random
from repro.hardware import CouplingMap, RAAArchitecture, grid_coupling
from repro.transpile import Layout, route_with_sabre, sabre_layout, sabre_route
from repro.transpile import sabre
from repro.transpile.sabre import (
    EXTENDED_SET_SIZE,
    EXTENDED_SET_WEIGHT,
    SCALAR_SCORER_MAX_DEGREE,
    _IncrementalScorer,
    _ScalarScorer,
    _sorted_unique,
    _spread_layout,
    sabre_route as _sabre_route,
)

from .sabre_golden_corpus import (
    capture_all,
    full_cases,
    layout_cases,
    layout_fingerprint,
    load_golden,
    route_cases,
    route_fingerprint,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


#: ``SCALAR_SCORER_MAX_DEGREE`` values that force each scorer on every map
_FORCE = {"numpy": -1, "scalar": 1 << 30}
_SCORERS = {"numpy": _IncrementalScorer, "scalar": _ScalarScorer}


def _circulant(n, offsets):
    """``n`` qubits on a ring, each coupled to the ones *offsets* away."""
    return CouplingMap(n, {(i, (i + k) % n) for i in range(n) for k in offsets})


#: maps on either side of the degree gate: 40 and 41 neighbours per qubit
_GATE_MAPS = {
    "deg40": lambda: _circulant(48, range(1, 21)),
    "deg41": lambda: _circulant(48, [*range(1, 21), 24]),
}


@pytest.mark.parametrize("name", sorted(route_cases()))
def test_route_matches_golden(name, golden):
    circ_f, cm_f, seed, lay_f = route_cases()[name]
    circ, cm = circ_f(), cm_f()
    res = sabre_route(circ, cm, lay_f(circ.num_qubits, cm), seed=seed)
    assert route_fingerprint(res) == golden["route"][name]


@pytest.mark.parametrize("name", sorted(layout_cases()))
def test_layout_matches_golden(name, golden):
    circ_f, cm_f, iters, seed = layout_cases()[name]
    lay = sabre_layout(circ_f(), cm_f(), num_iterations=iters, seed=seed)
    assert layout_fingerprint(lay) == golden["layout"][name]


@pytest.mark.parametrize("name", sorted(full_cases()))
def test_full_pipeline_matches_golden(name, golden):
    circ_f, cm_f, iters, seed = full_cases()[name]
    res = route_with_sabre(circ_f(), cm_f(), layout_iterations=iters, seed=seed)
    assert route_fingerprint(res) == golden["full"][name]


def naive_scores(dist, l2p, decay, front_pairs, ext_pairs, candidates):
    """The pre-rewrite per-candidate rescoring loop, verbatim semantics.

    Copies the layout per decision and, for every candidate edge, applies
    the swap, re-sums every front/extended pair distance, and unswaps —
    the O(candidates x pairs) loop the incremental scorer replaced.
    """
    layout = {q: int(p) for q, p in enumerate(l2p) if p >= 0}
    scores = {}
    for p1, p2 in candidates:
        swapped = {}
        for q, p in layout.items():
            swapped[q] = p2 if p == p1 else p1 if p == p2 else p
        front_cost = 0.0
        for a, b in front_pairs:
            front_cost += dist[swapped[a], swapped[b]]
        front_cost /= len(front_pairs)
        ext_cost = 0.0
        if ext_pairs:
            for a, b in ext_pairs:
                ext_cost += dist[swapped[a], swapped[b]]
            ext_cost /= len(ext_pairs)
        scores[(p1, p2)] = max(decay[p1], decay[p2]) * (
            front_cost + EXTENDED_SET_WEIGHT * ext_cost
        )
    return scores


class TestDifferentialScores:
    """Incremental delta-updated scores == naive rescoring, every decision,
    with the scalar scorer forced on every map; the subclass forces the
    numpy one."""

    #: scorer forced on every map (a ``_FORCE`` key)
    force = "scalar"

    @pytest.fixture(autouse=True)
    def _force_scorer(self, monkeypatch):
        monkeypatch.setattr(sabre, "SCALAR_SCORER_MAX_DEGREE", _FORCE[self.force])

    def _run_with_audit(self, circuit, coupling, seed):
        decisions = {"count": 0}
        want_cls = _SCORERS[self.force]

        def audit(scorer, front_pairs, ext_pairs, l2p, decay):
            assert type(scorer) is want_cls
            dist = coupling.distance_matrix()
            scored = scorer.scored(decay)
            cand = [edge for edge, _ in scored]
            assert len(set(cand)) == len(cand)
            # Candidate set: every coupling edge touching a front qubit.
            active = {int(l2p[q]) for pair in front_pairs for q in pair}
            expected = {
                (min(p, nb), max(p, nb))
                for p in active
                for nb in coupling.neighbors(p)
            }
            assert set(cand) == expected
            want = naive_scores(dist, l2p, decay, front_pairs, ext_pairs, cand)
            for edge, g in scored:
                assert g == want[edge], f"score drift on edge {edge}"
            decisions["count"] += 1

        res = _sabre_route(
            circuit,
            coupling,
            Layout.trivial(circuit.num_qubits),
            seed=seed,
            _audit=audit,
        )
        assert decisions["count"] == res.num_swaps
        return res

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid(self, seed):
        circ = random_circuit(12, 6.0, 4.0, seed=seed)
        self._run_with_audit(circ, grid_coupling(4, 3), seed)

    def test_multipartite(self):
        circ = lower_to_two_qubit(qaoa_random(12, seed=12).without_directives())
        arch = RAAArchitecture.default(side=4, num_aods=2)
        cm = arch.multipartite_coupling([i % 3 for i in range(12)])
        self._run_with_audit(circ, cm, seed=7)

    def test_line_with_empty_extended_set(self):
        circ = QuantumCircuit(4).cx(0, 3)
        from repro.hardware import CouplingMap

        cm = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        res = self._run_with_audit(circ, cm, seed=0)
        assert res.num_swaps >= 2

    @pytest.mark.parametrize("name", sorted(_GATE_MAPS))
    def test_gate_maps(self, name):
        circ = random_circuit(48, 3.0, 4.0, seed=5)
        self._run_with_audit(circ, _GATE_MAPS[name](), seed=5)


class TestDifferentialScoresNumpy(TestDifferentialScores):
    force = "numpy"


def test_prebuilt_dag_reuse_matches_fresh():
    """Routing with a reset, reused DAG is identical to a fresh build."""
    from repro.circuits.dag import DAGCircuit

    circ = random_circuit(10, 6.0, 4.0, seed=4)
    cm = grid_coupling(4, 3)
    dag = DAGCircuit(circ)
    first = sabre_route(circ, cm, Layout.trivial(10), seed=3, dag=dag)
    again = sabre_route(circ, cm, Layout.trivial(10), seed=3, dag=dag)
    fresh = sabre_route(circ, cm, Layout.trivial(10), seed=3)
    assert route_fingerprint(first) == route_fingerprint(fresh)
    assert route_fingerprint(again) == route_fingerprint(fresh)


# -- extended-set deltas: one broadcast == the per-ext-pair loop ---------------


def loop_ext_delta(dist, pea, peb, hostext, s1, s2):
    """The per-ext-pair loop the broadcast replaced, verbatim semantics.

    For every extended-set pair, gathers the candidates that touch one of
    its physical endpoints and accumulates the pair's distance change.
    """
    d = np.zeros(len(s1), dtype=np.int64)
    if not len(pea):
        return d
    sub = np.flatnonzero(hostext[s1] | hostext[s2])
    if not len(sub):
        return d
    ss1, ss2 = s1[sub], s2[sub]
    acc = np.zeros(len(sub), dtype=np.int64)
    for k in range(len(pea)):
        u = int(pea[k])
        v = int(peb[k])
        t1u = ss1 == u
        t2u = ss2 == u
        t1v = ss1 == v
        t2v = ss2 == v
        touched = t1u | t2u | t1v | t2v
        if not touched.any():
            continue
        idx = np.flatnonzero(touched)
        a = np.where(t1u[idx], ss2[idx], np.where(t2u[idx], ss1[idx], u))
        b = np.where(t1v[idx], ss2[idx], np.where(t2v[idx], ss1[idx], v))
        acc[idx] += dist[a, b].astype(np.int64) - int(dist[u, v])
    d[sub] = acc
    return d


@st.composite
def ext_cases(draw):
    """``(num_physical, edges, l2p, ext_pairs)`` on a random coupling.

    Edges may leave the graph disconnected (sentinel distances); extended
    pairs may share qubits, repeat, or be absent altogether.
    """
    n = draw(st.integers(2, 9))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            unique=True,
            max_size=2 * n,
        )
    )
    num_logical = draw(st.integers(2, n))
    l2p = draw(st.permutations(range(n)))[:num_logical]
    pair = st.lists(
        st.integers(0, num_logical - 1), min_size=2, max_size=2, unique=True
    ).map(tuple)
    ext = draw(st.lists(pair, max_size=EXTENDED_SET_SIZE))
    return n, edges, l2p, ext


def _check_ext_delta(n, edges, l2p, ext):
    """Broadcast deltas == scalar deltas == loop deltas for every ordered
    physical pair."""
    scorer = _IncrementalScorer(CouplingMap(n, edges), np.array(l2p, np.int64))
    scorer.begin_epoch([(0, 1)], ext)
    s1, s2 = (a.ravel() for a in np.indices((n, n)))
    keep = s1 != s2
    s1, s2 = s1[keep], s2[keep]
    got = scorer._ext_delta(s1, s2)
    want = loop_ext_delta(
        scorer._dist, scorer._pea, scorer._peb, scorer._hostext, s1, s2
    )
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    scalar = _ScalarScorer(CouplingMap(n, edges), l2p)
    scalar.begin_epoch([(0, 1)], ext)
    pairs = list(zip(s1.tolist(), s2.tolist()))
    assert [scalar._ext_delta(a, b) for a, b in pairs] == want.tolist()
    return dict(zip(pairs, got.tolist()))


@settings(max_examples=150, deadline=None)
@given(ext_cases())
@example((4, [(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3], []))
@example((6, [(i, i + 1) for i in range(5)], [0, 1, 2, 3, 4, 5], [(0, 3)] * 3))
def test_ext_delta_broadcast_matches_loop(case):
    _check_ext_delta(*case)


def test_front_delta_scorers_match_naive():
    """Both scorers' front deltas == re-summed front distances, for every
    ordered physical pair, including a swap of one front pair's endpoints
    (which routing never scores: such a pair would already be executable)."""
    n, edges = 8, [(i, i + 1) for i in range(7)]
    front = [(1, 4), (2, 6)]
    cm = CouplingMap(n, edges)
    dist = cm.distance_matrix()
    vec = _IncrementalScorer(cm, np.arange(n))
    scalar = _ScalarScorer(cm, list(range(n)))
    for scorer in (vec, scalar):
        scorer.begin_epoch(front, [])
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    got = vec._front_delta(*(np.array(side) for side in zip(*pairs)))
    for (a, b), g in zip(pairs, got.tolist()):
        moved = {a: b, b: a}
        want = sum(
            int(dist[moved.get(u, u), moved.get(v, v)]) - int(dist[u, v])
            for u, v in front
        )
        assert g == want == scalar._front_delta(a, b), (a, b)


class TestExtDeltaCases:
    """The shapes the broadcast must get right, pinned by value."""

    line = [(i, i + 1) for i in range(7)]

    def test_candidate_swaps_both_endpoints_of_one_pair(self):
        deltas = _check_ext_delta(8, self.line, list(range(8)), [(1, 4)])
        # Exchanging a pair's endpoints keeps its distance.
        assert deltas[(1, 4)] == 0 and deltas[(4, 1)] == 0
        assert deltas[(1, 2)] == -1 and deltas[(4, 5)] == 1

    def test_pairs_sharing_qubits(self):
        deltas = _check_ext_delta(8, self.line, list(range(8)), [(0, 3), (3, 6)])
        # Moving the shared qubit 3 to 4 shortens one pair, stretches one.
        assert deltas[(3, 4)] == 0
        assert deltas[(0, 1)] == -1 and deltas[(5, 6)] == -1
        assert deltas[(3, 0)] == 3  # (0, 3) keeps 3, (3, 6) grows by 3

    def test_empty_extended_set(self):
        deltas = _check_ext_delta(8, self.line, list(range(8)), [])
        assert set(deltas.values()) == {0}

    def test_candidate_touching_no_ext_host(self):
        deltas = _check_ext_delta(8, self.line, list(range(8)), [(0, 2)])
        assert deltas[(5, 6)] == 0 and deltas[(4, 7)] == 0
        assert deltas[(2, 3)] == 1


# -- scorer choice: both scorers make the same swaps ----------------------------


def test_gate_maps_straddle_the_threshold():
    """The gate picks the scalar scorer up to the threshold degree and the
    numpy one above it."""
    picked = {}

    def audit(scorer, *state):
        picked.setdefault(name, type(scorer))

    circ = random_circuit(48, 3.0, 4.0, seed=5)
    for name, cm_f in _GATE_MAPS.items():
        _sabre_route(circ, cm_f(), Layout.trivial(48), seed=5, _audit=audit)
    assert _GATE_MAPS["deg40"]().max_degree() == SCALAR_SCORER_MAX_DEGREE
    assert _GATE_MAPS["deg41"]().max_degree() == SCALAR_SCORER_MAX_DEGREE + 1
    assert picked == {"deg40": _ScalarScorer, "deg41": _IncrementalScorer}


def _fingerprints():
    """Route, layout and full-pipeline fingerprint of every golden case,
    plus a route and a full pipeline on each side of the degree gate."""
    out = capture_all()
    circ = random_circuit(48, 3.0, 4.0, seed=5)
    for name, cm_f in sorted(_GATE_MAPS.items()):
        res = sabre_route(circ, cm_f(), Layout.trivial(48), seed=5)
        out["route"][name] = route_fingerprint(res)
        out["full"][name] = route_fingerprint(route_with_sabre(circ, cm_f(), seed=5))
    return out


def test_forced_scorers_match_golden_and_each_other(golden, monkeypatch):
    """Every golden case and both gate-side maps, once per forced scorer:
    identical fingerprints, and the golden ones unchanged."""
    runs = {}
    for which, limit in sorted(_FORCE.items()):
        monkeypatch.setattr(sabre, "SCALAR_SCORER_MAX_DEGREE", limit)
        runs[which] = _fingerprints()
    assert runs["numpy"] == runs["scalar"]
    for kind in ("route", "layout", "full"):
        for name, want in golden[kind].items():
            assert runs["scalar"][kind][name] == want, (kind, name)


# -- output-free layout-search routes ------------------------------------------


@pytest.mark.parametrize("name", sorted(route_cases()))
def test_route_without_output_keeps_final_layout(name, golden):
    circ_f, cm_f, seed, lay_f = route_cases()[name]
    circ, cm = circ_f(), cm_f()
    res = sabre_route(circ, cm, lay_f(circ.num_qubits, cm), seed=seed, _emit=False)
    want = golden["route"][name]
    assert route_fingerprint(res)["final_layout"] == want["final_layout"]
    assert res.num_swaps == want["num_swaps"]
    assert not res.circuit.gates and not res.swap_gate_indices


def _emitting_layout_search(circuit, coupling, num_iterations, seed):
    """``sabre_layout`` with every forward/backward route building output."""
    layout = _spread_layout(circuit.num_qubits, coupling, seed)
    forward, backward = circuit.without_directives(), circuit.reversed()
    for it in range(num_iterations):
        layout = sabre_route(forward, coupling, layout, seed=seed + 2 * it).final_layout
        layout = sabre_route(
            backward, coupling, layout, seed=seed + 2 * it + 1
        ).final_layout
    return layout


@pytest.mark.parametrize("name", sorted(layout_cases()) + sorted(full_cases()))
def test_layout_search_without_output_matches_emitting(name):
    cases = {**layout_cases(), **full_cases()}
    circ_f, cm_f, iters, seed = cases[name]
    circ, cm = circ_f(), cm_f()
    assert sabre_layout(circ, cm, num_iterations=iters, seed=seed).as_dict() == (
        _emitting_layout_search(circ, cm, iters, seed).as_dict()
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=40))
def test_sorted_unique_matches_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    got = _sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
