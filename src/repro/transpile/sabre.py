"""SABRE qubit mapping and routing (Li, Ding, Xie — ASPLOS 2019).

This is the SWAP-insertion engine used by every baseline in the paper
("All baselines are using Qiskit Optimization Level 3 with SABRE") and by
Atomique itself for intra-array conflicts on the complete multipartite
coupling graph (Sec. III-A, Fig. 5).

The implementation follows the published algorithm:

* the *front layer* holds 2Q gates with no unexecuted predecessors;
* executable gates (physically adjacent endpoints) are flushed greedily;
* otherwise the swap candidate set is every coupling edge touching a qubit
  of the front layer, scored by the sum of front-layer distances plus a
  weighted *extended set* lookahead, with a decay factor discouraging
  thrashing on recently swapped qubits;
* the initial layout is refined by forward/backward passes over the circuit
  (the "reverse traversal" trick from the paper).

Scoring is *incremental* (:class:`_IncrementalScorer`): front and extended
pair costs are running integer sums, each candidate edge carries the exact
integer cost *delta* its swap would cause, and a committed swap only
refreshes the deltas of candidates touching the swapped qubits (or the
partners of pairs they host).  Extended-set deltas come from one
candidates x ext-pairs broadcast, in which a pair the swap leaves alone adds
exactly 0.  All bookkeeping is integer-exact, so the floating-point scores —
and therefore the chosen swap sequence — are bit-identical to the naive
rescoring loop (pinned by the golden corpus in
``tests/transpile/golden_sabre.json`` and a per-decision differential test).
On sparse maps (maximum degree up to :data:`SCALAR_SCORER_MAX_DEGREE`: the
heavy-hex and FAA baselines, and Atomique's maps for circuits of up to ~50
qubits) :class:`_ScalarScorer` keeps the same deltas in Python lists and
dicts, which beats numpy's per-call overhead on small candidate sets; which
scorer runs depends on the coupling map alone, and both make the same swaps.
Layout-search routes run the same loop without building an output circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import DAGCircuit
from ..circuits.gates import Gate
from ..hardware.coupling import CouplingMap
from .layout import Layout

EXTENDED_SET_SIZE = 20
EXTENDED_SET_WEIGHT = 0.5
DECAY_INCREMENT = 0.001
DECAY_RESET_INTERVAL = 5
#: coupling maps of at most this maximum degree route with the pure-Python
#: :class:`_ScalarScorer`, denser ones with the numpy
#: :class:`_IncrementalScorer`.  Replaying Atomique's own routes, scalar is
#: faster up to degree ~38 and numpy from ~42-50 on (docs/ARCHITECTURE.md,
#: "Incremental SABRE"); the benchmark maps have degree 3-29 or 47-138
SCALAR_SCORER_MAX_DEGREE = 40


@dataclass
class SabreResult:
    """Output of a SABRE routing run.

    Attributes
    ----------
    circuit:
        Routed circuit on *physical* qubits; inserted SWAPs carry the name
        ``"swap"`` and can be counted/decomposed downstream.
    initial_layout / final_layout:
        Logical->physical maps before and after routing.
    num_swaps:
        Number of inserted SWAP gates.
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int = 0
    swap_gate_indices: list[int] = field(default_factory=list)


def _extended_set(dag: DAGCircuit, front: set[int], limit: int) -> list[int]:
    """Successor 2Q gates of the front layer, up to *limit* entries."""
    successors = dag.successors
    two_qubit = dag.two_qubit
    out: list[int] = []
    seen: set[int] = set()
    queue = sorted(front)
    qi = 0
    while qi < len(queue) and len(out) < limit:
        node = queue[qi]
        qi += 1
        for succ in successors[node]:
            if succ in seen:
                continue
            seen.add(succ)
            if two_qubit[succ]:
                out.append(succ)
                if len(out) >= limit:
                    break
            queue.append(succ)
    return out


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for a 1-D int array: sort, drop adjacent repeats.

    Same output, under half the cost at SABRE's sizes, and it does not
    load ``numpy.ma`` (numpy 2.x's ``np.unique`` imports it on first use,
    which would land inside a cold worker's first compile)."""
    s = np.sort(values)
    if len(s) < 2:
        return s
    first = np.empty(len(s), dtype=bool)
    first[0] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


class _IncrementalScorer:
    """Delta-scored swap candidates over numpy index arrays.

    One instance lives for the duration of a :func:`sabre_route` call and
    owns the logical<->physical position arrays.  The candidate set is the
    coupling edges touching a physical qubit of the front layer; each
    candidate stores the *integer* change its swap would make to the summed
    front / extended-set distances.  Because front-layer gates are pairwise
    qubit-disjoint, every active physical qubit has exactly one front
    partner, which makes the front delta a handful of vectorized distance
    gathers; extended-set pairs may share qubits, so their delta maps both
    endpoints of every pair through every candidate's swap in one
    broadcast and sums the distance changes per candidate.

    An *epoch* spans the decisions between two front-layer changes:
    :meth:`begin_epoch` rebuilds the pair structures and scores every
    candidate, :meth:`commit` applies a chosen swap and refreshes only the
    candidates whose cost that swap could have moved.
    """

    def __init__(self, coupling: CouplingMap, l2p: list[int] | np.ndarray) -> None:
        self._dist = coupling.distance_matrix()
        self._nbrs = coupling.neighbor_lists()
        n = coupling.num_qubits
        self._n = n
        self.l2p = l2p = np.asarray(l2p, dtype=np.int64)
        self._p2l = np.full(n, -1, dtype=np.int64)
        present = l2p >= 0
        self._p2l[l2p[present]] = np.flatnonzero(present)
        #: physical -> its single front partner's physical position (or -1)
        self._partner = np.full(n, -1, dtype=np.int64)
        #: physical hosts a front-layer qubit
        self._active = np.zeros(n, dtype=bool)
        #: physical hosts an extended-set pair endpoint
        self._hostext = np.zeros(n, dtype=bool)
        #: scratch flags for the affected-candidate mask
        self._aff = np.zeros(n, dtype=bool)
        #: per-physical-qubit candidate edge codes (min*n + max), lazy
        self._edge_codes: list[np.ndarray | None] = [None] * n
        self._E = 0
        self._F = 0

    # -- helpers ---------------------------------------------------------------

    def _codes_for(self, p: int) -> np.ndarray:
        codes = self._edge_codes[p]
        if codes is None:
            nb = self._nbrs[p]
            codes = np.where(nb < p, nb * self._n + p, p * self._n + nb)
            codes.sort()
            self._edge_codes[p] = codes
        return codes

    def _front_delta(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """Exact integer front-cost change of swapping each ``(s1, s2)``."""
        dist = self._dist
        part1 = self._partner[s1]
        part2 = self._partner[s2]
        d = np.zeros(len(s1), dtype=np.int64)
        m = part1 >= 0
        if m.any():
            d[m] = dist[s2[m], part1[m]].astype(np.int64) - dist[s1[m], part1[m]]
        m = part2 >= 0
        if m.any():
            d[m] += dist[s1[m], part2[m]].astype(np.int64) - dist[s2[m], part2[m]]
        # A candidate swapping the two endpoints of one front pair leaves its
        # distance unchanged; the two one-sided terms double-subtracted it.
        m = part1 == s2
        if m.any():
            d[m] += 2 * dist[s1[m], s2[m]].astype(np.int64)
        return d

    def _ext_delta(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """Exact integer extended-set cost change per candidate swap, as one
        candidates x ext-pairs broadcast (an untouched pair adds exactly 0)."""
        d = np.zeros(len(s1), dtype=np.int64)
        if not self._E:
            return d
        sub = np.flatnonzero(self._hostext[s1] | self._hostext[s2])
        if not len(sub):
            return d
        ss1, ss2 = s1[sub, None], s2[sub, None]
        u, v = self._pea[None, :], self._peb[None, :]
        a = np.where(ss1 == u, ss2, np.where(ss2 == u, ss1, u))
        b = np.where(ss1 == v, ss2, np.where(ss2 == v, ss1, v))
        dist = self._dist
        d[sub] = (dist[a, b] - dist[u, v]).sum(axis=1, dtype=np.int64)
        return d

    # -- epoch lifecycle -------------------------------------------------------

    def begin_epoch(
        self,
        front_pairs: list[tuple[int, ...]],
        ext_pairs: list[tuple[int, ...]],
    ) -> None:
        """Rebuild pair structures and score every candidate from scratch."""
        n = self._n
        l2p = self.l2p
        fa = np.fromiter((p[0] for p in front_pairs), np.int64, len(front_pairs))
        fb = np.fromiter((p[1] for p in front_pairs), np.int64, len(front_pairs))
        self._pfa = l2p[fa]
        self._pfb = l2p[fb]
        self._F = len(front_pairs)
        self._E = len(ext_pairs)
        if ext_pairs:
            ea = np.fromiter((p[0] for p in ext_pairs), np.int64, len(ext_pairs))
            eb = np.fromiter((p[1] for p in ext_pairs), np.int64, len(ext_pairs))
            self._pea = l2p[ea]
            self._peb = l2p[eb]
        else:
            self._pea = self._peb = np.empty(0, dtype=np.int64)

        self._partner.fill(-1)
        self._partner[self._pfa] = self._pfb
        self._partner[self._pfb] = self._pfa
        self._active.fill(False)
        self._active[self._pfa] = True
        self._active[self._pfb] = True
        self._hostext.fill(False)
        if self._E:
            self._hostext[self._pea] = True
            self._hostext[self._peb] = True

        dist = self._dist
        self._base_front = int(dist[self._pfa, self._pfb].astype(np.int64).sum())
        self._base_ext = (
            int(dist[self._pea, self._peb].astype(np.int64).sum()) if self._E else 0
        )

        act = _sorted_unique(np.concatenate([self._pfa, self._pfb]))
        codes = _sorted_unique(
            np.concatenate([self._codes_for(int(p)) for p in act])
        )
        self._codes = codes
        self._cp1 = codes // n
        self._cp2 = codes % n
        self._dfront = self._front_delta(self._cp1, self._cp2)
        self._dext = self._ext_delta(self._cp1, self._cp2)

    def scores(self, decay: np.ndarray) -> np.ndarray:
        """Float scores of every candidate, identical to the naive formula."""
        front_cost = (self._base_front + self._dfront) / self._F
        if self._E:
            total = front_cost + EXTENDED_SET_WEIGHT * (
                (self._base_ext + self._dext) / self._E
            )
        else:
            total = front_cost
        return np.maximum(decay[self._cp1], decay[self._cp2]) * total

    def fresh_decay(self) -> np.ndarray:
        return np.ones(self._n)

    def scored(self, decay: np.ndarray) -> list[tuple[tuple[int, int], float]]:
        """``((p1, p2), score)`` for every candidate (the ``_audit`` view)."""
        edges = zip(self._cp1.tolist(), self._cp2.tolist())
        return list(zip(edges, self.scores(decay).tolist()))

    def select(self, decay: np.ndarray, rng: np.random.Generator) -> int:
        """Pick the candidate index SABRE-style (min score, seeded ties)."""
        sc = self.scores(decay)
        best = sc.min()
        ties = np.flatnonzero(sc <= best + 1e-12)
        if len(ties) > 1:
            order = np.lexsort((self._cp2[ties], self._cp1[ties], sc[ties]))
            ties = ties[order]
        # The naive loop draws once per decision even for a single tie;
        # keep the rng stream identical.
        return int(ties[int(rng.integers(0, len(ties)))])

    def edge(self, idx: int) -> tuple[int, int]:
        return int(self._cp1[idx]), int(self._cp2[idx])

    def commit(self, idx: int) -> None:
        """Apply candidate *idx*'s swap and delta-refresh touched candidates."""
        p1 = int(self._cp1[idx])
        p2 = int(self._cp2[idx])
        self._base_front += int(self._dfront[idx])
        self._base_ext += int(self._dext[idx])

        # Affected vertices: the swapped qubits plus the partners of every
        # pair they host — only candidates touching one can change delta.
        w1 = int(self._partner[p1])
        w2 = int(self._partner[p2])
        affected = [p1, p2]
        if w1 >= 0:
            affected.append(w1)
        if w2 >= 0:
            affected.append(w2)
        if self._E:
            pea, peb = self._pea, self._peb
            m = (pea == p1) | (pea == p2)
            if m.any():
                affected.extend(int(x) for x in peb[m])
            m = (peb == p1) | (peb == p2)
            if m.any():
                affected.extend(int(x) for x in pea[m])

        # Swap the physical contents.
        l1 = int(self._p2l[p1])
        l2 = int(self._p2l[p2])
        if l1 >= 0:
            self.l2p[l1] = p2
        if l2 >= 0:
            self.l2p[l2] = p1
        self._p2l[p1] = l2
        self._p2l[p2] = l1

        # Re-point the physical pair-position arrays.
        for arr in (self._pfa, self._pfb, self._pea, self._peb):
            if not len(arr):
                continue
            m1 = arr == p1
            m2 = arr == p2
            arr[m1] = p2
            arr[m2] = p1

        # Front partners move with their qubits (no-op for a swap between
        # the two endpoints of one pair).
        if w1 != p2:
            self._partner[p1] = w2
            self._partner[p2] = w1
            if w1 >= 0:
                self._partner[w1] = p2
            if w2 >= 0:
                self._partner[w2] = p1
        self._hostext[p1], self._hostext[p2] = (
            bool(self._hostext[p2]),
            bool(self._hostext[p1]),
        )

        # Candidate set: active membership only changes when exactly one of
        # the swapped positions hosted a front qubit.
        a1 = bool(self._active[p1])
        a2 = bool(self._active[p2])
        if a1 != a2:
            self._active[p1] = a2
            self._active[p2] = a1
            newly = p1 if a2 else p2
            keep = self._active[self._cp1] | self._active[self._cp2]
            old_codes = self._codes[keep]
            merged = _sorted_unique(
                np.concatenate([old_codes, self._codes_for(newly)])
            )
            dfront = np.empty(len(merged), dtype=np.int64)
            dext = np.empty(len(merged), dtype=np.int64)
            pos = np.searchsorted(merged, old_codes)
            dfront[pos] = self._dfront[keep]
            dext[pos] = self._dext[keep]
            # Fresh entries all touch `newly` ∈ affected, so the refresh
            # below computes them; stale slots never survive it.
            self._codes = merged
            self._cp1 = merged // self._n
            self._cp2 = merged % self._n
            self._dfront = dfront
            self._dext = dext

        aff = self._aff
        for a in affected:
            aff[a] = True
        mask = aff[self._cp1] | aff[self._cp2]
        for a in affected:
            aff[a] = False
        touched = np.flatnonzero(mask)
        if len(touched):
            s1 = self._cp1[touched]
            s2 = self._cp2[touched]
            self._dfront[touched] = self._front_delta(s1, s2)
            self._dext[touched] = self._ext_delta(s1, s2)


class _ScalarScorer:
    """:class:`_IncrementalScorer`'s bookkeeping in plain Python, for sparse maps.

    Same integer deltas, float formula, tie order and rng draws, so the
    chosen swaps are bit-identical; on the candidate sets of a sparse map,
    Python ints and lists beat numpy's per-call overhead.
    Positions and front partners are lists; each physical qubit keeps the
    logical partners of the extended-set pairs it hosts (so a swap only
    exchanges two lists); the candidate set is a dict from edge
    ``(p1, p2)``, ``p1 < p2``, to its ``(front delta, ext delta)``.
    """

    def __init__(self, coupling: CouplingMap, l2p: list[int]) -> None:
        self._dist = coupling.distance_rows()
        self._nbrs = coupling.adj
        n = coupling.num_qubits
        self._n = n
        self.l2p = list(l2p)
        self._p2l = [-1] * n
        for q, p in enumerate(self.l2p):
            if p >= 0:
                self._p2l[p] = q
        #: physical -> its single front partner's physical position (or -1)
        self._partner = [-1] * n
        #: physical -> logical partners of the extended-set pairs it hosts
        self._hosted: list[list[int]] = [[] for _ in range(n)]
        self._ext_qubits: set[int] = set()
        self._cands: dict[tuple[int, int], tuple[int, int]] = {}
        self._F = 0
        self._E = 0
        self._base_front = 0
        self._base_ext = 0

    def _front_delta(self, s1: int, s2: int) -> int:
        partner = self._partner
        w1 = partner[s1]
        if w1 == s2:  # the swap exchanges the endpoints of one front pair
            return 0
        w2 = partner[s2]
        d = 0
        if w1 >= 0:
            row = self._dist[w1]
            d += row[s2] - row[s1]
        if w2 >= 0:
            row = self._dist[w2]
            d += row[s1] - row[s2]
        return d

    def _ext_delta(self, s1: int, s2: int) -> int:
        """Exact integer extended-set cost change of swapping ``(s1, s2)``.

        Only pairs hosted at ``s1`` or ``s2`` move; a pair hosted at both
        keeps its distance, so it is skipped from either side."""
        l2p = self.l2p
        r1 = self._dist[s1]
        r2 = self._dist[s2]
        d = 0
        for q in self._hosted[s1]:
            o = l2p[q]
            if o != s2:
                d += r2[o] - r1[o]
        for q in self._hosted[s2]:
            o = l2p[q]
            if o != s1:
                d += r1[o] - r2[o]
        return d

    def begin_epoch(
        self,
        front_pairs: list[tuple[int, ...]],
        ext_pairs: list[tuple[int, ...]],
    ) -> None:
        """Rebuild pair structures and score every candidate from scratch."""
        l2p = self.l2p
        dist = self._dist
        hosted = self._hosted
        self._partner = partner = [-1] * self._n
        base_front = 0
        for a, b in front_pairs:
            pa = l2p[a]
            pb = l2p[b]
            partner[pa] = pb
            partner[pb] = pa
            base_front += dist[pa][pb]
        for q in self._ext_qubits:
            hosted[l2p[q]] = []
        base_ext = 0
        for a, b in ext_pairs:
            pa = l2p[a]
            pb = l2p[b]
            hosted[pa].append(b)
            hosted[pb].append(a)
            base_ext += dist[pa][pb]
        self._ext_qubits = {q for pair in ext_pairs for q in pair}
        self._F = len(front_pairs)
        self._E = len(ext_pairs)
        self._base_front = base_front
        self._base_ext = base_ext

        cands = self._cands = {}
        nbrs = self._nbrs
        for a, b in front_pairs:
            for p in (l2p[a], l2p[b]):
                for nb in nbrs[p]:
                    e = (p, nb) if p < nb else (nb, p)
                    if e not in cands:
                        cands[e] = (self._front_delta(*e), self._ext_delta(*e))

    def fresh_decay(self) -> list[float]:
        return [1.0] * self._n

    def scored(self, decay: list[float]) -> list[tuple[tuple[int, int], float]]:
        """``((p1, p2), score)`` for every candidate, by the numpy formula."""
        F = self._F
        E = self._E
        bf = self._base_front
        bx = self._base_ext
        w = EXTENDED_SET_WEIGHT
        out = []
        for e, (df, dx) in self._cands.items():
            d1 = decay[e[0]]
            d2 = decay[e[1]]
            total = (bf + df) / F + w * ((bx + dx) / E) if E else (bf + df) / F
            out.append((e, (d1 if d1 >= d2 else d2) * total))
        return out

    def select(self, decay: list[float], rng: np.random.Generator) -> tuple[int, int]:
        """Pick the candidate edge SABRE-style (min score, seeded ties)."""
        scored = self.scored(decay)
        cut = min(sc for _, sc in scored) + 1e-12
        ties = sorted((sc, e) for e, sc in scored if sc <= cut)
        return ties[int(rng.integers(0, len(ties)))][1]

    def edge(self, e: tuple[int, int]) -> tuple[int, int]:
        return e

    def commit(self, e: tuple[int, int]) -> None:
        """Apply the swap on edge *e* and delta-refresh touched candidates."""
        p1, p2 = e
        cands = self._cands
        df, dx = cands[e]
        self._base_front += df
        self._base_ext += dx

        # Swap the physical contents; hosted ext partners move with them.
        l2p = self.l2p
        p2l = self._p2l
        l1 = p2l[p1]
        l2 = p2l[p2]
        if l1 >= 0:
            l2p[l1] = p2
        if l2 >= 0:
            l2p[l2] = p1
        p2l[p1] = l2
        p2l[p2] = l1
        hosted = self._hosted
        hosted[p1], hosted[p2] = hosted[p2], hosted[p1]

        # Affected vertices: the swapped qubits plus the partners of every
        # pair they host — only candidates touching one can change delta.
        affected = {p1, p2}
        for q in hosted[p1]:
            affected.add(l2p[q])
        for q in hosted[p2]:
            affected.add(l2p[q])
        # Front partners move with their qubits (no-op for a swap between
        # the two endpoints of one pair).
        partner = self._partner
        w1 = partner[p1]
        w2 = partner[p2]
        if w1 != p2:
            partner[p1] = w2
            partner[p2] = w1
            if w1 >= 0:
                partner[w1] = p2
                affected.add(w1)
            if w2 >= 0:
                partner[w2] = p1
                affected.add(w2)

        # Candidate set: membership only changes when exactly one of the
        # swapped positions hosted a front qubit.
        if (w1 >= 0) != (w2 >= 0):
            gone, newly = (p1, p2) if w1 >= 0 else (p2, p1)
            for nb in self._nbrs[gone]:
                if partner[nb] < 0:
                    del cands[(gone, nb) if gone < nb else (nb, gone)]
            for nb in self._nbrs[newly]:
                # Fresh entries touch `newly`, so the refresh scores them.
                cands.setdefault((newly, nb) if newly < nb else (nb, newly), (0, 0))

        for c in cands:
            if c[0] in affected or c[1] in affected:
                cands[c] = (self._front_delta(*c), self._ext_delta(*c))


def sabre_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Layout | None = None,
    seed: int = 7,
    dag: DAGCircuit | None = None,
    _audit=None,
    _emit: bool = True,
) -> SabreResult:
    """Route *circuit* onto *coupling* inserting SWAPs, SABRE-style.

    The returned circuit acts on physical qubit indices.  1Q gates and
    directives pass straight through at the current mapping.

    ``dag`` optionally supplies a prebuilt dependency DAG of *circuit*
    (it is reset and consumed) so repeated routes of the same circuit —
    the layout search's 2xN reverse traversals — skip reconstruction.
    The swap scorer is picked from *coupling* alone: maps of maximum degree
    up to :data:`SCALAR_SCORER_MAX_DEGREE` use :class:`_ScalarScorer`,
    denser ones :class:`_IncrementalScorer`; both choose the same swaps.
    ``_audit`` is a test hook called once per swap decision with the
    scorer (whose ``scored(decay)`` lists every candidate's score) and the
    exact state a naive rescoring loop needs to reproduce them.
    ``_emit=False`` (the layout search, which keeps only the final layout)
    runs the same decisions without building the routed circuit: the
    result's circuit stays empty.
    """
    if circuit.num_qubits > coupling.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, device only "
            f"{coupling.num_qubits}"
        )
    rng = np.random.default_rng(seed)
    layout = (initial_layout or Layout.trivial(circuit.num_qubits)).copy()
    init_layout = layout.copy()
    if dag is None:
        dag = DAGCircuit(circuit)
    else:
        dag.reset()
    out = QuantumCircuit(coupling.num_qubits, circuit.name)
    num_swaps = 0
    swap_indices: list[int] = []
    steps_since_progress = 0

    l2p_map = layout.as_dict()
    num_slots = max(l2p_map) + 1 if l2p_map else 0
    l2p = [-1] * num_slots
    for q, p in l2p_map.items():
        l2p[q] = p
    sparse = coupling.max_degree() <= SCALAR_SCORER_MAX_DEGREE
    scorer = (_ScalarScorer if sparse else _IncrementalScorer)(coupling, l2p)
    l2p = scorer.l2p
    decay = scorer.fresh_decay()

    gates = dag.gates
    two_qubit = dag.two_qubit
    adj = coupling.adj

    def flush_executable() -> bool:
        """Execute every currently-runnable front gate; True if any ran."""
        progressed = False
        changed = True
        while changed:
            changed = False
            for idx in dag.front_indices():
                g = gates[idx]
                if two_qubit[idx]:
                    qa, qb = g.qubits
                    pa = int(l2p[qa])
                    pb = int(l2p[qb])
                    if pb not in adj[pa]:
                        continue
                    if _emit:
                        out.append(Gate(g.name, (pa, pb), g.params))
                elif _emit:
                    out.append(
                        Gate(g.name, tuple(int(l2p[q]) for q in g.qubits), g.params)
                    )
                dag.execute(idx)
                changed = True
                progressed = True
        return progressed

    flush_executable()
    front_dirty = True
    while not dag.done:
        front_2q = [i for i in dag.front_layer if two_qubit[i]]
        if not front_2q:
            # Only 1Q gates remain blocked (cannot happen: 1Q always runs).
            flush_executable()
            front_dirty = True
            continue
        if front_dirty:
            ext = _extended_set(dag, dag.front_layer, EXTENDED_SET_SIZE)
            front_pairs = [gates[i].qubits for i in front_2q]
            ext_pairs = [gates[i].qubits for i in ext]
            scorer.begin_epoch(front_pairs, ext_pairs)
            front_dirty = False

        if _audit is not None:
            _audit(scorer, front_pairs, ext_pairs, l2p, decay)
        chosen = scorer.select(decay, rng)
        p1, p2 = scorer.edge(chosen)

        if _emit:
            out.append(Gate("swap", (p1, p2)))
            swap_indices.append(len(out) - 1)
        num_swaps += 1
        scorer.commit(chosen)
        decay[p1] += DECAY_INCREMENT
        decay[p2] += DECAY_INCREMENT
        steps_since_progress += 1
        if steps_since_progress >= DECAY_RESET_INTERVAL:
            decay = scorer.fresh_decay()
            steps_since_progress = 0
        if flush_executable():
            decay = scorer.fresh_decay()
            steps_since_progress = 0
            front_dirty = True

    final_layout = Layout({q: int(l2p[q]) for q in sorted(l2p_map)})
    return SabreResult(
        circuit=out,
        initial_layout=init_layout,
        final_layout=final_layout,
        num_swaps=num_swaps,
        swap_gate_indices=swap_indices,
    )


def sabre_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    num_iterations: int = 3,
    seed: int = 7,
    initial_layout: Layout | None = None,
    forward_dag: DAGCircuit | None = None,
    backward_dag: DAGCircuit | None = None,
) -> Layout:
    """Find an initial layout by SABRE forward/backward traversal.

    Each iteration routes the circuit forward then backward, feeding the
    final layout of each pass in as the initial layout of the next.  The
    forward/backward dependency DAGs are built once and reset per route
    instead of reconstructed 2x per iteration; callers that already hold
    them (:func:`route_with_sabre`) can pass them in.  The routes build no
    output circuit and read only *circuit*'s width, so the backward route
    takes *circuit* too (the DAGs drop directives themselves).
    """
    layout = initial_layout or _spread_layout(circuit.num_qubits, coupling, seed)
    fwd = forward_dag if forward_dag is not None else DAGCircuit(circuit)
    bwd = backward_dag if backward_dag is not None else DAGCircuit(circuit.reversed())
    for it in range(num_iterations):
        for k, dag in enumerate((fwd, bwd)):
            layout = sabre_route(
                circuit, coupling, layout, seed=seed + 2 * it + k, dag=dag,
                _emit=False,
            ).final_layout
    return layout


def _spread_layout(num_logical: int, coupling: CouplingMap, seed: int) -> Layout:
    """Random-but-reproducible starting layout over the device."""
    rng = np.random.default_rng(seed)
    physical = rng.permutation(coupling.num_qubits)[:num_logical]
    return Layout.from_physical_list(int(p) for p in physical)


def route_with_sabre(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout_iterations: int = 2,
    seed: int = 7,
    initial_layout: Layout | None = None,
) -> SabreResult:
    """Full SABRE pipeline: layout search then final routing pass."""
    fwd_dag = DAGCircuit(circuit)  # directives dropped, as in every route
    if initial_layout is None:
        initial_layout = sabre_layout(
            circuit,
            coupling,
            num_iterations=layout_iterations,
            seed=seed,
            forward_dag=fwd_dag,
            backward_dag=DAGCircuit(circuit.reversed()),
        )
    return sabre_route(circuit, coupling, initial_layout, seed=seed, dag=fwd_dag)
