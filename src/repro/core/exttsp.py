"""Ext-TSP basic block reordering (Newell & Pupyrev [49], §3.3/§4.7).

Ext-TSP generalizes the layout problem from maximizing fall-throughs
(a travelling-salesman path over the CFG) to also rewarding short
forward and backward jumps that stay within cache-line/page reach:

    score(layout) = sum over edges (u -> v, w) of w * K(d)

        K = 1.0            if v is placed exactly at u's end (fall-through)
        K = 0.1 * (1-d/1024)  for forward jumps with distance d in (0, 1024]
        K = 0.1 * (1-d/640)   for backward jumps with distance d in (0, 640]
        K = 0 otherwise

The optimizer greedily merges node chains by the most profitable merge.
The paper notes the stock algorithm "does not scale with the size of
whole program CFGs" and adds *logarithmic time retrieval of the most
profitable action* (§4.7); this implementation uses the same structure:
a lazy binary heap of merge candidates invalidated by chain versions,
so retrieval is O(log n) instead of a linear scan.

Chains containing the entry node are pinned to keep the entry first.
Leftover chains are concatenated in decreasing execution density, so
hot chains pack together even when no jump rewards connect them.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.executor import shared_executor

NodeId = Hashable


@dataclass(frozen=True)
class LayoutParams:
    """Ext-TSP scoring constants (defaults follow the published algorithm)."""

    fallthrough_weight: float = 1.0
    forward_weight: float = 0.1
    backward_weight: float = 0.1
    forward_window: int = 1024
    backward_window: int = 640
    #: Chains no longer than this are considered for split-merges
    #: (LLVM's ext-tsp uses 128).
    chain_split_threshold: int = 128


DEFAULT_PARAMS = LayoutParams()


def edge_score(weight: float, src_end: int, dst_start: int, params: LayoutParams) -> float:
    """Score contribution of one edge given placed byte offsets."""
    if weight <= 0:
        return 0.0
    if dst_start == src_end:
        return weight * params.fallthrough_weight
    if dst_start > src_end:
        dist = dst_start - src_end
        if dist <= params.forward_window:
            return weight * params.forward_weight * (1.0 - dist / params.forward_window)
        return 0.0
    dist = src_end - dst_start
    if dist <= params.backward_window:
        return weight * params.backward_weight * (1.0 - dist / params.backward_window)
    return 0.0


def ext_tsp_score(
    order: Sequence[NodeId],
    sizes: Dict[NodeId, int],
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    params: LayoutParams = DEFAULT_PARAMS,
) -> float:
    """Score a complete layout (used by tests and the optimizer itself)."""
    offsets: Dict[NodeId, int] = {}
    cursor = 0
    for node in order:
        offsets[node] = cursor
        cursor += sizes[node]
    total = 0.0
    for src, dst, weight in edges:
        if src in offsets and dst in offsets:
            total += edge_score(weight, offsets[src] + sizes[src], offsets[dst], params)
    return total


class _Chain:
    __slots__ = ("cid", "nodes", "size", "weight", "version", "has_entry", "intra", "score")

    def __init__(self, cid: int, node: NodeId, size: int, weight: float, has_entry: bool):
        self.cid = cid
        self.nodes: List[NodeId] = [node]
        self.size = size
        self.weight = weight
        self.version = 0
        self.has_entry = has_entry
        self.intra: List[Tuple[NodeId, NodeId, float]] = []
        self.score = 0.0


class ExtTSP:
    """Greedy chain-merging Ext-TSP solver.

    ``nodes`` maps node id to (byte size, execution weight); ``edges``
    are directed ``(src, dst, weight)`` jump frequencies.  ``entry``
    (when given) is pinned to the front of the layout.
    """

    def __init__(
        self,
        nodes: Dict[NodeId, Tuple[int, float]],
        edges: Iterable[Tuple[NodeId, NodeId, float]],
        entry: Optional[NodeId] = None,
        params: LayoutParams = DEFAULT_PARAMS,
    ):
        self._params = params
        self._sizes = {n: max(1, int(size)) for n, (size, _w) in nodes.items()}
        self._weights = {n: w for n, (_s, w) in nodes.items()}
        self._entry = entry
        if entry is not None and entry not in nodes:
            raise ValueError("entry node not in node set")
        self._chains: Dict[int, _Chain] = {}
        self._node_chain: Dict[NodeId, int] = {}
        self._pair_edges: Dict[Tuple[int, int], List[Tuple[NodeId, NodeId, float]]] = {}
        self._heap: List[Tuple[float, int, int, int, int, int, int]] = []
        self._tiebreak = 0
        for i, (node, (size, weight)) in enumerate(nodes.items()):
            chain = _Chain(i, node, max(1, int(size)), weight, node == entry)
            self._chains[i] = chain
            self._node_chain[node] = i
        for src, dst, weight in edges:
            if weight <= 0 or src == dst:
                continue
            if src not in self._sizes or dst not in self._sizes:
                continue
            a, b = self._node_chain[src], self._node_chain[dst]
            if a == b:
                self._chains[a].intra.append((src, dst, weight))
                continue
            key = (a, b) if a < b else (b, a)
            self._pair_edges.setdefault(key, []).append((src, dst, weight))

    # -- scoring helpers ------------------------------------------------

    def _chain_score(self, order: List[NodeId], edge_list) -> float:
        return ext_tsp_score(order, self._sizes, edge_list, self._params)

    def _merge_variants(self, x: _Chain, y: _Chain) -> List[List[NodeId]]:
        """All legal placements of y relative to x.

        Concatenations both ways, plus splicing one chain into the
        other at every split point (bounded by the split threshold).
        A chain holding the entry node may only gain material *after*
        its first node.
        """
        threshold = self._params.chain_split_threshold
        variants: List[List[NodeId]] = []
        if not y.has_entry:
            variants.append(x.nodes + y.nodes)
        if not x.has_entry:
            variants.append(y.nodes + x.nodes)
        if not y.has_entry and 2 <= len(x.nodes) <= threshold:
            for split in range(1, len(x.nodes)):
                variants.append(x.nodes[:split] + y.nodes + x.nodes[split:])
        if not x.has_entry and 2 <= len(y.nodes) <= threshold:
            for split in range(1, len(y.nodes)):
                variants.append(y.nodes[:split] + x.nodes + y.nodes[split:])
        return variants

    def _best_merge(self, x: _Chain, y: _Chain) -> Optional[Tuple[float, List[NodeId]]]:
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        cross = self._pair_edges.get(key)
        if not cross:
            return None
        edge_list = x.intra + y.intra + cross
        base = x.score + y.score
        best_gain = 0.0
        best_order: Optional[List[NodeId]] = None
        for order in self._merge_variants(x, y):
            score = self._chain_score(order, edge_list)
            gain = score - base
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_order = order
        if best_order is None:
            return None
        return best_gain, best_order

    def _push_candidate(self, x: _Chain, y: _Chain) -> None:
        merged = self._best_merge(x, y)
        if merged is None:
            return
        gain, _order = merged
        self._tiebreak += 1
        heapq.heappush(
            self._heap,
            (-gain, self._tiebreak, x.cid, x.version, y.cid, y.version, 0),
        )

    # -- main loop -------------------------------------------------------

    def solve(self) -> List[NodeId]:
        """Run merging to exhaustion and return the final node order."""
        neighbours: Dict[int, set] = {cid: set() for cid in self._chains}
        for a, b in self._pair_edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        for a, b in list(self._pair_edges.keys()):
            self._push_candidate(self._chains[a], self._chains[b])

        while self._heap:
            neg_gain, _tb, a_id, a_ver, b_id, b_ver, _ = heapq.heappop(self._heap)
            chain_a = self._chains.get(a_id)
            chain_b = self._chains.get(b_id)
            if chain_a is None or chain_b is None:
                continue
            if chain_a.version != a_ver or chain_b.version != b_ver:
                continue  # stale candidate (lazy invalidation)
            merged = self._best_merge(chain_a, chain_b)
            if merged is None or merged[0] <= 0:
                continue
            _gain, order = merged
            self._merge(chain_a, chain_b, order, neighbours)
        return self._final_order()

    def _merge(self, x: _Chain, y: _Chain, order: List[NodeId], neighbours: Dict[int, set]) -> None:
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        cross = self._pair_edges.pop(key, [])
        x.nodes = order
        x.intra = x.intra + y.intra + cross
        x.size += y.size
        x.weight += y.weight
        x.has_entry = x.has_entry or y.has_entry
        x.version += 1
        x.score = self._chain_score(x.nodes, x.intra)
        for node in y.nodes:
            self._node_chain[node] = x.cid
        del self._chains[y.cid]
        # Re-bucket y's pair edges onto x and refresh candidates.
        y_neigh = neighbours.pop(y.cid, set())
        x_neigh = neighbours[x.cid]
        x_neigh.discard(y.cid)
        for other in y_neigh:
            if other == x.cid or other not in self._chains:
                continue
            old_key = (y.cid, other) if y.cid < other else (other, y.cid)
            moved = self._pair_edges.pop(old_key, [])
            new_key = (x.cid, other) if x.cid < other else (other, x.cid)
            self._pair_edges.setdefault(new_key, []).extend(moved)
            x_neigh.add(other)
            neighbours[other].discard(y.cid)
            neighbours[other].add(x.cid)
        for other in list(x_neigh):
            if other in self._chains:
                self._push_candidate(x, self._chains[other])

    def _final_order(self) -> List[NodeId]:
        chains = list(self._chains.values())
        entry_chains = [c for c in chains if c.has_entry]
        rest = [c for c in chains if not c.has_entry]
        rest.sort(key=lambda c: (-(c.weight / max(1, c.size)), c.cid))
        ordered = entry_chains + rest
        return [node for chain in ordered for node in chain.nodes]


def ext_tsp_order(
    nodes: Dict[NodeId, Tuple[int, float]],
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    entry: Optional[NodeId] = None,
    params: LayoutParams = DEFAULT_PARAMS,
) -> List[NodeId]:
    """Convenience wrapper: build a solver and return the layout order."""
    if not nodes:
        return []
    return ExtTSP(nodes, dict_edges_ok(edges), entry=entry, params=params).solve()


def _order_task(
    nodes: Dict[NodeId, Tuple[int, float]],
    edges: List[Tuple[NodeId, NodeId, float]],
    entry: Optional[NodeId],
    params: LayoutParams,
) -> List[NodeId]:
    """:func:`ext_tsp_order` with positional parameters, for ``executor.map``."""
    return ext_tsp_order(nodes, edges, entry=entry, params=params)


def solve_signature(
    nodes: Dict[NodeId, Tuple[int, float]],
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    entry: Optional[NodeId],
    params: LayoutParams = DEFAULT_PARAMS,
) -> str:
    """Content digest of one layout problem: the solve-memoization key.

    Covers *every* input of the solver, bit-exactly: the scoring
    params, the entry pin, node sizes and weights, and the edge list.
    Nodes are hashed in **iteration order** (not sorted) because chain
    ids -- and with them every heap tiebreak -- are assigned by
    enumeration order in :class:`ExtTSP`; two problems with equal
    content but different insertion order are legitimately different
    solves.  Equal signatures therefore guarantee the memoized order
    equals a fresh solve, which is what lets
    :class:`repro.runtime.FunctionSolveCache` replay solutions across
    releases without risking the bit-identity of the relink.
    """
    h = hashlib.sha256()
    h.update(repr(params).encode("utf-8"))
    h.update(f"|e:{entry!r}".encode("utf-8"))
    for node, (size, weight) in nodes.items():
        h.update(f"|n:{node!r}:{int(size)}:{float(weight).hex()}".encode("utf-8"))
    for src, dst, weight in edges:
        h.update(f"|g:{src!r}:{dst!r}:{float(weight).hex()}".encode("utf-8"))
    return h.hexdigest()


def ext_tsp_order_many(
    problems: Sequence[
        Tuple[Dict[NodeId, Tuple[int, float]], Iterable[Tuple[NodeId, NodeId, float]], Optional[NodeId]]
    ],
    params: LayoutParams = DEFAULT_PARAMS,
    cache: Optional[object] = None,
) -> List[List[NodeId]]:
    """Solve many independent layout problems, orders in input order.

    Each problem is ``(nodes, edges, entry)``; WPA's per-function layout
    makes every hot function its own problem.  The solves run through
    the shared :class:`repro.runtime.ParallelExecutor`.

    ``cache`` (the :class:`repro.runtime.FunctionSolveCache` contract:
    ``get(key) -> order | None`` / ``put(key, order)``) memoizes solves
    by :func:`solve_signature`: problems whose signature is cached are
    replayed without solving, only the misses run, and fresh solutions
    are stored.  Lookups happen in input order, so hit/miss accounting
    is deterministic.
    """
    executor = shared_executor()
    tasks = [(nodes, list(edges), entry, params) for nodes, edges, entry in problems]
    if cache is None:
        return executor.map(_order_task, tasks)

    results: List[Optional[List[NodeId]]] = []
    miss_tasks = []
    miss_slots: List[Tuple[int, str]] = []
    for i, task in enumerate(tasks):
        key = solve_signature(task[0], task[1], task[2], task[3])
        order = cache.get(key)
        results.append(order)
        if order is None:
            miss_tasks.append(task)
            miss_slots.append((i, key))
    if miss_tasks:
        solved = executor.map(_order_task, miss_tasks)
        for (i, key), order in zip(miss_slots, solved):
            cache.put(key, order)
            results[i] = order
    return results  # type: ignore[return-value]


def dict_edges_ok(edges: Iterable[Tuple[NodeId, NodeId, float]]):
    """Aggregate duplicate directed edges by summing weights."""
    agg: Dict[Tuple[NodeId, NodeId], float] = {}
    for src, dst, weight in edges:
        agg[(src, dst)] = agg.get((src, dst), 0.0) + weight
    return [(s, d, w) for (s, d), w in agg.items()]
