"""Strongly connected components and the two subset-choosing strategies.

Both strategies are subset sequences handed to the one collapse fold,
:func:`path_abstract_seq`.  The flat one is each nontrivial component of a
region, then the region.  The recursive one puts each component's own
nested components, innermost first, before it.  It reads that whole order
from the input chain: a collapse rewrites only its members' rows and adds
transitions only onto states its members already fed, so every component's
rows and interior are the same in the input as in the chain it is collapsed
in.  Both land on exactly the matrix obtained by collapsing the region
directly; the point of going piecewise is that the intermediate chains are
worth looking at, not the final one.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from .abstraction import interior_zero, path_abstract, path_abstract_seq
from .core import Dtmc, DtmcError, StateSet, state_set


class NotStronglyConnectedError(DtmcError):
    """The subset handed to the recursive collapse is not one component."""


class NonTerminatingInteriorError(DtmcError):
    """The subset equals its own interior, so descending into it would
    rediscover the same component forever; it has no entry to anchor on."""


def sccs(d: Dtmc, subset: Iterable[int]) -> list[StateSet]:
    """Strongly connected components of the positive digraph restricted to
    ``subset``, ordered so every component precedes the components it can
    reach; ties break on the smallest member index.
    """
    vertices = sorted(state_set(subset, d.n))
    succ = {}
    for v in vertices:
        row = d.rows[v - 1]
        succ[v] = [t for t in vertices if row[t - 1] and row[t - 1] > 0]
    return _order_components(_tarjan(vertices, succ), succ)


def _tarjan(vertices: list[int], succ: dict[int, list[int]]) -> list[StateSet]:
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comps: list[StateSet] = []
    for root in vertices:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            descended = False
            for j in range(i, len(succ[v])):
                w = succ[v][j]
                if w not in index:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def _order_components(
    comps: list[StateSet], succ: dict[int, list[int]]
) -> list[StateSet]:
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    edges: dict[int, set[int]] = {k: set() for k in range(len(comps))}
    indegree = [0] * len(comps)
    for v, targets in succ.items():
        for t in targets:
            a, b = comp_of[v], comp_of[t]
            if a != b and b not in edges[a]:
                edges[a].add(b)
                indegree[b] += 1
    ready = [(min(comps[k]), k) for k in range(len(comps)) if indegree[k] == 0]
    heapq.heapify(ready)
    out: list[StateSet] = []
    while ready:
        _, k = heapq.heappop(ready)
        out.append(comps[k])
        for b in edges[k]:
            indegree[b] -= 1
            if indegree[b] == 0:
                heapq.heappush(ready, (min(comps[b]), b))
    return out


def nontrivial_sccs(d: Dtmc, subset: Iterable[int]) -> list[StateSet]:
    """Components that can cycle: all except self-loop-free singletons."""
    out = []
    for comp in sccs(d, subset):
        if len(comp) == 1:
            (s,) = comp
            if d.prob(s, s) == 0:
                continue
        out.append(comp)
    return out


def abstract_via_sccs(d: Dtmc, subset: Iterable[int]) -> Dtmc:
    """Collapse each nontrivial component of ``subset``, then ``subset``.

    The result equals collapsing ``subset`` in one go; the staging exists
    so the intermediate chains can be inspected along the way.
    """
    s1 = state_set(subset, d.n)
    return path_abstract_seq(d, [*nontrivial_sccs(d, s1), s1])


def abstract_recursive(d: Dtmc, subset: Iterable[int]) -> Dtmc:
    """Collapse ``subset`` after the nontrivial components of its interior,
    each in turn after those of its own interior, innermost first.

    ``subset`` must be strongly connected and must have a proper interior:
    a subset equal to its own interior has no entry state to anchor on.  A
    nested component always has one, since the strongly connected component
    around it feeds it.  The order is gathered with an explicit stack, so
    nesting depth costs no recursion.
    """
    s1 = state_set(subset, d.n)
    if not s1:
        raise ValueError("subset must be nonempty")
    comps = sccs(d, s1)
    if len(comps) != 1:
        raise NotStronglyConnectedError(
            f"{sorted(s1)} splits into {len(comps)} components"
        )
    outermost_first = []
    todo = [s1]
    while todo:
        comp = todo.pop()
        interior = interior_zero(d, comp)
        if interior == comp:
            raise NonTerminatingInteriorError(f"{sorted(comp)} has no entry state")
        outermost_first.append(comp)
        todo += nontrivial_sccs(d, interior)
    return path_abstract_seq(d, reversed(outermost_first))


def abstract_nested(
    d: Dtmc, comps: Iterable[Iterable[int]], subset: Iterable[int]
) -> Dtmc:
    """Collapse each of ``comps`` by :func:`abstract_recursive`, in order,
    then ``subset``.

    A component that nothing enters cannot anchor a collapse and is
    skipped; the final collapse of ``subset`` wipes it out regardless.
    """
    current = d
    for comp in comps:
        try:
            current = abstract_recursive(current, comp)
        except NonTerminatingInteriorError:
            continue
    return path_abstract(current, subset)
