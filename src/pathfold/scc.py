"""Strongly connected components and the two subset-choosing strategies.

Both strategies are subset sequences handed to the one collapse fold,
:func:`path_abstract_seq`.  The flat one is each nontrivial component of a
region, then the region.  The recursive one puts each component's own
nested components, innermost first, before it.  It refuses a component
that nothing enters, which has no entry to anchor on, and ``model_check``
filters those out.  Its whole order is found on the input chain's support,
the digraph of its nonzero entries, which on a valid chain is its positive
digraph (``Dtmc.succ`` for the components, ``Dtmc.pred`` for each
interior), reading matrix entries only to tell a self-loop: a collapse
rewrites only its members' rows and adds transitions only onto states its
members already fed, so every component's edges and interior are the same
in the input as in the chain it is collapsed in.  Both land on exactly the
matrix obtained by collapsing the region directly; the point of going
piecewise is that the intermediate chains are worth looking at, not the
final one.

Components are listed in the reverse of the order Tarjan's search emits
them: each precedes the components it can reach, and components that cannot
reach each other keep the search's order.  Since a collapse is exact along
any subset sequence, that order changes no result.
"""

from __future__ import annotations

from typing import Iterable

from .abstraction import interior_zero, path_abstract_seq
from .core import Dtmc, DtmcError, StateSet, state_set


class NotStronglyConnectedError(DtmcError):
    """The subset handed to the recursive collapse is not one component."""


class NonTerminatingInteriorError(DtmcError):
    """The subset equals its own interior, so descending into it would
    rediscover the same component forever; it has no entry to anchor on."""


def sccs(d: Dtmc, subset: Iterable[int]) -> list[StateSet]:
    """Strongly connected components of the support (on a valid chain, the
    positive digraph) restricted to ``subset``, ordered so every component
    precedes the components it can reach; components that cannot reach
    each other come in whatever order the search met them.  Reads
    ``d.succ`` of the members only.
    """
    members = state_set(subset, d.n)
    vertices = sorted(members)
    succ = {v: [t for t in d.succ[v - 1] if t in members] for v in vertices}
    # Tarjan's search emits a component only after every component it
    # reaches, so the reversed emission order is topological.
    return _tarjan(vertices, succ)[::-1]


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

