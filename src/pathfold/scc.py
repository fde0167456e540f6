"""Strongly connected components and the two subset-choosing strategies.

Both strategies are subset sequences handed to the one collapse fold,
:func:`path_abstract_seq`, and both take any region.  The flat one is each
nontrivial component of the region, then the region.  The recursive one
puts before the region each component that something enters, each after
its own nested components, innermost first; a component that nothing
enters has no entry to anchor on and is left out, since the final collapse
of the region clears it anyway.  Its whole order is found on the input
chain's support, the digraph of its nonzero entries, which on a valid chain
is its positive digraph, reading no matrix entry: ``Dtmc.succ`` gives the
components and self-loops, and one predecessor index of the kind the fold
keeps, built once per call, gives each interior from the predecessors of
the component's own states.  A collapse rewrites only its members' rows
and adds transitions only onto states its members already fed, so every
component's edges and interior are the same in the input as in the chain
it is collapsed in.  The fold skips the states a nested component's
collapse cleared when it meets them again in the components around it.
Either sequence ends with the region, which may itself be the last
component listed; the fold's own rule, to skip a subset equal to the one
just before it, keeps it from being collapsed a second time.  Both land on
exactly the matrix obtained by collapsing the region directly, and neither
returns the chains in between: :func:`pathfold.checker.refine`, handed the
same subsets, records each of them in its trace.

Components come from one iterative Tarjan search (Tarjan, SIAM J. Comput.
1972) over the members' ``Dtmc.succ`` lists, roots ascending, and are listed
in the reverse of the order it emits them: each precedes the components it
can reach, and components that cannot reach each other come in the reverse
of the order the search finished them.  Since a collapse is exact along any
subset sequence, that order changes no result; it is deterministic all the
same, so each strategy makes the same collapses on every run.
"""

from __future__ import annotations

from typing import Iterable

from .abstraction import _Fold, path_abstract_seq
from .core import Dtmc, StateSet, state_set


def sccs(d: Dtmc, subset: Iterable[int]) -> list[StateSet]:
    """Strongly connected components of the support (on a valid chain, the
    positive digraph) restricted to ``subset``, ordered so every component
    precedes the components it can reach.

    One iterative Tarjan search with roots in ascending order.  Each frame
    walks its state's ``d.succ`` list with an iterator and skips targets
    outside ``subset``, so only the members' lists are read.  The search
    emits a component only after every component it reaches, so the
    emission order reversed is topological; components that cannot reach
    each other come in the reverse of the order the search finished them.
    """
    members = state_set(subset, d.n)
    succ = d.succ
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[StateSet] = []
    for root in sorted(members):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        work = [(root, iter(succ[root - 1]), len(stack))]
        stack.append(root)
        on_stack.add(root)
        while work:
            v, targets, at = work[-1]
            for w in targets:
                if w not in members:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    work.append((w, iter(succ[w - 1]), len(stack)))
                    stack.append(w)
                    on_stack.add(w)
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    # v roots a component: it and all above it on the stack
                    comp = frozenset(stack[at:])
                    del stack[at:]
                    on_stack -= comp
                    comps.append(comp)
                elif low[v] < low[work[-1][0]]:
                    # a search root always roots a component, so v has a parent
                    low[work[-1][0]] = low[v]
    return comps[::-1]


def nontrivial_sccs(d: Dtmc, subset: Iterable[int]) -> list[StateSet]:
    """Components that can cycle: all except self-loop-free singletons."""
    out = []
    for comp in sccs(d, subset):
        if len(comp) == 1:
            (s,) = comp
            if s not in d.succ[s - 1]:
                continue
        out.append(comp)
    return out


def abstract_via_sccs(d: Dtmc, subset: Iterable[int]) -> Dtmc:
    """Collapse each nontrivial component of ``subset``, then ``subset``,
    which the fold skips when it was that last component.

    The result equals collapsing ``subset`` in one go; to see each chain in
    between, hand the same subsets to :func:`pathfold.checker.refine`.
    """
    s1 = state_set(subset, d.n)
    return path_abstract_seq(d, [*nontrivial_sccs(d, s1), s1])


def abstract_recursive(d: Dtmc, subset: Iterable[int]) -> Dtmc:
    """Collapse each nontrivial component of ``subset`` that something
    enters, each after the nontrivial components of its own interior,
    innermost first, then ``subset``, which the fold skips when it was that
    last component.

    The recursive twin of :func:`abstract_via_sccs`, with the same result
    as collapsing ``subset`` in one go.  A component equal to its own
    interior has no entry state and is skipped; a nested component always
    has one, since the component around it feeds it.  Interiors are read
    off one predecessor index of ``d``, so each costs the predecessors of
    its component's states, not a scan of the chain.  The order is gathered
    with an explicit stack, so nesting depth costs no recursion.
    """
    s1 = state_set(subset, d.n)
    index = _Fold(d)
    outermost_first = []
    todo = nontrivial_sccs(d, s1)
    while todo:
        comp = todo.pop()
        interior = index.interior(comp)
        if interior != comp:
            outermost_first.append(comp)
            todo += nontrivial_sccs(d, interior)
    return path_abstract_seq(d, [*outermost_first[::-1], s1])
