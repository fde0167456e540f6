"""Exact data model for discrete-time Markov chains.

States are the integers ``1..n``.  Every probability is a
:class:`fractions.Fraction`, so comparisons anywhere in the package are
exact.  Substochastic matrices (row sums below one) are a normal, legal
state of affairs here: collapsing a region that traps probability mass
deliberately produces them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

StateSet = frozenset[int]


_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def decimal_str(n: int) -> str:
    """``str(n)`` for a nonnegative int of any length.

    Python refuses to convert an int of more than 4300 digits (by default;
    at least 640 however configured) to a string in one piece, yet an exact
    answer can be that long.  Such an int is written out in 600-digit
    chunks instead, so the limit still guards parsing.
    """
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _ratio(value: Fraction) -> str:
    """``str(value)`` for a ``Fraction`` of any length."""
    p, q = value.numerator, value.denominator
    text = ("-" if p < 0 else "") + decimal_str(abs(p))
    return text if q == 1 else f"{text}/{decimal_str(q)}"


class DtmcError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DtmcError):
    """The matrix or initial state violates a model invariant."""


class NegativeEntryError(ValidationError):
    def __init__(self, src: int, dst: int, value: Fraction):
        super().__init__(f"entry ({src},{dst}) is negative: {_ratio(value)}")
        self.src, self.dst, self.value = src, dst, value


class EntryExceedsOneError(ValidationError):
    def __init__(self, src: int, dst: int, value: Fraction):
        super().__init__(f"entry ({src},{dst}) exceeds one: {_ratio(value)}")
        self.src, self.dst, self.value = src, dst, value


class RowSumExceedsOneError(ValidationError):
    def __init__(self, state: int, total: Fraction):
        super().__init__(f"row {state} sums to {_ratio(total)} > 1")
        self.state, self.total = state, total


class InitOutOfRangeError(ValidationError):
    def __init__(self, init: int, n: int):
        super().__init__(f"initial state {init} not in 1..{n}")
        self.init, self.n = init, n


@dataclass(frozen=True)
class Dtmc:
    """A (sub)stochastic matrix over states ``1..n`` plus an initial state.

    ``rows`` is a tuple of row tuples whose entries are all
    :class:`Fraction`.  Row tuples are immutable and may be shared between
    chains, so a collapse reuses the rows it leaves alone, and the rows
    :meth:`from_transitions` gets no entry for share one zero tuple.

    Beside the rows every chain carries its support, the digraph of its
    nonzero entries: ``succ[s - 1]`` lists the targets of state ``s`` with
    nonzero probability, ascending.  On a chain :func:`validate` accepts
    no entry is negative, so the support is exactly the positive digraph.
    :func:`validate` and the graph layers walk these lists and read
    ``rows`` only at nonzero entries; the layers that need a state's
    sources derive them from the lists.

    :meth:`from_transitions` is the one builder: it takes any value
    :class:`Fraction` takes except a binary ``float``, which raises
    ``TypeError``, and builds the lists.  ``Dtmc(init, rows, succ)`` is the
    writers' internal form, which takes ``rows`` and ``succ`` as given:
    they must agree, and :func:`validate` does not cross-check them.
    A collapse hands the lists on, rewriting only its members' lists, and a
    prune renumbers them.  Equality, hashing and ``repr`` look at ``init``
    and ``rows`` alone.
    """

    init: int
    rows: tuple[tuple[Fraction, ...], ...]
    succ: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @classmethod
    def from_transitions(
        cls, n: int, init: int, transitions: Mapping[tuple[int, int], object]
    ) -> "Dtmc":
        zero = Fraction(0)
        empty = (zero,) * n
        rows: list = [empty] * n
        succ: list[list[int]] = [[] for _ in range(n)]
        for (s, t), p in transitions.items():
            if not (1 <= s <= n and 1 <= t <= n):
                raise ValueError(f"state pair ({s},{t}) out of range 1..{n}")
            if isinstance(p, float):
                raise TypeError(f"entry ({s},{t}) is a binary float: {p!r}")
            row = rows[s - 1]
            if row is empty:
                rows[s - 1] = row = [zero] * n
            row[t - 1] = p = Fraction(p)  # type: ignore[arg-type]
            if p.numerator:
                succ[s - 1].append(t)
        for targets in succ:
            targets.sort()
        # tuple() hands a tuple back as it is, so ``empty`` stays shared
        return cls(init, tuple(map(tuple, rows)), tuple(map(tuple, succ)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def states(self) -> range:
        return range(1, self.n + 1)

    def prob(self, s: int, t: int) -> Fraction:
        if not (1 <= s <= self.n and 1 <= t <= self.n):
            raise ValueError(f"state pair ({s},{t}) out of range 1..{self.n}")
        return self.rows[s - 1][t - 1]

    def transitions(self) -> Iterator[tuple[int, int, Fraction]]:
        """Nonzero entries in (src, dst) order."""
        for s, (row, targets) in enumerate(zip(self.rows, self.succ), 1):
            for t in targets:
                yield s, t, row[t - 1]

    def transition_count(self) -> int:
        return sum(map(len, self.succ))


def state_set(states: Iterable[int], n: int) -> StateSet:
    """Normalize to a frozenset, rejecting indices outside ``1..n``."""
    out = frozenset(states)
    for s in out:
        if not (1 <= s <= n):
            raise ValueError(f"state {s} out of range 1..{n}")
    return out


def validate(d: Dtmc) -> bool:
    """Check entry ranges, row sums and the initial state.

    Returns True if the chain is stochastic, False if substochastic; raises a
    :class:`ValidationError` subclass on any violation, naming the first
    offending entry in (src, dst) order, and the builders' ``TypeError`` on
    a binary ``float`` entry.  Every entry outside the support is zero and
    so in range, so only the entries ``d.succ`` lists are read.
    """
    n = d.n
    if not (1 <= d.init <= n):
        raise InitOutOfRangeError(d.init, n)
    if any(len(row) != n for row in d.rows):
        raise ValidationError("matrix is not square")
    stochastic = True
    for s, (row, targets) in enumerate(zip(d.rows, d.succ), 1):
        total = Fraction(0)
        for t in targets:
            p = row[t - 1]
            if isinstance(p, float):
                raise TypeError(f"entry ({s},{t}) is a binary float: {p!r}")
            if p < 0:
                raise NegativeEntryError(s, t, p)
            if p > 1:
                raise EntryExceedsOneError(s, t, p)
            total += p
        if total > 1:
            raise RowSumExceedsOneError(s, total)
        if total != 1:
            stochastic = False
    return stochastic


def non_absorbing(d: Dtmc) -> StateSet:
    """States that keep less than their full mass on the diagonal."""
    # Denominators are positive, so p < 1 exactly when numerator < denominator.
    return frozenset(
        s
        for s, row in enumerate(d.rows, 1)
        if (p := row[s - 1]).numerator < p.denominator
    )
