"""Exact data model for discrete-time Markov chains.

States are the integers ``1..n``.  Every probability is a
:class:`fractions.Fraction`, so comparisons anywhere in the package are
exact.  Substochastic matrices (row sums below one) are a normal, legal
state of affairs here: collapsing a region that traps probability mass
deliberately produces them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    ``TypeError``, and builds the lists.  It stores a :class:`Fraction`
    value as given, which is safe since a :class:`Fraction` is immutable,
    and converts any other value, a subclass of :class:`Fraction` too.
    ``Dtmc(init, rows, succ)`` is the writers' internal form, which takes
    ``rows`` and ``succ`` as given: they must agree, and :func:`validate`
    does not cross-check them.  A collapse hands the lists on, rewriting
    only its members' lists, and a prune renumbers them.  Equality, hashing
    and ``repr`` look at ``init`` and ``rows`` alone.  A chain is
    immutable: assigning or deleting a field raises ``AttributeError``.
    """

    __slots__ = ("init", "rows", "succ")

    init: int
    rows: tuple[tuple[Fraction, ...], ...]
    succ: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        init: int,
        rows: tuple[tuple[Fraction, ...], ...],
        succ: tuple[tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "succ", succ)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Dtmc")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Dtmc")

    def __reduce__(self):
        # the default pickle protocol would set the slots through __setattr__
        return self.__class__, (self.init, self.rows, self.succ)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.init, self.rows) == (other.init, other.rows)

    def __hash__(self) -> int:
        return hash((self.init, self.rows))

    def __repr__(self) -> str:
        return f"Dtmc(init={self.init!r}, rows={self.rows!r})"

    @classmethod
    def from_transitions(
        cls, n: int, init: int, transitions: Mapping[tuple[int, int], object]
    ) -> "Dtmc":
        """The chain with entry ``p`` at each ``(s, t)`` and zero elsewhere.

        A value of class :class:`Fraction` is stored as given; any other is
        converted with ``Fraction(p)``, and a binary ``float`` raises
        ``TypeError``.
        """
        zero = Fraction(0)
        empty = (zero,) * n
        rows: list = [empty] * n
        succ: list[list[int]] = [[] for _ in range(n)]
        for (s, t), p in transitions.items():
            if not (1 <= s <= n and 1 <= t <= n):
                raise ValueError(f"state pair ({s},{t}) out of range 1..{n}")
            if p.__class__ is not Fraction:
                if isinstance(p, float):
                    raise TypeError(f"entry ({s},{t}) is a binary float: {p!r}")
                p = Fraction(p)  # type: ignore[arg-type]
            row = rows[s - 1]
            if row is empty:
                rows[s - 1] = row = [zero] * n
            row[t - 1] = p
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


def validate(d: Dtmc) -> None:
    """Check entry ranges, row sums and the initial state.

    Raises a :class:`ValidationError` subclass on any violation, naming the
    first offending entry in (src, dst) order, and a ``TypeError`` on an
    entry that is neither an ``int`` nor a :class:`Fraction` (the builders'
    one on a binary ``float``); returns nothing otherwise.  Every entry
    outside the support is zero and so in range, so only the entries
    ``d.succ`` lists are read.

    The checks run on integers: an entry ``a/b`` in lowest terms (``b > 0``)
    is in range when ``0 <= a <= b``, and a row's sum is kept as one
    numerator over the lcm of the denominators read so far.  The only
    :class:`Fraction` built is the total a :class:`RowSumExceedsOneError`
    reports.
    """
    n = d.n
    if not (1 <= d.init <= n):
        raise InitOutOfRangeError(d.init, n)
    if any(len(row) != n for row in d.rows):
        raise ValidationError("matrix is not square")
    for s, (row, targets) in enumerate(zip(d.rows, d.succ), 1):
        num, den = 0, 1
        for t in targets:
            p = row[t - 1]
            # a float or Decimal has as_integer_ratio too, so the type comes
            # first; the usual entry, a Fraction, passes on its class alone
            if p.__class__ is not Fraction and not isinstance(p, (int, Fraction)):
                if isinstance(p, float):
                    raise TypeError(f"entry ({s},{t}) is a binary float: {p!r}")
                raise TypeError(f"entry ({s},{t}) is not an int or Fraction: {p!r}")
            a, b = p.as_integer_ratio()
            if a < 0:
                raise NegativeEntryError(s, t, p)
            if a > b:
                raise EntryExceedsOneError(s, t, p)
            if den % b:
                m = lcm(den, b)
                num *= m // den
                den = m
            num += a * (den // b)
        if num > den:
            raise RowSumExceedsOneError(s, Fraction(num, den))


def non_absorbing(d: Dtmc) -> StateSet:
    """States that keep less than their full mass on the diagonal."""
    # Denominators are positive, so p < 1 exactly when numerator < denominator.
    return frozenset(
        s
        for s, row in enumerate(d.rows, 1)
        if (p := row[s - 1]).numerator < p.denominator
    )
