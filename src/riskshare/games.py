"""Coalition games over an ordered player set, with exact rational values.

A game is a total value function v over subsets of the player set with
v(empty) = 0. Subsets are encoded canonically as bitmasks over the player
ordering. Every game is held the same way, as Harsanyi dividends: v(S) is the
sum of the weights d_T of the terms whose required set T lies inside S.
A leaf-coverage game comes in this basis, one term per addressed leaf (one
unanimity game each), and a game with k terms costs O(k) per evaluation and
O(k) memory at any team size. A full table of ``2**n`` values (coalition
tables, subset rebuild results) is an input form only: it is converted once
by the Moebius transform, whose result is unique, and :meth:`value_table`
rebuilds it by the inverse (zeta) transform within :data:`MATERIALIZATION_CAP`.
Both transforms run in integers over one common denominator in O(n * 2^n).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Set

from ._frozen import frozen
from .errors import CapacityError, GameDefinitionError
from .intervals import Rationalish, as_fraction
from .risk import ThreatTree

#: Value tables are only rebuilt up to this many players; games of any size
#: are solved and audited from their dividends, with no table.
MATERIALIZATION_CAP = 24


@frozen
class PlayerSet:
    """Ordered, unique, nonempty player ids; the ordering fixes the subset encoding."""

    players: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        if not self.players:
            raise GameDefinitionError("player set must not be empty")
        index = {}
        for k, p in enumerate(self.players):
            if not isinstance(p, str):
                raise GameDefinitionError(f"player id {p!r} is not a string")
            if not p:
                raise GameDefinitionError("a player id must not be empty")
            if p in index:
                raise GameDefinitionError(f"duplicate player id {p!r}")
            index[p] = k
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, subset: Iterable[str]) -> int:
        """The bitmask of ``subset``; an unknown id raises, naming every unknown id of the subset, sorted."""
        index = self._index
        mask = 0
        players = iter(subset)
        for player in players:
            try:
                mask |= 1 << index[player]
            except KeyError:  # the ids before ``player`` are known; look for others only among the rest
                unknown = sorted({player, *(p for p in players if p not in index)})
                if len(unknown) == 1:
                    raise GameDefinitionError(f"unknown player {player!r}") from None
                raise GameDefinitionError(f"unknown players {', '.join(map(repr, unknown))}") from None
        return mask

    def ids_of(self, mask: int) -> tuple[str, ...]:
        return tuple(p for k, p in enumerate(self.players) if mask >> k & 1)


class CoalitionGame:
    """Immutable value function over subsets of a fixed player set.

    The game is given in exactly one of two forms:

    * ``terms`` -- ``(required_mask, weight)`` Harsanyi dividends, with
      v(S) = sum of the weights whose required mask lies inside S;
    * ``table`` -- ``2**n`` values indexed by subset mask, with v(empty) = 0,
      converted once to its dividends by the integer Moebius transform.

    Either way the game holds only its nonzero dividends (duplicate masks
    merged), as integers over one common denominator, so an evaluation costs
    one integer sum. The exact solver, the axiom audit and the sampler all
    read these dividends. :meth:`value_table` rebuilds the table on demand,
    without caching it. ``label`` is a short provenance string carried into
    reports.
    """

    __slots__ = ("players", "label", "_terms", "_den")

    def __init__(
        self,
        players: PlayerSet,
        *,
        table: Optional[Iterable[Rationalish]] = None,
        terms: Optional[Iterable[tuple[int, Rationalish]]] = None,
        label: str = "custom",
    ):
        if (table is None) == (terms is None):
            raise GameDefinitionError("provide exactly one of table or terms")
        self.players = players
        self.label = label
        if table is not None:
            values = [as_fraction(v) for v in table]
            if len(values) != 1 << players.n:
                raise GameDefinitionError(
                    f"table has {len(values)} entries, expected {1 << players.n}"
                )
            if values[0] != 0:
                raise GameDefinitionError(f"v(empty set) must be 0, got {values[0]}")
            dividends, self._den = _over_common_denominator(values)
            _subset_transform(dividends, players.n, operator.sub)
            self._terms = tuple((m, d) for m, d in enumerate(dividends) if d)
        else:
            merged: dict[int, Fraction] = {}
            for mask, weight in terms:
                if not 0 < mask <= players.full_mask:
                    raise GameDefinitionError(f"term mask {mask:#x} outside nonempty subset range")
                merged[mask] = merged.get(mask, Fraction(0)) + as_fraction(weight)
            weights, self._den = _over_common_denominator(merged.values())
            self._terms = tuple((m, w) for m, w in zip(merged, weights) if w)

    @property
    def n(self) -> int:
        return self.players.n

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The nonzero ``(required_mask, weight)`` dividends of the game."""
        return tuple((m, Fraction(w, self._den)) for m, w in self._terms)

    def value_of_mask(self, mask: int) -> Fraction:
        if mask < 0 or mask > self.players.full_mask:
            raise GameDefinitionError(f"mask {mask:#x} outside subset range")
        return Fraction(sum(w for req, w in self._terms if mask & req == req), self._den)

    def grand_value(self) -> Fraction:
        return self.value_of_mask(self.players.full_mask)

    def value_table(self) -> tuple[Fraction, ...]:
        """The full table, by the zeta transform of the dividends; refuses above the cap."""
        if self.n > MATERIALIZATION_CAP:
            raise CapacityError(
                f"cannot materialize a {self.n}-player game "
                f"(cap {MATERIALIZATION_CAP}); its dividends solve and audit it without one"
            )
        values = [0] * (1 << self.n)
        for mask, weight in self._terms:
            values[mask] = weight
        _subset_transform(values, self.n, operator.add)
        return tuple(Fraction(v, self._den) for v in values)


def _over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Fractions as integer numerators over their least common denominator."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _subset_transform(values: list[int], n: int, op) -> None:
    """In place, for each bit: every entry with the bit set becomes ``op(it, entry without it)``.

    ``operator.add`` gives the zeta transform (dividends to values),
    ``operator.sub`` the Moebius transform (values to dividends). Low bits are
    updated as strided slices and high bits as contiguous blocks, so each bit
    costs at most about 2^(n/2) slice operations, each of them a loop in C.
    """
    size = 1 << n
    for bit in range(n):
        step = 1 << bit
        span = step << 1
        if step <= size // span:
            for low in range(step):
                values[low + step :: span] = map(op, values[low + step :: span], values[low::span])
        else:
            for base in range(0, size, span):
                upper = slice(base + step, base + span)
                values[upper] = map(op, values[upper], values[base : base + step])


def game_from_table(
    players: PlayerSet,
    entries: Iterable[tuple[Iterable[str], Rationalish]],
    *,
    default_zero: bool = False,
    label: str = "table",
) -> CoalitionGame:
    """Build a game from explicit (coalition, value) rows.

    Rows must cover all ``2**n`` subsets unless ``default_zero`` fills the
    gaps. A duplicate row, an unknown player, a nonzero value for the empty
    coalition or a roster above :data:`MATERIALIZATION_CAP` is an error.
    """
    if players.n > MATERIALIZATION_CAP:
        raise CapacityError(
            f"{label} for {players.n} players needs 2^{players.n} values "
            f"(cap {MATERIALIZATION_CAP} players)"
        )
    values: dict[int, Fraction] = {}
    for subset, value in entries:
        mask = players.mask_of(subset)
        if mask in values:
            raise GameDefinitionError(f"duplicate entry for coalition {players.ids_of(mask)}")
        values[mask] = as_fraction(value)
    if values.get(0, Fraction(0)) != 0:
        raise GameDefinitionError(f"v(empty set) must be 0, got {values[0]}")
    values[0] = Fraction(0)
    size = 1 << players.n
    missing = size - len(values)
    if missing and not default_zero:
        first = itertools.islice((m for m in range(size) if m not in values), 8)
        shown = ", ".join("{" + ",".join(players.ids_of(m)) + "}" for m in first)
        more = "" if missing <= 8 else f" (+{missing - 8} more)"
        raise GameDefinitionError(f"missing coalitions: {shown}{more}")
    return CoalitionGame(players, table=[values.get(m, 0) for m in range(size)], label=label)


def leaf_coverage_game(
    tree: ThreatTree,
    attribution: Mapping[str, Set[str]],
    players: PlayerSet,
    normalized: bool = False,
) -> CoalitionGame:
    """Game counting the leaf conditions a coalition covers on its own.

    A leaf with required authors P is covered by S iff P is nonempty and
    P is a subset of S; a leaf nobody addressed counts for no coalition.
    With ``normalized`` the count is divided by the tree's total leaf count,
    bounding v by 1. The game is the (scaled) sum of one unanimity game per
    addressed leaf and is built from terms, one per such leaf.
    """
    known = set(tree.leaf_ids())
    unknown = sorted(set(attribution) - known)
    if unknown:
        raise GameDefinitionError(f"attribution references unknown leaf ids: {unknown}")
    weight = Fraction(1)
    if normalized:
        if tree.leaf_count == 0:
            raise GameDefinitionError("cannot normalize over a tree with no leaves")
        weight = Fraction(1, tree.leaf_count)
    terms = [(players.mask_of(authors), weight) for authors in attribution.values() if authors]
    label = "leaf-coverage" + ("/normalized" if normalized else "")
    return CoalitionGame(players, terms=terms, label=label)

