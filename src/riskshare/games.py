"""Coalition games over an ordered player set, with exact rational values.

A game is a total value function v over subsets of the player set with
v(empty) = 0. Subsets are encoded canonically as bitmasks over the player
ordering. A game is backed in one of three ways:

* a full table of ``2**n`` values (coalition tables, subset rebuild results);
* Harsanyi-dividend terms: v(S) is the sum of the weights d_T of the terms
  whose required set T lies inside S. Unanimity and leaf-coverage games come
  in this basis, it stays closed under addition and scaling, and a game with
  k terms costs O(k) per evaluation and O(k) memory at any team size;
* an arbitrary rule (mask -> value), evaluated on demand.

Any game within :data:`MATERIALIZATION_CAP` can also be materialized into a
table on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Set

from .errors import CapacityError, GameDefinitionError
from .intervals import Rationalish, as_fraction
from .risk import ThreatTree

#: Full value tables are only built up to this many players; beyond it games
#: must stay term- or rule-backed and be solved by sampling.
MATERIALIZATION_CAP = 24


@dataclass(frozen=True)
class PlayerSet:
    """Ordered, unique player ids; the ordering fixes the subset encoding."""

    players: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(str(p) for p in self.players))
        if not self.players:
            raise GameDefinitionError("player set must not be empty")
        index = {}
        for k, p in enumerate(self.players):
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

    def index(self, player: str) -> int:
        try:
            return self._index[player]
        except KeyError:
            raise GameDefinitionError(f"unknown player {player!r}") from None

    def mask_of(self, subset: Iterable[str]) -> int:
        mask = 0
        for player in subset:
            mask |= 1 << self.index(player)
        return mask

    def ids_of(self, mask: int) -> tuple[str, ...]:
        return tuple(p for k, p in enumerate(self.players) if mask >> k & 1)


class CoalitionGame:
    """Immutable value function over subsets of a fixed player set.

    Exactly one of three backings is given:

    * ``table`` -- ``2**n`` values indexed by subset mask;
    * ``terms`` -- ``(required_mask, weight)`` Harsanyi dividends, with
      v(S) = sum of the weights whose required mask lies inside S. Duplicate
      masks are merged and zero weights dropped; weights are held as integers
      over one common denominator, so an evaluation costs one integer sum;
    * ``rule`` -- any mask -> Fraction function.

    :meth:`value_table` materializes any backing on demand (and caches it);
    term-backed games keep their terms, which the exact solver and the axiom
    audit prefer over a table. ``label`` is a short provenance string carried
    into reports.
    """

    __slots__ = ("players", "label", "_table", "_rule", "_terms", "_den")

    def __init__(
        self,
        players: PlayerSet,
        *,
        table: Optional[Iterable[Rationalish]] = None,
        rule: Optional[Callable[[int], Fraction]] = None,
        terms: Optional[Iterable[tuple[int, Rationalish]]] = None,
        label: str = "custom",
    ):
        if [table, rule, terms].count(None) != 2:
            raise GameDefinitionError("provide exactly one of table, rule or terms")
        self.players = players
        self.label = label
        self._rule = rule
        self._table = None
        self._terms = None
        self._den = 1
        if table is not None:
            values = tuple(as_fraction(v) for v in table)
            if len(values) != 1 << players.n:
                raise GameDefinitionError(
                    f"table has {len(values)} entries, expected {1 << players.n}"
                )
            if values[0] != 0:
                raise GameDefinitionError(f"v(empty set) must be 0, got {values[0]}")
            self._table = values
        elif terms is not None:
            merged: dict[int, Fraction] = {}
            for mask, weight in terms:
                if not 0 < mask <= players.full_mask:
                    raise GameDefinitionError(f"term mask {mask:#x} outside nonempty subset range")
                merged[mask] = merged.get(mask, Fraction(0)) + as_fraction(weight)
            kept = [(m, w) for m, w in merged.items() if w != 0]
            self._den = math.lcm(*(w.denominator for _, w in kept))
            self._terms = tuple((m, w.numerator * (self._den // w.denominator)) for m, w in kept)

    @property
    def n(self) -> int:
        return self.players.n

    @property
    def materialized(self) -> bool:
        return self._table is not None

    @property
    def terms(self) -> Optional[tuple[tuple[int, Fraction], ...]]:
        """The ``(required_mask, weight)`` dividends of a term-backed game, else ``None``."""
        if self._terms is None:
            return None
        return tuple((m, Fraction(w, self._den)) for m, w in self._terms)

    def value_of_mask(self, mask: int) -> Fraction:
        if mask < 0 or mask > self.players.full_mask:
            raise GameDefinitionError(f"mask {mask:#x} outside subset range")
        if self._table is not None:
            return self._table[mask]
        if self._terms is not None:
            return Fraction(sum(w for req, w in self._terms if mask & req == req), self._den)
        return as_fraction(self._rule(mask))

    def evaluate(self, subset: Iterable[str]) -> Fraction:
        """v(S) for a subset given as player ids."""
        return self.value_of_mask(self.players.mask_of(subset))

    def grand_value(self) -> Fraction:
        return self.value_of_mask(self.players.full_mask)

    def value_table(self) -> tuple[Fraction, ...]:
        """Materialize (and cache) the full table; refuses above the cap."""
        if self._table is None:
            if self.n > MATERIALIZATION_CAP:
                raise CapacityError(
                    f"cannot materialize a {self.n}-player game "
                    f"(cap {MATERIALIZATION_CAP}); use the sampling solver"
                )
            self._table = tuple(self.value_of_mask(m) for m in range(1 << self.n))
            if self._table[0] != 0:
                raise GameDefinitionError(f"v(empty set) must be 0, got {self._table[0]}")
        return self._table


def game_from_table(
    players: PlayerSet,
    entries: Iterable[tuple[Iterable[str], Rationalish]],
    *,
    default_zero: bool = False,
    label: str = "table",
) -> CoalitionGame:
    """Build a game from explicit (coalition, value) rows.

    Rows must cover all ``2**n`` subsets unless ``default_zero`` fills the
    gaps. A duplicate row, an unknown player, or a nonzero value for the
    empty coalition is an error.
    """
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
    if len(values) != size:
        if not default_zero:
            missing = [players.ids_of(m) for m in range(size) if m not in values]
            shown = ", ".join("{" + ",".join(m) + "}" for m in missing[:8])
            more = "" if len(missing) <= 8 else f" (+{len(missing) - 8} more)"
            raise GameDefinitionError(f"missing coalitions: {shown}{more}")
        for m in range(size):
            values.setdefault(m, Fraction(0))
    return CoalitionGame(players, table=[values[m] for m in range(size)], label=label)


def unanimity_game(players: PlayerSet, required: Iterable[str]) -> CoalitionGame:
    """Game worth 1 exactly on supersets of ``required``, else 0.

    This is the pattern induced by a reviewed pull request: the change counts
    only when everyone whose commits it contains is present.
    """
    req_mask = players.mask_of(required)
    if req_mask == 0:
        raise GameDefinitionError("required set must be nonempty (v(empty) would be 1)")
    return CoalitionGame(
        players,
        terms=[(req_mask, 1)],
        label=f"unanimity{sorted(players.ids_of(req_mask))}",
    )


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
    addressed leaf and is built term-backed, one term per such leaf.
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


def _require_same_players(v: CoalitionGame, w: CoalitionGame):
    if v.players.players != w.players.players:
        raise GameDefinitionError(
            f"player sets differ: {v.players.players} vs {w.players.players}"
        )


def game_add(v: CoalitionGame, w: CoalitionGame) -> CoalitionGame:
    """Pointwise sum; requires identical player sets (same ids, same order).

    The sum of two term-backed games is term-backed (dividends add).
    """
    _require_same_players(v, w)
    label = f"({v.label})+({w.label})"
    if v.terms is not None and w.terms is not None:
        return CoalitionGame(v.players, terms=v.terms + w.terms, label=label)
    return CoalitionGame(
        v.players,
        rule=lambda mask: v.value_of_mask(mask) + w.value_of_mask(mask),
        label=label,
    )


def game_scale(v: CoalitionGame, c: Rationalish) -> CoalitionGame:
    """Pointwise scaling by an exact rational factor; keeps a term backing."""
    c = as_fraction(c)
    label = f"{c}*({v.label})"
    if v.terms is not None:
        return CoalitionGame(v.players, terms=[(m, c * d) for m, d in v.terms], label=label)
    return CoalitionGame(
        v.players,
        rule=lambda mask: c * v.value_of_mask(mask),
        label=label,
    )


def evaluate(game: CoalitionGame, subset: Iterable[str]) -> Fraction:
    """Module-level alias for :meth:`CoalitionGame.evaluate`."""
    return game.evaluate(subset)
