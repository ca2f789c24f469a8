"""Coalition games over an ordered player set, with exact rational values.

A game is a total value function v over subsets of the player set with
v(empty) = 0. Subsets are encoded canonically as bitmasks over the player
ordering. Every game is held the same way, as Harsanyi dividends: v(S) is the
sum of the weights d_T of the terms whose required set T lies inside S.
Every evidence-to-game builder is here. :func:`leaf_coverage_game` gives one
term per addressed leaf (one unanimity game each), and a game with k terms
costs O(k) per evaluation and O(k) memory at any team size. A full table of
``2**n`` values (:func:`game_from_table`, :func:`game_from_subset_results`)
is an input form only: it is converted once by the Moebius transform, whose
result is unique, and :meth:`value_table` rebuilds it by the inverse (zeta)
transform within :data:`MATERIALIZATION_CAP`. Both transforms run in integers
over one common denominator in O(n * 2^n).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Set

from ._frozen import frozen
from .errors import CapacityError, GameDefinitionError
from .intervals import Rationalish, _ratio, as_fraction
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
        bits = {}
        for k, p in enumerate(self.players):
            if not isinstance(p, str):
                raise GameDefinitionError(f"player id {p!r} is not a string")
            if not p:
                raise GameDefinitionError("a player id must not be empty")
            if p in bits:
                raise GameDefinitionError(f"duplicate player id {p!r}")
            bits[p] = 1 << k
        object.__setattr__(self, "_bits", bits)  # each id's bit in a mask

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, subset: Iterable[str]) -> int:
        """The bitmask of ``subset``; an unknown id raises, naming every unknown id of the subset, sorted."""
        bits = self._bits
        mask = 0
        players = iter(subset)
        for player in players:
            try:
                mask |= bits[player]
            except KeyError:  # the ids before ``player`` are known; look for others only among the rest
                unknown = sorted({player, *(p for p in players if p not in bits)})
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
            self._hold_table(*_over_common_denominator(values))
        else:
            merged: dict[int, Fraction] = {}
            for mask, weight in terms:
                if not 0 < mask <= players.full_mask:
                    raise GameDefinitionError(f"term mask {mask:#x} outside nonempty subset range")
                merged[mask] = merged.get(mask, Fraction(0)) + as_fraction(weight)
            weights, self._den = _over_common_denominator(merged.values())
            self._terms = tuple((m, w) for m, w in zip(merged, weights) if w)

    def _hold_table(self, numerators: list[int], den: int) -> CoalitionGame:
        """The game holds v(mask) = ``numerators[mask] / den``, unchecked, as its dividends: the one way every
        table builder makes a game. The list is Moebius-transformed in place."""
        _subset_transform(numerators, self.players.n, operator.sub)
        self._terms = tuple(filter(operator.itemgetter(1), enumerate(numerators)))  # the nonzero (mask, dividend)
        self._den = den
        return self

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


def _check_capacity(players: PlayerSet, label: str) -> None:
    if players.n > MATERIALIZATION_CAP:
        n = players.n
        raise CapacityError(f"{label} for {n} players needs 2^{n} values (cap {MATERIALIZATION_CAP} players)")


def _leaf_weight(tree: ThreatTree, normalized: bool) -> Fraction:
    """The value of one leaf: 1, or one over the tree's leaf count with ``normalized``."""
    if not normalized:
        return Fraction(1)
    if tree.leaf_count == 0:
        raise GameDefinitionError("cannot normalize over a tree with no leaves")
    return Fraction(1, tree.leaf_count)


def _table_game(players: PlayerSet, nums: list, dens: list[int], label: str, default_zero=False) -> CoalitionGame:
    """The game whose v(mask) is ``nums[mask] / dens[mask]``, a None numerator marking a coalition with no row.

    v(empty) is 0, and each coalition needs a row unless ``default_zero``. ``nums`` is changed in place.
    """
    if nums[0]:
        raise GameDefinitionError(f"v(empty set) must be 0, got {Fraction(nums[0], dens[0])}")
    nums[0] = 0
    missing = nums.count(None)
    if missing:
        if not default_zero:
            first = itertools.islice((m for m, v in enumerate(nums) if v is None), 8)
            shown = ", ".join("{" + ",".join(players.ids_of(m)) + "}" for m in first)
            more = "" if missing <= 8 else f" (+{missing - 8} more)"
            raise GameDefinitionError(f"missing coalitions: {shown}{more}")
        nums = [v or 0 for v in nums]
    den = math.lcm(*dens)
    if den > 1:
        nums = [v * (den // d) for v, d in zip(nums, dens)]
    game = CoalitionGame.__new__(CoalitionGame)  # the rows are checked: no second check of every value
    game.players, game.label = players, label
    return game._hold_table(nums, den)


def game_from_table(
    players: PlayerSet,
    entries: Iterable[tuple[Iterable[str], Rationalish]],
    *,
    default_zero: bool = False,
    label: str = "table",
) -> CoalitionGame:
    """Build a game from explicit (coalition, value) rows.

    Rows must cover all ``2**n`` subsets unless ``default_zero`` fills the
    gaps. A roster above :data:`MATERIALIZATION_CAP` (checked before any row),
    a duplicate row, an unknown player or a nonzero value for the empty
    coalition is an error.
    """
    _check_capacity(players, label)
    bits = players._bits
    size = 1 << players.n
    nums, dens = [None] * size, [1] * size
    for subset, value in entries:
        if type(subset) is not list:
            subset = list(subset)
        try:
            mask = sum(map(bits.__getitem__, subset))
        except KeyError:  # an unknown id
            mask = 0
        if mask.bit_count() != len(subset):  # an unknown id, which mask_of names, or a repeated one, which it ORs
            mask = players.mask_of(subset)
        if nums[mask] is not None:
            raise GameDefinitionError(f"duplicate entry for coalition {players.ids_of(mask)}")
        nums[mask], dens[mask] = _ratio(value)
    return _table_game(players, nums, dens, label, default_zero)


def game_from_subset_results(
    results: Iterable[tuple[Iterable[str], Iterable[str]]],
    tree: ThreatTree,
    players: PlayerSet,
    normalized: bool = False,
) -> CoalitionGame:
    """Build a game from ``(subset, passing)`` rows: the leaves that passed when only ``subset``'s commits were rebuilt.

    v(S) counts S's passing leaves (as a share of the tree's with ``normalized``).
    Unknown leaves or players, conflicting duplicates (in any id order) and a
    nonempty pass list for the empty coalition are errors, found before the
    player cap; so is a coalition with no row.
    """
    weight = _leaf_weight(tree, normalized)
    known = set(tree.leaf_ids())
    passing: dict[int, frozenset[str]] = {}
    for subset, leaves in results:
        leaves = frozenset(leaves)
        if not leaves <= known:
            raise GameDefinitionError(f"subset result references unknown leaf ids: {sorted(leaves - known)}")
        mask = players.mask_of(subset)
        if passing.setdefault(mask, leaves) != leaves:
            raise GameDefinitionError(f"conflicting duplicate results for coalition {players.ids_of(mask)}")
        if not mask and leaves:
            raise GameDefinitionError(f"empty coalition cannot pass leaves, got {sorted(leaves)}")
    _check_capacity(players, "subset-results")
    counts = [None] * (1 << players.n)
    for mask, leaves in passing.items():
        counts[mask] = len(leaves)
    # a leaf is worth 1 over the weight's denominator
    return _table_game(players, counts, [weight.denominator] * len(counts), "subset-results")


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
    weight = _leaf_weight(tree, normalized)
    terms = [(players.mask_of(authors), weight) for authors in attribution.values() if authors]
    label = "leaf-coverage" + ("/normalized" if normalized else "")
    return CoalitionGame(players, terms=terms, label=label)
