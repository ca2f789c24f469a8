"""Exact and sampled Shapley values, plus an axiom auditor.

Three solvers share one result type:

* :func:`shapley_exact` -- exact values, one path per game shape. A
  term-backed game (Harsanyi dividends d_T, as leaf-coverage and unanimity
  games are) is solved in closed form, phi_i = sum of d_T / |T| over the
  terms containing i, in O(terms * n) with no table. Any other game is
  materialized and solved by the subset-sum formula in integers over one
  common denominator, O(n * 2^n) integer work and one Fraction per player.
* :func:`shapley_permutation_oracle` -- enumerates all n! orderings and
  averages marginal contributions. Mathematically the same quantity computed
  a different way, kept as an independent cross-check of the subset solver.
* :func:`shapley_monte_carlo` -- samples orderings. Permutations are derived
  counter-style from (seed, sample index), so any partitioning of sample
  indices across workers reproduces the same estimate bit for bit.

All arithmetic on values is exact rational arithmetic. Fairness disputes
should be about the model, never about floating-point noise.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CapacityError, GameDefinitionError
from .games import MATERIALIZATION_CAP, CoalitionGame, game_add

#: The exact solver refuses larger teams on both paths (the table path holds 2^n values).
EXACT_PLAYER_CAP = MATERIALIZATION_CAP
#: Full permutation enumeration refuses larger teams (n! orderings).
ORACLE_PLAYER_CAP = 9

METHOD_EXACT = "exact-subset"
METHOD_ORACLE = "exact-permutation"
METHOD_MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class ShapleyResult:
    """Per-player values, normalized shares, and solver provenance.

    ``share`` is ``phi_i / sum(phi)`` and is ``None`` when the total is zero
    (a zero game has no meaningful proportions). For the sampling solver,
    ``standard_error`` holds a per-player estimate derived from the sample
    variance of the marginal contributions.
    """

    players: tuple[str, ...]
    phi: dict[str, Fraction]
    method: str
    samples: Optional[int] = None
    seed: Optional[int] = None
    standard_error: Optional[dict[str, float]] = None

    @property
    def total(self) -> Fraction:
        return sum(self.phi.values(), Fraction(0))

    @property
    def share(self) -> Optional[dict[str, Fraction]]:
        total = self.total
        if total == 0:
            return None
        return {p: self.phi[p] / total for p in self.players}

    def phi_vector(self) -> tuple[Fraction, ...]:
        return tuple(self.phi[p] for p in self.players)


def _result(game: CoalitionGame, phi: list[Fraction], method: str, **extra) -> ShapleyResult:
    players = game.players.players
    return ShapleyResult(players=players, phi=dict(zip(players, phi)), method=method, **extra)


def shapley_exact(game: CoalitionGame, cap: int = EXACT_PLAYER_CAP) -> ShapleyResult:
    """Exact values; the path depends on how the game is backed.

    * Term-backed (dividends d_T): ``phi_i = sum of d_T / |T|`` over the
      terms T containing i, in O(terms * n). No table is built, even if one
      is cached on the game.
    * Otherwise the subset sum ``phi_i = sum over S not containing i of
      w(|S|) * (v(S + i) - v(S))``, ``w(s) = s! (n-s-1)! / n!``, on the
      materialized table. With the values scaled to integers over their
      common denominator, each coalition M enters ``n! * phi_i`` once: with
      weight ``W(|M|-1)`` if i is in M and ``-W(|M|)`` if not, where
      ``W(s) = s! (n-s-1)!`` and ``W(n) = 0``. So ``n! * phi_i`` is the sum of
      ``(W(|M|-1) + W(|M|)) * v(M)`` over the M containing i, minus the sum of
      ``W(|M|) * v(M)`` over all M: integer sums over ``2^n`` entries, then one
      Fraction per player.

    Raises
    ------
    CapacityError
        If the team exceeds ``cap``; use :func:`shapley_monte_carlo` instead.
    """
    n = game.n
    if n > cap:
        raise CapacityError(
            f"exact solver capped at {cap} players, got {n}; "
            "use shapley_monte_carlo for teams this large"
        )
    terms = game.terms
    if terms is not None:
        phi = [Fraction(0)] * n
        for mask, dividend in terms:
            share = dividend / mask.bit_count()
            for i in range(n):
                if mask >> i & 1:
                    phi[i] += share
        return _result(game, phi, METHOD_EXACT)

    ivals, den = _integer_table(game)
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s] * fact[n - s - 1] for s in range(n)] + [0]  # W(s); W(n) = 0
    sizes = [m.bit_count() for m in range(1 << n)]
    with_i = [(weight[s - 1] + weight[s]) * v for s, v in zip(sizes, ivals)]
    without = sum(weight[s] * v for s, v in zip(sizes, ivals))
    scale = fact[n] * den
    phi = []
    for i in range(n):
        step = 1 << i
        members = itertools.cycle([False] * step + [True] * step)  # bit i of 0, 1, 2, ...
        phi.append(Fraction(sum(itertools.compress(with_i, members)) - without, scale))
    return _result(game, phi, METHOD_EXACT)


def _integer_table(game: CoalitionGame) -> tuple[list[int], int]:
    """The materialized values as integers over their common denominator."""
    vals = game.value_table()
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def shapley_permutation_oracle(game: CoalitionGame, cap: int = ORACLE_PLAYER_CAP) -> ShapleyResult:
    """Exact values by averaging marginals over all n! orderings.

    Independent of the subset-sum route; both must agree bit for bit. Values
    are put over a common denominator first so the permutation walk runs on
    plain integers, keeping full enumeration affordable up to the cap.
    """
    n = game.n
    if n > cap:
        raise CapacityError(f"permutation enumeration capped at {cap} players, got {n}")
    vals = game.value_table()
    den = math.lcm(*(v.denominator for v in vals))
    ivals = [v.numerator * (den // v.denominator) for v in vals]
    totals = [0] * n
    for perm in itertools.permutations(range(n)):
        mask = 0
        prev = 0
        for p in perm:
            mask |= 1 << p
            cur = ivals[mask]
            totals[p] += cur - prev
            prev = cur
    scale = math.factorial(n) * den
    phi = [Fraction(t, scale) for t in totals]
    return _result(game, phi, METHOD_ORACLE)


# --------------------------------------------------------------------------
# Monte-Carlo sampling
# --------------------------------------------------------------------------


class _CounterStream:
    """Deterministic 64-bit word stream keyed by (seed, sample index).

    SHA-256 of ``seed:index:block`` yields four words per block. The stream
    depends only on its key, never on call interleaving, which is what makes
    worker-count-independent sampling possible.
    """

    __slots__ = ("_prefix", "_block", "_words")

    def __init__(self, seed: int, index: int):
        self._prefix = b"%d:%d:" % (seed, index)
        self._block = 0
        self._words: list[int] = []

    def _word(self) -> int:
        if not self._words:
            digest = hashlib.sha256(self._prefix + b"%d" % self._block).digest()
            self._block += 1
            self._words = [int.from_bytes(digest[k : k + 8], "big") for k in (24, 16, 8, 0)]
        return self._words.pop()

    def randbelow(self, bound: int) -> int:
        # rejection sampling keeps the draw unbiased
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self._word()
            if w < limit:
                return w % bound


def sample_permutation(seed: int, index: int, n: int) -> list[int]:
    """The permutation used for sample ``index`` under ``seed`` (Fisher-Yates)."""
    stream = _CounterStream(seed, index)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _mc_chunk_table(ivals, n, seed, start, stop):
    """Integer marginal sums and sums of squares for samples [start, stop)."""
    totals = [0] * n
    sq = [0] * n
    for index in range(start, stop):
        perm = sample_permutation(seed, index, n)
        mask = 0
        prev = 0
        for p in perm:
            mask |= 1 << p
            cur = ivals[mask]
            diff = cur - prev
            totals[p] += diff
            sq[p] += diff * diff
            prev = cur
    return totals, sq


def shapley_monte_carlo(
    game: CoalitionGame,
    samples: int,
    seed: int,
    workers: int = 1,
) -> ShapleyResult:
    """Estimate values from uniformly sampled orderings.

    The estimate for player i is the mean marginal contribution over
    ``samples`` permutations. Because each permutation's marginals telescope
    to v(N), the estimates sum to v(N) *exactly* at every sample count. The
    permutation for sample k depends only on ``(seed, k)``, so results are
    identical for any ``workers`` value.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = game.n

    if n <= MATERIALIZATION_CAP:
        ivals, den = _integer_table(game)
        worker_fn = lambda lohi: _mc_chunk_table(ivals, n, seed, *lohi)  # noqa: E731
    else:
        den = None
        worker_fn = lambda lohi: _mc_chunk_rule(game, seed, *lohi)  # noqa: E731

    chunk = max(1, math.ceil(samples / workers))
    ranges = [(lo, min(lo + chunk, samples)) for lo in range(0, samples, chunk)]
    if len(ranges) == 1:
        parts = [worker_fn(ranges[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker_fn, ranges))

    totals = [sum(part[0][i] for part in parts) for i in range(n)]
    squares = [sum(part[1][i] for part in parts) for i in range(n)]

    if den is not None:
        phi = [Fraction(t, samples * den) for t in totals]
        mean_sq = [Fraction(s, den * den) for s in squares]
    else:
        phi = [t / samples for t in totals]
        mean_sq = squares

    stderr: dict[str, float] = {}
    for i, player in enumerate(game.players.players):
        if samples < 2:
            stderr[player] = 0.0
            continue
        # exact sample variance of the marginals, converted to float at the end
        variance = (mean_sq[i] - samples * phi[i] * phi[i]) / (samples - 1)
        stderr[player] = math.sqrt(float(variance) / samples)

    return _result(
        game,
        phi,
        METHOD_MONTE_CARLO,
        samples=samples,
        seed=seed,
        standard_error=stderr,
    )


def _mc_chunk_rule(game: CoalitionGame, seed: int, start: int, stop: int):
    """Fraction-arithmetic fallback for games too large to materialize."""
    n = game.n
    totals = [Fraction(0)] * n
    sq = [Fraction(0)] * n
    for index in range(start, stop):
        perm = sample_permutation(seed, index, n)
        mask = 0
        prev = Fraction(0)
        for p in perm:
            mask |= 1 << p
            cur = game.value_of_mask(mask)
            diff = cur - prev
            totals[p] += diff
            sq[p] += diff * diff
            prev = cur
    return totals, sq


# --------------------------------------------------------------------------
# Axiom audit
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Deterministic audit of a value vector against the fairness axioms.

    ``symmetry_violations`` lists interchangeable player pairs that received
    different amounts; ``null_player_violations`` lists players whose marginal
    contribution is zero everywhere yet received a nonzero amount. Either is
    ``None`` when the structural scan was skipped for capacity. ``linearity_ok``
    is ``None`` unless a second game was supplied.
    """

    efficiency_residual: Fraction
    symmetry_violations: Optional[tuple[tuple[str, str], ...]]
    null_player_violations: Optional[tuple[str, ...]]
    linearity_ok: Optional[bool] = None

    @property
    def efficiency_ok(self) -> bool:
        return self.efficiency_residual == 0

    @property
    def all_ok(self) -> bool:
        return (
            self.efficiency_ok
            and not self.symmetry_violations
            and not self.null_player_violations
            and self.linearity_ok is not False
        )


def _swap_bits(mask: int, i: int, j: int) -> int:
    if (mask >> i ^ mask >> j) & 1:
        return mask ^ (1 << i | 1 << j)
    return mask


def _term_interchangeable(dividends: dict[int, Fraction], i: int, j: int) -> bool:
    """Swapping players i and j maps the dividend map onto itself."""
    return all(dividends.get(_swap_bits(m, i, j)) == d for m, d in dividends.items())


def _term_is_null(dividends: dict[int, Fraction], i: int) -> bool:
    return not any(m >> i & 1 for m in dividends)


def _interchangeable(vals, n, i, j) -> bool:
    full = (1 << n) - 1
    rest = full & ~(1 << i) & ~(1 << j)
    sub = rest
    while True:
        if vals[sub | (1 << i)] != vals[sub | (1 << j)]:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & rest


def _is_null(vals, n, i) -> bool:
    full = (1 << n) - 1
    rest = full ^ (1 << i)
    sub = rest
    while True:
        if vals[sub | (1 << i)] != vals[sub]:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & rest


def check_axioms(
    game: CoalitionGame,
    result: ShapleyResult,
    w: Optional[CoalitionGame] = None,
    *,
    scan_cap: int = EXACT_PLAYER_CAP,
) -> AxiomReport:
    """Audit ``result`` against the game it claims to divide.

    * efficiency: residual ``sum(phi) - v(N)`` (zero means nothing is left
      over and nothing is invented);
    * symmetry: every pair contributing identically must be paid identically;
    * null player: a player who never changes any coalition's value must
      receive zero;
    * linearity: with a second game ``w``, payments for ``v + w`` must equal
      the sum of the separate payments (checked with the exact solver).

    The symmetry/null scans are skipped (fields left ``None``) above
    ``scan_cap`` players. A term-backed game is audited from its dividends,
    which are unique (the Moebius inverse of v): player i is null iff no term
    contains i, and i, j are interchangeable iff swapping them maps the term
    map onto itself. Any other game is scanned over its materialized table.
    """
    players = game.players.players
    if set(result.players) != set(players):
        raise GameDefinitionError("result players do not match game players")
    residual = result.total - game.grand_value()

    symmetry: Optional[tuple[tuple[str, str], ...]] = None
    nulls: Optional[tuple[str, ...]] = None
    n = game.n
    if n <= scan_cap:
        terms = game.terms
        if terms is not None:
            dividends = dict(terms)
            interchangeable = functools.partial(_term_interchangeable, dividends)
            is_null = functools.partial(_term_is_null, dividends)
        else:
            vals = game.value_table()
            interchangeable = functools.partial(_interchangeable, vals, n)
            is_null = functools.partial(_is_null, vals, n)
        sym_violations = []
        for i in range(n):
            for j in range(i + 1, n):
                if interchangeable(i, j) and result.phi[players[i]] != result.phi[players[j]]:
                    sym_violations.append((players[i], players[j]))
        symmetry = tuple(sym_violations)
        nulls = tuple(
            players[i] for i in range(n) if is_null(i) and result.phi[players[i]] != 0
        )

    linearity_ok: Optional[bool] = None
    if w is not None:
        phi_v = shapley_exact(game).phi
        phi_w = shapley_exact(w).phi
        phi_vw = shapley_exact(game_add(game, w)).phi
        linearity_ok = all(phi_vw[p] == phi_v[p] + phi_w[p] for p in players)

    return AxiomReport(
        efficiency_residual=residual,
        symmetry_violations=symmetry,
        null_player_violations=nulls,
        linearity_ok=linearity_ok,
    )
