"""Exact and sampled Shapley values, plus an axiom auditor.

Every game is held as Harsanyi dividends d_T (see :mod:`riskshare.games`), so
each solver has one path, on the game's integer dividends over its common
denominator:

* :func:`shapley_exact` -- the closed form phi_i = sum of d_T / |T| over the
  terms containing i (each dividend split equally among its members), in
  O(terms * n) integer work and one Fraction per player, at every team size.
  It is the one exact solver the command line runs.
* :func:`shapley_permutation_oracle` -- enumerates all n! orderings of the
  value table and averages marginal contributions. Mathematically the same
  quantity computed a different way, kept as an independent cross-check for
  the tests (up to :data:`ORACLE_PLAYER_CAP` players).
* :func:`shapley_monte_carlo` -- samples orderings and credits each dividend
  to the member of its term who arrives last, at any team size and with no
  table, in O(n + terms) per sample. Permutations are derived counter-style
  from (seed, sample index), so a seed always reproduces the same estimate.

A dense table (close to 2^n nonzero dividends) therefore costs O(n * 2^n)
to solve exactly and O(2^n) per sample, so a few samples cost more than the
exact solve; no game riskshare builds from repository evidence is dense.

All arithmetic on values is exact rational arithmetic. Fairness disputes
should be about the model, never about floating-point noise.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import sys
from fractions import Fraction
from typing import Optional

from ._frozen import frozen
from .errors import CapacityError, GameDefinitionError
from .games import CoalitionGame, _over_common_denominator

#: Full permutation enumeration refuses larger teams (n! orderings).
ORACLE_PLAYER_CAP = 9

METHOD_EXACT = "exact-subset"
METHOD_ORACLE = "exact-permutation"
METHOD_MONTE_CARLO = "monte-carlo"

_SPAN = 1 << 64  # values of one stream word
_FOUR_WORDS = struct.Struct(">4Q")


@frozen
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


def _result(game: CoalitionGame, phi: list[Fraction], method: str, **extra) -> ShapleyResult:
    players = game.players.players
    return ShapleyResult(players=players, phi=dict(zip(players, phi)), method=method, **extra)


def shapley_exact(game: CoalitionGame) -> ShapleyResult:
    """Exact values in closed form from the game's dividends.

    ``phi_i = sum of d_T / |T|`` over the terms T containing i. With the
    dividends as integers over their common denominator ``den`` and
    ``L = lcm(1..n)``, ``phi_i * L * den`` is the integer sum of
    ``d_T * (L / |T|)`` over those terms: O(terms * n) integer additions,
    then one Fraction per player. No table is built, so it runs at every
    team size.
    """
    n = game.n
    lcm = math.lcm(*range(1, n + 1))
    totals = [0] * n
    for mask, weight in game._terms:
        share = weight * (lcm // mask.bit_count())
        while mask:
            low = mask & -mask
            totals[low.bit_length() - 1] += share
            mask ^= low
    scale = lcm * game._den
    return _result(game, [Fraction(t, scale) for t in totals], METHOD_EXACT)


def shapley_permutation_oracle(game: CoalitionGame) -> ShapleyResult:
    """Exact values by averaging marginals over all n! orderings.

    Independent of the dividends: it walks the value table, and must agree
    with :func:`shapley_exact` bit for bit. Values are put over a common
    denominator first so the permutation walk runs on plain integers, keeping
    full enumeration affordable up to :data:`ORACLE_PLAYER_CAP`.
    """
    n = game.n
    if n > ORACLE_PLAYER_CAP:
        raise CapacityError(f"permutation enumeration capped at {ORACLE_PLAYER_CAP} players, got {n}")
    ivals, den = _over_common_denominator(game.value_table())
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


def _words(seed: int, index: int):
    """Deterministic 64-bit word stream keyed by (seed, sample index).

    SHA-256 of ``seed:index:block`` yields four big-endian words per block,
    bytes 0-8 first. The stream depends only on its key, never on call
    interleaving, so sample k is the same permutation whatever other samples
    are drawn.
    """
    sha256 = _sha256()
    prefix = b"%d:%d:" % (seed, index)
    for block in itertools.count():
        yield from _FOUR_WORDS.unpack(sha256(prefix + b"%d" % block).digest())


@functools.cache
def _sha256():
    """CPython's own SHA-256 constructor, imported on the first sample and not at start-up.

    ``hashlib`` would load OpenSSL, about 3.5 MiB more memory, for the same digests; it is used by other
    interpreters, whose modules of these names may be written in Python, and by a CPython built without them.
    """
    if sys.implementation.name == "cpython":
        for name in ("_sha2", "_sha256"):  # CPython 3.12 and later; 3.10 and 3.11
            try:
                return __import__(name).sha256
            except ImportError:
                pass
    from hashlib import sha256
    return sha256


def sample_permutation(seed: int, index: int, n: int) -> list[int]:
    """The permutation used for sample ``index`` under ``seed`` (Fisher-Yates)."""
    words = _words(seed, index)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        w = next(words)
        while w >= _SPAN - _SPAN % (i + 1):  # rejection sampling keeps the draw unbiased
            w = next(words)
        j = w % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def shapley_monte_carlo(game: CoalitionGame, samples: int, seed: int) -> ShapleyResult:
    """Estimate values from uniformly sampled orderings.

    The estimate for player i is the mean marginal contribution over
    ``samples`` permutations. Because each permutation's marginals telescope
    to v(N), the estimates sum to v(N) *exactly* at every sample count. The
    permutation for sample k depends only on ``(seed, k)``. Marginals are
    integer sums of the game's dividends over its common denominator: a term
    T adds its weight to v(S) once all of T is in S, so its weight is the
    marginal of the member of T who arrives last, the first one met walking
    the permutation backwards. Each player holds a bitmask of its terms, so a
    sample costs O(n + terms) at any team size and no table is built.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = game.n
    den = game._den
    weights = [w for _, w in game._terms]
    holds = [0] * n  # bit t of holds[p]: player p is a member of term t
    for t, (mask, _) in enumerate(game._terms):
        for p in range(n):
            holds[p] |= (mask >> p & 1) << t
    every = (1 << len(weights)) - 1
    totals = [0] * n
    squares = [0] * n
    for index in range(samples):
        left = every  # terms whose last member has not been met yet
        for p in reversed(sample_permutation(seed, index, n)):
            got = holds[p] & left
            if got:
                left ^= got
                diff = 0
                while got:
                    low = got & -got
                    diff += weights[low.bit_length() - 1]
                    got ^= low
                totals[p] += diff
                squares[p] += diff * diff
                if not left:
                    break
    phi = [Fraction(t, samples * den) for t in totals]

    stderr: dict[str, float] = {}
    for i, player in enumerate(game.players.players):
        variance = Fraction(0)
        if samples > 1:  # exact sample variance of the marginals, converted to float at the end
            variance = (Fraction(squares[i], den * den) - samples * phi[i] * phi[i]) / (samples - 1)
        try:
            stderr[player] = math.sqrt(float(variance) / samples)
        except OverflowError:
            raise CapacityError(
                f"standard error of {player!r} is beyond float range; use solver method 'exact'"
            ) from None

    return _result(
        game,
        phi,
        METHOD_MONTE_CARLO,
        samples=samples,
        seed=seed,
        standard_error=stderr,
    )


# --------------------------------------------------------------------------
# Axiom audit
# --------------------------------------------------------------------------


@frozen
class AxiomReport:
    """Deterministic audit of a value vector against the fairness axioms.

    ``symmetry_violations`` lists interchangeable player pairs that received
    different amounts; it is ``None`` for a sampled estimate, which is
    symmetric only in expectation and so is not audited for symmetry.
    ``null_player_violations`` lists players whose marginal contribution is
    zero everywhere yet received a nonzero amount; every result is scanned.
    """

    efficiency_residual: Fraction
    symmetry_violations: Optional[tuple[tuple[str, str], ...]]
    null_player_violations: tuple[str, ...]

    @property
    def efficiency_ok(self) -> bool:
        return self.efficiency_residual == 0


def _swap_bits(mask: int, i: int, j: int) -> int:
    if (mask >> i ^ mask >> j) & 1:
        return mask ^ (1 << i | 1 << j)
    return mask


def _interchangeable(dividends: dict[int, int], i: int, j: int) -> bool:
    """Swapping players i and j maps the dividend map onto itself."""
    return all(dividends.get(_swap_bits(m, i, j)) == d for m, d in dividends.items())


def _is_null(dividends: dict[int, int], i: int) -> bool:
    return not any(m >> i & 1 for m in dividends)


def check_axioms(game: CoalitionGame, result: ShapleyResult) -> AxiomReport:
    """Audit ``result`` against the game it claims to divide.

    * efficiency: residual ``sum(phi) - v(N)`` (zero means nothing is left
      over and nothing is invented);
    * symmetry: every pair contributing identically must be paid identically
      (not audited for a sampled result, ``result.samples`` set: estimates are
      symmetric only in expectation);
    * null player: a player who never changes any coalition's value must
      receive zero (the sampler pays such a player exactly zero, so sampled
      results are scanned too).

    Linearity needs a second game and is not audited: :func:`shapley_exact`
    splits each dividend on its own, so it is additive by construction.

    The symmetry and null scans read the game's dividends, which are unique
    (the Moebius inverse of v): player i is null iff no term contains i, and
    i, j are interchangeable iff swapping them maps the term map onto itself.
    They cost O(n^2 * terms) at most and run at every team size.
    """
    players = game.players.players
    if set(result.players) != set(players):
        raise GameDefinitionError("result players do not match game players")
    residual = result.total - game.grand_value()
    phi = [result.phi[p] for p in players]
    dividends = dict(game._terms)
    n = game.n

    symmetry: Optional[tuple[tuple[str, str], ...]] = None
    if result.samples is None:
        symmetry = tuple(
            (players[i], players[j])
            for i in range(n)
            for j in range(i + 1, n)
            if phi[i] != phi[j] and _interchangeable(dividends, i, j)
        )
    nulls = tuple(players[i] for i in range(n) if phi[i] != 0 and _is_null(dividends, i))

    return AxiomReport(efficiency_residual=residual, symmetry_violations=symmetry, null_player_violations=nulls)
