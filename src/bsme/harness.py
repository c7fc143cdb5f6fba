"""Adversarial attacks and concentration-bound checks at desk scale.

Every check returns one of two reports, each carrying the theoretical bound
it was checked against, computed from the relevant formula at run time
(never hard-coded), and a pass flag meaning "the observation stayed within
the bound".  An :class:`AttackReport` counts successes over Monte Carlo
trials; its bounds get a 2x slack factor, or 4x where the leading constant
is unknown.  An :class:`ExactReport` holds a value found by enumeration or
exhaustive search and compares it without slack.  Oversized regimes raise
:class:`RegimeError` instead of sampling their way to a misleading answer,
and a Monte Carlo check asked for fewer than one trial raises ValueError, as
does an attack report built with fewer than one trial.

The random subsets of the Monte Carlo checks (theta targets, lemma samples
and error sets) come from the source's block sampler ``_uniform_subset``,
the one the protocol's own position draws use, not from ``random.sample``:
the same seed gives other subsets than ``random.sample`` would, with the
same uniform distribution.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass

from .bits import BitString, IndexSet
from .codes import LinearCode, fuzzy_ext
from .gf2 import low_weight
from .hashing import ToeplitzHash, seed_length, strong_extract
from .infomath import (
    Distribution,
    binary_entropy,
    ceil_tol,
    cond_min_entropy,
    floor_tol,
    statistical_distance,
    subset_size_for,
)
from .ihash import Querier, solve_pair
from .source import _uniform_subset

__all__ = [
    "RegimeError",
    "AttackReport",
    "ExactReport",
    "binding_attack",
    "hiding_distance",
    "ot_offbranch_distance",
    "ih_theta_attack",
    "lemma_birthday",
    "lemma_subset_hd",
    "lemma_binom_bound",
    "lemma_entropy_hd",
]

MONTE_CARLO_SLACK = 2.0
UNKNOWN_CONSTANT_SLACK = 4.0


class RegimeError(ValueError):
    """The requested parameters exceed what exact analysis can cover."""


@dataclass(frozen=True)
class AttackReport:
    name: str
    trials: int
    successes: int
    bound: float
    bound_formula: str

    def __post_init__(self):
        _check_trials(self.trials)

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def passed(self) -> bool:
        return self.rate <= self.bound

    def line(self) -> str:
        return (
            f"attack={self.name} trials={self.trials} successes={self.successes} "
            f"rate={self.rate:.6g} bound={self.bound:.6g} pass={self.passed}"
        )


@dataclass(frozen=True)
class ExactReport:
    """An exact value against its bound: at most the bound, or with
    ``at_least`` at least the bound up to ``floor_tol``'s float dust."""

    name: str
    value: float
    bound: float
    bound_formula: str
    at_least: bool = False
    min_entropy: float | None = None

    @property
    def passed(self) -> bool:
        if self.at_least:
            return self.value >= self.bound - 1e-9
        return self.value <= self.bound

    def line(self) -> str:
        entropy = "" if self.min_entropy is None else f" min_entropy={self.min_entropy:.6g}"
        return (
            f"attack={self.name} value={self.value:.6g} bound={self.bound:.6g}"
            f"{entropy} pass={self.passed}"
        )


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("need at least one trial")


def _deposit(bits: int, positions) -> int:
    """Scatter bit i of ``bits`` to bit ``positions[i]`` of the result."""
    return sum(((bits >> i) & 1) << pos for i, pos in enumerate(positions))


# --------------------------------------------------------------------------
# commitment binding


def binding_attack(
    k: int,
    digest_len: int,
    sigma: float,
    trials: int,
    seed: int = 0,
) -> AttackReport:
    """Search for two openings within the sigma*k ball sharing a digest.

    Each trial draws a fresh hash and a fresh noisy sample, then exhausts
    the radius-floor(sigma*k) ball around the sample looking for a digest
    collision, exactly the cheating committer's best generic strategy.
    The collision probability is bounded by 2**(-(omega - 2h(sigma)) * k)
    with omega = digest_len / k, reported with the 4x unknown-constant slack.
    """
    if k > 16:
        raise RegimeError("exhaustive ball search is limited to k <= 16")
    if not 0.0 <= sigma <= 0.5:
        raise ValueError("sigma must lie in [0, 1/2]")
    _check_trials(trials)
    rng = random.Random(seed)
    radius = floor_tol(sigma * k)
    successes = 0
    for _ in range(trials):
        g = ToeplitzHash.random(k, digest_len, rng)
        center = rng.getrandbits(k)
        seen: dict[int, int] = {}
        collided = False
        for e in low_weight(k, radius):
            w = center ^ e
            dig = g(BitString(k, w)).to_int()
            if dig in seen and seen[dig] != w:
                collided = True
                break
            seen[dig] = w
        successes += collided
    omega = digest_len / k
    exponent = (omega - 2.0 * binary_entropy(sigma)) * k
    bound = UNKNOWN_CONSTANT_SLACK * 2.0 ** (-exponent)
    return AttackReport(
        name="binding",
        trials=trials,
        successes=successes,
        bound=bound,
        bound_formula="4 * 2**(-(omega - 2*h(sigma)) * k)",
    )


# --------------------------------------------------------------------------
# commitment hiding (exact enumeration)


def hiding_distance(
    a_positions: IndexSet,
    stored_positions: IndexSet,
    stored_value: BitString,
    digest_len: int,
    v0: BitString = BitString.zeros(1),
    v1: BitString = BitString(1, 1),
) -> ExactReport:
    """Exact distance between the commit transcripts of two values.

    The committer samples k = len(a_positions) of n = a_positions.ground
    broadcast positions and commits to an m = v0.length bit value.
    Enumerates every committer sample consistent with the adversary's stored
    bits, every extractor seed, and every hash seed; the transcript is
    (masked value, digest, u, g).  Also returns the enumerated conditional
    min-entropy of the sample given (stored bits, hash, digest), against the
    leftover-hash bound 0.5 * 2**((m - Hmin) / 2).
    """
    n, k, m = a_positions.ground, len(a_positions), v0.length
    if n > 12 or k > 8 or m > 2 or digest_len > 3:
        raise RegimeError("exact hiding enumeration is limited to n<=12, k<=8, m<=2, digest<=3")
    if v1.length != m:
        raise ValueError("values must have the same length")

    # Conditioning: the coordinates of the k-bit sample that the adversary
    # stored are pinned to its (noise-free) stored bits.
    common = a_positions.intersect(stored_positions)
    pinned = stored_value.restrict(common.positions_within(stored_positions))
    pinned_coords = common.positions_within(a_positions).indices
    free_coords = [c for c in range(k) if c not in pinned_coords]
    base = _deposit(pinned.to_int(), pinned_coords)
    samples = [base | _deposit(fv, free_coords) for fv in range(1 << len(free_coords))]
    weight = 1.0 / len(samples)

    u_len = seed_length(k, m)
    g_len = seed_length(k, digest_len)
    n_transcripts = (1 << g_len) * (1 << u_len) * (1 << digest_len) * (1 << m)
    if n_transcripts * 2 > 40_000_000:
        raise RegimeError("transcript space too large to enumerate")

    # Each transcript (g, u, digest, masked value) is packed into one int key;
    # the joint of sample and class (g, digest) gives Hmin(X_A | stored, g, digest).
    probs0: dict[int, float] = defaultdict(float)
    probs1: dict[int, float] = defaultdict(float)
    by_class: dict[tuple[int, int], float] = {}

    # Extractor outputs do not depend on g; tabulate them once.
    ext_table = [
        [
            strong_extract(BitString(k, x), BitString(u_len, u_seed), m).to_int()
            for u_seed in range(1 << u_len)
        ]
        for x in samples
    ]

    g_w = weight / (1 << g_len)
    tw = g_w / (1 << u_len)
    int0, int1 = v0.to_int(), v1.to_int()
    for g_seed in range(1 << g_len):
        g = ToeplitzHash(k, digest_len, BitString(g_len, g_seed))
        for x, row in zip(samples, ext_table):
            dig = g(BitString(k, x)).to_int()
            by_class[(x, g_seed << digest_len | dig)] = g_w
            for u_seed, y in enumerate(row):
                idx = (((g_seed << u_len) | u_seed) << digest_len | dig) << m
                probs0[idx | (y ^ int0)] += tw
                probs1[idx | (y ^ int1)] += tw

    distance = statistical_distance(Distribution(probs0), Distribution(probs1))
    h_min = cond_min_entropy(Distribution(by_class))
    bound = 0.5 * 2.0 ** ((m - h_min) / 2.0)
    return ExactReport(
        name="hiding",
        value=distance,
        bound=bound,
        bound_formula="0.5 * 2**((m - Hmin) / 2)",
        min_entropy=h_min,
    )


# --------------------------------------------------------------------------
# transfer sender privacy (exact enumeration of the unchosen branch)


def ot_offbranch_distance(
    code: LinearCode,
    out_len: int,
    stored_all: bool = False,
) -> ExactReport:
    """Exact distance of (pad, seed, helper) from (uniform, seed, helper).

    Pad and helper are ``fuzzy_ext``'s output on one code block.  The
    unchosen branch's bits are uniform when the receiver stored nothing
    (stored_all=False); setting stored_all=True models a receiver that kept
    the entire noise-free view, a degenerate regime where the pad is
    deterministic and the distance must blow up (sanity inversion).
    """
    ell = code.length
    if ell > 8 or out_len > 2:
        raise RegimeError("exact enumeration is limited to one code block, out_len <= 2")
    s_len = seed_length(ell, out_len)
    if stored_all:
        groups = [[x] for x in range(1 << ell)]
    else:
        groups = [list(range(1 << ell))]

    # Per conditioning class, compare the joint (y, seed, p) against uniform
    # y times the (seed, p) marginal; keys pack (p, seed, y) into one int.
    distance = 0.0
    h_min = math.inf
    for group in groups:
        w = 1.0 / len(group)
        sw = w / (1 << s_len)
        uw = sw / (1 << out_len)
        joint: dict[int, float] = defaultdict(float)
        ideal: dict[int, float] = defaultdict(float)
        x_and_p: dict[tuple[int, int], float] = {}
        for x in group:
            for seed in range(1 << s_len):
                out = fuzzy_ext(BitString(ell, x), BitString(s_len, seed), out_len, code)
                p, y = out.p.to_int(), out.y.to_int()
                x_and_p[(x, p)] = w
                key = ((p << s_len) | seed) << out_len
                joint[key | y] += sw
                for y_any in range(1 << out_len):
                    ideal[key | y_any] += uw
        distance += statistical_distance(Distribution(joint), Distribution(ideal)) / len(groups)
        h_min = min(h_min, cond_min_entropy(Distribution(x_and_p)))
    bound = 0.5 * 2.0 ** ((out_len - h_min) / 2.0)
    return ExactReport(
        name="ot-offbranch",
        value=distance,
        bound=bound,
        bound_formula="0.5 * 2**((out_len - Hmin) / 2)",
        min_entropy=h_min,
    )


# --------------------------------------------------------------------------
# interactive hashing theta bound


def ih_theta_attack(m: int, t: int, trials: int, seed: int = 0) -> AttackReport:
    """Malicious respondent drawing its input from a sparse target set.

    Each trial draws a fresh target set T of size 2**t from the block
    sampler, the respondent picks W uniformly inside T and answers honestly,
    and the attack succeeds when both protocol outputs land in T.  Success
    probability is bounded by a * 2**-(m - t) for a protocol constant a;
    the 4x slack stands in for it.
    """
    if m > 16:
        raise RegimeError("theta test is limited to m <= 16")
    if not 0 < t < m:
        raise ValueError("need 0 < t < m")
    _check_trials(trials)
    rng = random.Random(seed)
    universe = 1 << m
    size = 1 << t
    successes = 0
    for _ in range(trials):
        target = _uniform_subset(universe, size, rng)
        w = rng.choice(tuple(target))
        q = Querier(m, rng)
        queries = []
        responses = []
        for _ in range(m - 1):
            qv = q.next_query().to_int()
            bit = (qv & w).bit_count() & 1
            q.take_response(bit)
            queries.append(qv)
            responses.append(bit)
        w0, w1 = solve_pair(queries, responses, m)
        if w0.to_int() in target and w1.to_int() in target:
            successes += 1
    bound = UNKNOWN_CONSTANT_SLACK * 2.0 ** (-(m - t))
    return AttackReport(
        name="ih-theta",
        trials=trials,
        successes=successes,
        bound=bound,
        bound_formula="4 * 2**(-(m - t))",
    )


# --------------------------------------------------------------------------
# concentration lemma checks


def lemma_birthday(n: int, ell: int, trials: int, seed: int = 0) -> AttackReport:
    """Rate of |A & B| < ell for independent k-subsets, k = subset_size_for.

    Both subsets of a trial come from the block sampler.
    """
    k = subset_size_for(n, ell)
    if k > n:
        raise ValueError("k exceeds n; choose a larger source")
    _check_trials(trials)
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        a = _uniform_subset(n, k, rng)
        b = _uniform_subset(n, k, rng)
        violations += len(a & b) < ell
    p = math.exp(-ell / 4.0)
    stderr = math.sqrt(p * (1.0 - p) / trials)
    bound = MONTE_CARLO_SLACK * p + 3.0 * stderr
    return AttackReport(
        name="lemma-birthday",
        trials=trials,
        successes=violations,
        bound=bound,
        bound_formula="2 * exp(-ell/4) + 3 * sqrt(p*(1-p)/trials)",
    )


def lemma_subset_hd(
    n: int, r: int, delta: float, nu: float, trials: int, seed: int = 0
) -> tuple[AttackReport, AttackReport]:
    """Random r-subsets track the global error rate within nu both ways.

    The words are built at Hamming distance exactly floor(delta*n), which
    satisfies both hypotheses (distance at most and at least delta*n), so a
    single experiment checks the upper tail HD_S >= (delta+nu)*r and the
    lower tail HD_S <= (delta-nu)*r against exp(-r * nu**2 / 2) each, and
    returns one report per tail.  The error positions and every r-subset
    come from the block sampler.
    """
    _check_trials(trials)
    rng = random.Random(seed)
    flips = floor_tol(delta * n)
    error_set = _uniform_subset(n, flips, rng)
    upper = lower = 0
    hi = (delta + nu) * r
    lo = (delta - nu) * r
    for _ in range(trials):
        hd = len(_uniform_subset(n, r, rng) & error_set)
        if hd >= hi:
            upper += 1
        if hd <= lo:
            lower += 1
    bound = MONTE_CARLO_SLACK * math.exp(-r * nu * nu / 2.0)
    formula = "2 * exp(-r * nu**2 / 2)"
    return (AttackReport("lemma-subset-hd-upper", trials, upper, bound, formula),
            AttackReport("lemma-subset-hd-lower", trials, lower, bound, formula))


def lemma_binom_bound(k_max: int = 24) -> ExactReport:
    """sum_{i=1..floor(sigma*k)} C(k,i) <= 2**(h(sigma)*k) on a sigma grid.

    The report's value is the worst ratio of left to right side over
    k <= k_max and sigma = 1/16 .. 7/16.
    """
    worst = 0.0
    for k in range(1, k_max + 1):
        for num in range(1, 8):
            sigma = num / 16.0
            lhs = sum(math.comb(k, i) for i in range(1, floor_tol(sigma * k) + 1))
            worst = max(worst, lhs / 2.0 ** (binary_entropy(sigma) * k))
    return ExactReport("lemma-binom", worst, 1.0, "sum_{1<=i<=sigma*k} C(k,i) <= 2**(h(sigma)*k)")


def lemma_entropy_hd(n: int, alpha: float, delta: float, seed: int = 0) -> ExactReport:
    """Exhaustive worst-coupling min-entropy after delta*n adversarial flips.

    Builds the exact entropy-construction distribution on an n-bit source,
    lets the coupling move every word anywhere within distance floor(delta*n),
    and reports the worst achievable Hmin(Y) against the lower bound
    (alpha - h(delta))*n.
    The worst coupling concentrates each mass ball onto its most popular
    center, so Hmin(Y) >= Hmin(X) - log2(ball size) >= (alpha - h(delta))*n.
    """
    if n > 10:
        raise RegimeError("exhaustive coupling analysis is limited to n <= 10")
    rng = random.Random(seed)
    support_size = ceil_tol(alpha * n)
    support = sorted(rng.sample(range(n), support_size))
    w = 1.0 / (1 << support_size)
    mass = {_deposit(fv, support): w for fv in range(1 << support_size)}
    radius = floor_tol(delta * n)
    best_center_mass = 0.0
    for y in range(1 << n):
        total = 0.0
        for x, p in mass.items():
            if (x ^ y).bit_count() <= radius:
                total += p
        best_center_mass = max(best_center_mass, total)
    h_min = -math.log2(best_center_mass)
    lower = (alpha - binary_entropy(delta)) * n
    return ExactReport("lemma-entropy-hd", h_min, lower, "(alpha - h(delta)) * n", at_least=True)
