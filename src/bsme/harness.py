"""Adversarial attacks and concentration-bound checks at desk scale.

Every report carries the theoretical bound it was checked against, computed
from the relevant formula at run time (never hard-coded), and a pass flag
meaning "the observation stayed within the bound".  Monte Carlo bounds get a
2x slack factor and bounds with unknown leading constants get 4x; exact
enumeration results are compared without slack.  Oversized regimes raise
:class:`RegimeError` instead of sampling their way to a misleading answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .bits import BitString, IndexSet
from .codes import LinearCode
from .hashing import ToeplitzHash, seed_length, strong_extract
from .infomath import binary_entropy, floor_tol
from .ihash import Querier, solve_pair

__all__ = [
    "RegimeError",
    "AttackReport",
    "EnumerationReport",
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

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def passed(self) -> bool:
        return self.rate <= self.bound

    def line(self) -> str:
        return (
            f"attack={self.name} trials={self.trials} successes={self.successes} "
            f"rate={self.rate:.6g} bound={self.bound:.6g} pass={self.passed}"
        )


@dataclass(frozen=True)
class EnumerationReport:
    name: str
    distance: float
    bound: float
    bound_formula: str
    min_entropy: float

    @property
    def passed(self) -> bool:
        return self.distance <= self.bound

    def line(self) -> str:
        return (
            f"attack={self.name} distance={self.distance:.6g} "
            f"bound={self.bound:.6g} min_entropy={self.min_entropy:.6g} "
            f"pass={self.passed}"
        )


# --------------------------------------------------------------------------
# commitment binding


def _ball(center: int, k: int, radius: int):
    yield center
    for w in range(1, radius + 1):
        for positions in combinations(range(k), w):
            e = 0
            for p in positions:
                e |= 1 << p
            yield center ^ e


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
    rng = random.Random(seed)
    radius = floor_tol(sigma * k)
    successes = 0
    for _ in range(trials):
        g = ToeplitzHash.random(k, digest_len, rng)
        center = rng.getrandbits(k)
        seen: dict[int, int] = {}
        collided = False
        for w in _ball(center, k, radius):
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
    n: int,
    k: int,
    a_positions: IndexSet,
    stored_positions: IndexSet,
    stored_value: BitString,
    digest_len: int,
    m: int = 1,
    v0: BitString | None = None,
    v1: BitString | None = None,
) -> EnumerationReport:
    """Exact distance between the commit transcripts of two values.

    Enumerates every committer sample consistent with the adversary's stored
    bits, every extractor seed, and every hash seed; the transcript is
    (masked value, digest, u, g).  Also returns the enumerated conditional
    min-entropy of the sample given (stored bits, hash, digest), against the
    leftover-hash bound 0.5 * 2**((m - Hmin) / 2).
    """
    if n > 12 or k > 8 or m > 2 or digest_len > 3:
        raise RegimeError("exact hiding enumeration is limited to n<=12, k<=8, m<=2, digest<=3")
    if a_positions.ground != n or len(a_positions) != k:
        raise ValueError("sample positions must pick k of n")
    if v0 is None:
        v0 = BitString.zeros(m)
    if v1 is None:
        v1 = BitString(m, 1)
    if v0.length != m or v1.length != m:
        raise ValueError("values must have m bits")

    # Conditioning: which coordinates of the k-bit sample are pinned by the
    # stored bits (noise-free adversary view of those positions).
    pinned: dict[int, int] = {}
    stored_idx = {pos: i for i, pos in enumerate(stored_positions)}
    for coord, pos in enumerate(a_positions):
        if pos in stored_idx:
            pinned[coord] = stored_value.bit(stored_idx[pos])
    free_coords = [c for c in range(k) if c not in pinned]
    base = 0
    for c, bit in pinned.items():
        base |= bit << c

    samples = []
    for fv in range(1 << len(free_coords)):
        v = base
        for i, c in enumerate(free_coords):
            v |= ((fv >> i) & 1) << c
        samples.append(v)
    weight = 1.0 / len(samples)

    u_len = seed_length(k, m)
    g_len = seed_length(k, digest_len)
    n_transcripts = (1 << g_len) * (1 << u_len) * (1 << digest_len) * (1 << m)
    if n_transcripts * 2 > 40_000_000:
        raise RegimeError("transcript space too large to enumerate")

    probs0 = [0.0] * n_transcripts
    probs1 = [0.0] * n_transcripts
    # class accumulators for Hmin(X_A | stored, g, digest)
    class_total: dict[int, float] = {}
    class_max: dict[int, float] = {}

    # Extractor outputs do not depend on g; tabulate them once.
    ext_table = [
        [
            strong_extract(BitString(k, x), BitString(u_len, u_seed), m).to_int()
            for u_seed in range(1 << u_len)
        ]
        for x in samples
    ]

    seed_w = 1.0 / ((1 << g_len) * (1 << u_len))
    int0, int1 = v0.to_int(), v1.to_int()
    for g_seed in range(1 << g_len):
        g = ToeplitzHash(k, digest_len, BitString(g_len, g_seed))
        for xi, x in enumerate(samples):
            dig = g(BitString(k, x)).to_int()
            cls = g_seed * (1 << digest_len) + dig
            class_total[cls] = class_total.get(cls, 0.0) + weight
            class_max[cls] = max(class_max.get(cls, 0.0), weight)
            row = ext_table[xi]
            for u_seed in range(1 << u_len):
                y = row[u_seed]
                idx = (((g_seed << u_len) | u_seed) << digest_len | dig) << m
                probs0[idx | (y ^ int0)] += weight * seed_w
                probs1[idx | (y ^ int1)] += weight * seed_w

    distance = 0.5 * sum(abs(a - b) for a, b in zip(probs0, probs1))
    h_min = min(
        -math.log2(class_max[c] / class_total[c]) for c in class_total
    )
    bound = 0.5 * 2.0 ** ((m - h_min) / 2.0)
    return EnumerationReport(
        name="hiding",
        distance=distance,
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
) -> EnumerationReport:
    """Exact distance of (pad, seed, helper) from (uniform, seed, helper).

    The unchosen branch's bits are uniform when the receiver stored nothing
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

    # Enumerate (y, seed, p) jointly; compare against uniform y times the
    # (seed, p) marginal, averaged over the adversary's conditioning classes.
    distance = 0.0
    h_min = math.inf
    for group in groups:
        w = 1.0 / len(group)
        joint: dict[tuple[int, int, int], float] = {}
        marg: dict[tuple[int, int], float] = {}
        p_class_tot: dict[int, float] = {}
        p_class_max: dict[int, float] = {}
        for x in group:
            xs = BitString(ell, x)
            p = 0
            for i, row in enumerate(code.rows):
                p |= ((row & x).bit_count() & 1) << i
            p_class_tot[p] = p_class_tot.get(p, 0.0) + w
            p_class_max[p] = max(p_class_max.get(p, 0.0), w)
            for seed in range(1 << s_len):
                y = strong_extract(xs, BitString(s_len, seed), out_len).to_int()
                sw = w / (1 << s_len)
                joint[(y, seed, p)] = joint.get((y, seed, p), 0.0) + sw
                marg[(seed, p)] = marg.get((seed, p), 0.0) + sw
        d = 0.0
        keys = set(joint) | {
            (y, s, p) for (s, p) in marg for y in range(1 << out_len)
        }
        for y, s, p in keys:
            d += abs(joint.get((y, s, p), 0.0) - marg[(s, p)] / (1 << out_len))
        distance += 0.5 * d / len(groups)
        h_min = min(
            h_min,
            min(-math.log2(p_class_max[p] / p_class_tot[p]) for p in p_class_tot),
        )
    bound = 0.5 * 2.0 ** ((out_len - h_min) / 2.0)
    return EnumerationReport(
        name="ot-offbranch",
        distance=distance,
        bound=bound,
        bound_formula="0.5 * 2**((out_len - Hmin) / 2)",
        min_entropy=h_min,
    )


# --------------------------------------------------------------------------
# interactive hashing theta bound


def ih_theta_attack(m: int, t: int, trials: int, seed: int = 0) -> AttackReport:
    """Malicious respondent drawing its input from a sparse target set.

    Each trial draws a fresh target set T of size 2**t, the respondent picks
    W inside T and answers honestly, and the attack succeeds when both
    protocol outputs land in T.  Success probability is bounded by
    a * 2**-(m - t) for a protocol constant a; the 4x slack stands in for it.
    """
    if m > 16:
        raise RegimeError("theta test is limited to m <= 16")
    if not 0 < t < m:
        raise ValueError("need 0 < t < m")
    rng = random.Random(seed)
    universe = 1 << m
    size = 1 << t
    successes = 0
    for _ in range(trials):
        target = set(rng.sample(range(universe), size))
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
    """Rate of |A & B| < ell for independent k-subsets, k = subset_size_for."""
    from .infomath import subset_size_for

    k = subset_size_for(n, ell)
    if k > n:
        raise ValueError("k exceeds n; choose a larger source")
    rng = random.Random(seed)
    population = range(n)
    violations = 0
    for _ in range(trials):
        a = set(rng.sample(population, k))
        b = rng.sample(population, k)
        overlap = sum(1 for i in b if i in a)
        violations += overlap < ell
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


@dataclass(frozen=True)
class TwoSidedReport:
    name: str
    trials: int
    upper_violations: int
    lower_violations: int
    bound: float
    bound_formula: str

    @property
    def passed(self) -> bool:
        return (
            self.upper_violations / self.trials <= self.bound
            and self.lower_violations / self.trials <= self.bound
        )

    def line(self) -> str:
        return (
            f"attack={self.name} trials={self.trials} "
            f"upper_rate={self.upper_violations / self.trials:.6g} "
            f"lower_rate={self.lower_violations / self.trials:.6g} "
            f"bound={self.bound:.6g} pass={self.passed}"
        )


def lemma_subset_hd(
    n: int, r: int, delta: float, nu: float, trials: int, seed: int = 0
) -> TwoSidedReport:
    """Random r-subsets track the global error rate within nu both ways.

    The words are built at Hamming distance exactly floor(delta*n), which
    satisfies both hypotheses (distance at most and at least delta*n), so a
    single experiment checks the upper tail HD_S >= (delta+nu)*r and the
    lower tail HD_S <= (delta-nu)*r against exp(-r * nu**2 / 2) each.
    """
    rng = random.Random(seed)
    flips = floor_tol(delta * n)
    error_set = set(rng.sample(range(n), flips))
    upper = lower = 0
    hi = (delta + nu) * r
    lo = (delta - nu) * r
    for _ in range(trials):
        s = rng.sample(range(n), r)
        hd = sum(1 for i in s if i in error_set)
        if hd >= hi:
            upper += 1
        if hd <= lo:
            lower += 1
    bound = MONTE_CARLO_SLACK * math.exp(-r * nu * nu / 2.0)
    return TwoSidedReport(
        name="lemma-subset-hd",
        trials=trials,
        upper_violations=upper,
        lower_violations=lower,
        bound=bound,
        bound_formula="2 * exp(-r * nu**2 / 2)",
    )


def lemma_binom_bound(k_max: int = 24) -> tuple[bool, float]:
    """sum_{i=1..floor(sigma*k)} C(k,i) <= 2**(h(sigma)*k) on a sigma grid.

    Returns (all held, worst ratio of left to right side).
    """
    worst = 0.0
    ok = True
    for k in range(1, k_max + 1):
        for num in range(1, 8):
            sigma = num / 16.0
            if sigma > 0.5:
                continue
            lhs = sum(math.comb(k, i) for i in range(1, floor_tol(sigma * k) + 1))
            rhs = 2.0 ** (binary_entropy(sigma) * k)
            if lhs:
                ratio = lhs / rhs
                worst = max(worst, ratio)
                ok = ok and lhs <= rhs
    return ok, worst


def lemma_entropy_hd(n: int, alpha: float, delta: float, seed: int = 0) -> tuple[float, float]:
    """Exhaustive worst-coupling min-entropy after delta*n adversarial flips.

    Builds the exact entropy-construction distribution on an n-bit source,
    lets the coupling move every word anywhere within distance floor(delta*n),
    and returns (worst achievable Hmin(Y), lower bound (alpha - h(delta))*n).
    The worst coupling concentrates each mass ball onto its most popular
    center, so Hmin(Y) >= Hmin(X) - log2(ball size) >= (alpha - h(delta))*n.
    """
    if n > 10:
        raise RegimeError("exhaustive coupling analysis is limited to n <= 10")
    rng = random.Random(seed)
    support_size = math.ceil(alpha * n)
    support = sorted(rng.sample(range(n), support_size))
    mass: dict[int, float] = {}
    w = 1.0 / (1 << support_size)
    for fv in range(1 << support_size):
        word = 0
        for i, pos in enumerate(support):
            word |= ((fv >> i) & 1) << pos
        mass[word] = w
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
    return h_min, lower
