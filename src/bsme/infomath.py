"""Binary-entropy calculus, explicit distributions, and parameter derivation.

All logarithms are base 2.  The binary entropy function is

    h(x) = -x*log2(x) - (1-x)*log2(1-x),    h(0) = h(1) = 0,

and ``inv_binary_entropy`` is its inverse on [0, 1/2].  Protocol parameters
are derived and validated here before any protocol object is constructed;
violated constraints raise :class:`ParameterError` naming the requirement.

Glossary of rates (all relative to the source length n unless noted):
  alpha   min-entropy rate of the public source
  gamma   adversary storage rate
  delta   noise rate between the two views of the source
  rho     extractable-entropy rate left after storage and smoothing loss
  tau     sampling slack for restricted min-entropy
  omega   commitment digest rate (digest has floor(omega*k) bits)
  zeta    distance-test slack in the commitment opening
  xi      distance slack allowed on top of delta in transfer recovery
  m_f     transfer payload rate per index (payload is floor(m_f*ell) bits)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

__all__ = [
    "ParameterError",
    "binary_entropy",
    "inv_binary_entropy",
    "Distribution",
    "statistical_distance",
    "cond_min_entropy",
    "rho",
    "Feasibility",
    "commit_feasible",
    "ot_feasible_gv",
    "commit_delta_threshold",
    "ot_gv_delta_threshold",
    "zyablov_delta",
    "subset_size_for",
    "CommitParams",
    "OTParams",
    "derive_commit_params",
    "derive_ot_params",
    "check_code_fit",
    "floor_tol",
    "ceil_tol",
]

# psi_ext: the share of the k_E extractable bits the commitment leaves unused.
PSI_EXT = 0.1
# eps_prime: the smoothing error charged to rho, log2(1/eps_prime) bits.
EPS_PRIME = 2.0**-32
# zeta_ih: the share of the tail log2(1/(eps_prime + eps_dprime)) that the
# transfer's interactive-hashing target exponent t gives up.
ZETA_IH = 0.5


class ParameterError(ValueError):
    """A parameter constraint failed; ``requirement`` names the inequality."""

    def __init__(self, requirement: str, detail: str = ""):
        self.requirement = requirement
        msg = f"infeasible parameters: requires {requirement}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def floor_tol(x: float) -> int:
    """Floor with a small tolerance for float representation of products."""
    return math.floor(x + 1e-9)


def ceil_tol(x: float) -> int:
    """Ceiling with `floor_tol`'s tolerance: ``0.07 * 100`` rounds up to 7."""
    return math.ceil(x - 1e-9)


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy is defined on [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def inv_binary_entropy(y: float) -> float:
    """The unique x in [0, 1/2] with h(x) = y."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("entropy values lie in [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class Distribution:
    """Finite probability distribution over hashable outcomes."""

    __slots__ = ("_probs",)

    def __init__(self, probs: Mapping[Hashable, float]):
        total = 0.0
        clean: dict[Hashable, float] = {}
        for v, p in probs.items():
            if p < -1e-12:
                raise ValueError("probabilities must be non-negative")
            if p <= 0.0:
                continue
            clean[v] = p
            total += p
        if not clean:
            raise ValueError("distribution needs at least one outcome")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._probs = clean

    def items(self):
        return self._probs.items()

    def __repr__(self) -> str:
        return f"Distribution({self._probs!r})"


def statistical_distance(p: Distribution, q: Distribution) -> float:
    p_probs, q_probs = p._probs, q._probs
    shared = sum(abs(pv - q_probs.get(v, 0.0)) for v, pv in p_probs.items())
    q_only = sum(qv for v, qv in q_probs.items() if v not in p_probs)
    return 0.5 * (shared + q_only)


def cond_min_entropy(joint: Distribution) -> float:
    """Worst-case conditional min-entropy of X given Y.

    ``joint`` is over pairs (x, y); the result is
    ``min over y of -log2 max over x of P[X=x | Y=y]``.
    """
    by_y: dict[Hashable, tuple[float, float]] = {}
    for (x, y), p in joint.items():
        total, best = by_y.get(y, (0.0, 0.0))
        by_y[y] = (total + p, max(best, p))
    return min(-math.log2(best / total) for total, best in by_y.values())


def rho(alpha: float, gamma: float, n: int) -> float:
    """Residual min-entropy rate after gamma*n stored bits and smoothing.

    rho = alpha - gamma - (1 + log2(1/EPS_PRIME)) / n
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= gamma < alpha <= 1.0:
        raise ValueError("need 0 <= gamma < alpha <= 1")
    return alpha - gamma - (1.0 + math.log2(1.0 / EPS_PRIME)) / n


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    margin: float


def commit_feasible(s: float, delta: float) -> Feasibility:
    """Commitment needs 2*h(delta) < s, where s = alpha - gamma."""
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 1/2]")
    margin = s - 2.0 * binary_entropy(delta)
    return Feasibility(margin > 0.0, margin)


def ot_feasible_gv(s: float, delta: float) -> Feasibility:
    """Transfer with a distance-optimal code family needs h(2*delta) < s; no
    positive-rate code corrects a relative distance 2*delta >= 1/2."""
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 1/2]")
    if delta >= 0.25:
        return Feasibility(False, s - 1.0)
    margin = s - binary_entropy(2.0 * delta)
    return Feasibility(margin > 0.0, margin)


def commit_delta_threshold(s: float) -> float:
    return inv_binary_entropy(s / 2.0)


def ot_gv_delta_threshold(s: float) -> float:
    return inv_binary_entropy(s) / 2.0


def zyablov_delta(rate: float) -> float:
    """Largest relative decoding radius of the concatenated-code tradeoff.

    delta(R) = max over R < r < 1 of (1 - r) * h^-1(1 - R/r) / 2.  The
    objective vanishes at both ends and is unimodal in between, so a
    golden-section search over (R, 1) finds the maximum.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")

    def value(r: float) -> float:
        return (1.0 - r) * inv_binary_entropy(1.0 - rate / r) / 2.0

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = rate, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value(d)
    return max(fc, fd)


def subset_size_for(n: int, ell: int) -> int:
    """Party sample size: floor(2*sqrt(ell*n)) rounded down to even."""
    if n < 1 or ell < 1:
        raise ValueError("n and ell must be positive")
    k = math.isqrt(4 * ell * n)
    return k - (k % 2)


@dataclass(frozen=True)
class CommitParams:
    """Validated commitment parameters.

    Derived fields: k is the per-party sample size, rho the residual entropy
    rate, tau and omega the sampling slack and digest rate (see
    `derive_commit_params`), k_e = floor((rho - 3*tau - omega) * k) the
    extractable bits, m = floor((1 - psi_ext) * k_e) the committed-string
    length, and digest_len = floor(omega * k) the hash digest length.
    """

    n: int
    ell: int
    alpha: float
    gamma: float
    delta: float
    zeta: float
    tau: float
    omega: float
    psi_ext: float
    eps_prime: float
    k: int
    rho: float
    k_e: int
    m: int
    digest_len: int


def _sample_and_rate(n: int, ell: int, alpha: float, gamma: float) -> tuple[int, float]:
    """The per-party sample size k and the residual rate rho, after the
    checks the commitment and the transfer share."""
    if not (n >= 1 and ell >= 1):
        raise ParameterError("n >= 1 and ell >= 1")
    k = subset_size_for(n, ell)
    if not ell <= k:
        raise ParameterError("ell <= k", f"ell={ell}, k={k}")
    if not k <= n:
        raise ParameterError("k <= n", f"k={k}, n={n}")
    if not 0.0 <= gamma < alpha <= 1.0:
        raise ParameterError("0 <= gamma < alpha <= 1")
    r = rho(alpha, gamma, n)
    if not r > 0.0:
        raise ParameterError("rho > 0", f"rho={r:.6f}")
    return k, r


def derive_commit_params(
    n: int,
    ell: int,
    alpha: float = 1.0,
    gamma: float = 0.25,
    delta: float = 0.0,
    zeta: float = 0.05,
) -> CommitParams:
    """Derive `CommitParams`.  tau and omega are not inputs: with
    gap = rho - 2*h(delta+zeta), tau = gap/32 and omega = 2*h(delta+zeta) + tau."""
    k, r = _sample_and_rate(n, ell, alpha, gamma)
    if not (0.0 <= delta and 0.0 < zeta and delta + zeta < 0.5):
        raise ParameterError("0 <= delta, 0 < zeta, delta + zeta < 1/2")
    noise_term = 2.0 * binary_entropy(delta + zeta)
    if not noise_term < r:
        raise ParameterError("2*h(delta+zeta) < rho", f"2h={noise_term:.6f}, rho={r:.6f}")
    # gap > 0 gives 0 < tau <= rho/32, 2h < omega and omega + 3*tau = 2h + gap/8 < rho.
    tau = (r - noise_term) / 32.0
    omega = noise_term + tau
    k_e = floor_tol((r - 3.0 * tau - omega) * k)
    if not k_e >= 1:
        raise ParameterError("k_E >= 1", f"k_E={k_e}")
    m = floor_tol((1.0 - PSI_EXT) * k_e)
    if not m >= 1:
        raise ParameterError("m >= 1", f"m={m}")
    digest_len = floor_tol(omega * k)
    if not digest_len >= 1:
        raise ParameterError("floor(omega*k) >= 1")
    return CommitParams(
        n=n, ell=ell, alpha=alpha, gamma=gamma, delta=delta, zeta=zeta,
        tau=tau, omega=omega, psi_ext=PSI_EXT, eps_prime=EPS_PRIME,
        k=k, rho=r, k_e=k_e, m=m, digest_len=digest_len,
    )


@dataclass(frozen=True)
class OTParams:
    """Validated transfer parameters.

    ``code`` is the per-block linear code used by the fuzzy extractor; its
    rate enters k_f.  Derived fields: k is the per-party sample size, m the
    subset-encoding length 2*ell*ceil(log2(k)), t the interactive-hashing
    target exponent, k_f the sender-privacy entropy margin, p_len the helper
    string length, payload_len = floor(m_f * ell) the secret length.
    """

    n: int
    ell: int
    alpha: float
    gamma: float
    delta: float
    xi: float
    zeta_ih: float
    tau: float
    m_f: float
    eps_prime: float
    eps_hat: float
    code: object
    k: int
    rho: float
    rate: Fraction
    m: int
    t: int
    k_f: float
    eps_dprime: float
    p_len: int
    payload_len: int


def check_code_fit(ell: int, code, delta: float, xi: float) -> None:
    """Refuse a block code that does not tile ell or whose radius does not
    cover the noise delta plus the slack xi in every block."""
    if not ell % code.length == 0:
        raise ParameterError(
            "code length divides ell", f"ell={ell}, code length={code.length}"
        )
    if not (delta + xi) * code.length <= code.radius + 1e-9:
        raise ParameterError(
            "delta + xi <= radius / code length",
            f"delta+xi={delta + xi:.6f}, radius fraction={code.radius / code.length:.6f}",
        )


def derive_ot_params(
    n: int,
    ell: int,
    code,
    alpha: float = 1.0,
    gamma: float = 0.0,
    delta: float = 0.0,
    xi: float = 0.05,
    tau: float | None = None,
    m_f: float | None = None,
    eps_hat: float = 0.25,
) -> OTParams:
    k, r = _sample_and_rate(n, ell, alpha, gamma)
    if not (delta >= 0.0 and xi >= 0.0):
        raise ParameterError("delta >= 0 and xi >= 0")
    check_code_fit(ell, code, delta, xi)
    rate = Fraction(code.dimension, code.length)
    if not 0.0 < eps_hat < 1.0:
        raise ParameterError("0 < eps_hat < 1")
    if tau is None:
        tau = min(0.02, r / 6.0)
    if not 0.0 < tau <= r / 3.0:
        raise ParameterError("0 < tau <= rho/3", f"tau={tau}, rho/3={r / 3.0:.6f}")
    hat_term = (1.0 + math.log2(1.0 / eps_hat)) / ell
    if m_f is None:
        budget = r + float(rate) - 1.0 - 3.0 * tau - hat_term
        if not budget > 0.0:
            raise ParameterError("k_F > 0", f"entropy budget={budget:.6f}")
        m_f = 0.475 * budget
    if not 0.0 < m_f < 1.0:
        raise ParameterError("0 < m_F < 1")
    payload_len = floor_tol(m_f * ell)
    if not payload_len >= 1:
        raise ParameterError("floor(m_F*ell) >= 1", f"m_F*ell={m_f * ell:.6f}")
    k_f = r + float(rate) - 3.0 * tau - 2.0 * m_f - 1.0 - hat_term
    if not k_f > 0.0:
        raise ParameterError("k_F > 0", f"k_F={k_f:.6f}")
    m = 2 * ell * math.ceil(math.log2(k))
    nu = tau / math.log2(1.0 / tau)
    eps_dprime = math.exp(-ell * nu * nu / 2.0)
    tail = math.log2(1.0 / (EPS_PRIME + eps_dprime)) if EPS_PRIME + eps_dprime < 1.0 else 0.0
    t = m - math.ceil(ZETA_IH * max(0.0, tail))
    t = max(0, min(m, t))
    p_len = (ell // code.length) * (code.length - code.dimension)
    return OTParams(
        n=n, ell=ell, alpha=alpha, gamma=gamma, delta=delta, xi=xi,
        zeta_ih=ZETA_IH, tau=tau, m_f=m_f, eps_prime=EPS_PRIME, eps_hat=eps_hat,
        code=code, k=k, rho=r, rate=rate, m=m, t=t, k_f=k_f,
        eps_dprime=eps_dprime, p_len=p_len, payload_len=payload_len,
    )
