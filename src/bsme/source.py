"""The shared noisy source and the storage-bounded adversary model.

``generate`` draws the public string X together with the noisy view X~.
X carries exactly ``ceil(alpha*n)`` uniformly placed uniform bits (the rest
are zero), so its min-entropy is exactly that count.  X~ differs from X in
exactly ``floor(delta*n)`` positions chosen by the error model, except that
a clamped adversarial callback may flip fewer.

Stream contract: a seed fixes every output, so ``generate`` consumes its
generator in a fixed order.  ``sample_positions`` draws the support with one
``rng.sample`` call, then ``source_word`` takes one 32-bit generator word per
support position, in increasing position order, and uses the word's top bit
as the source bit; the random error model then draws its positions with a
second ``rng.sample``.  At full support (alpha = 1) the support is every
position, but ``rng.sample`` still shuffles all n of them: skipping the
shuffle would shift every later draw and so change every seeded broadcast,
and with it which seeds the existing seeded checks see.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bits import BitString, IndexSet, scatter_digits
from .infomath import floor_tol

ERROR_MODELS = ("random", "burst", "adversarial-callback")


@dataclass(frozen=True)
class SourceConfig:
    n: int
    alpha: float = 1.0
    delta: float = 0.0
    error_model: str = "random"
    seed: object = 0
    error_callback: Optional[Callable[[BitString, int], Sequence[int]]] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if self.error_model not in ERROR_MODELS:
            raise ValueError(f"unknown error model {self.error_model!r}")
        if self.error_model == "adversarial-callback" and self.error_callback is None:
            raise ValueError("adversarial-callback model needs error_callback")


@dataclass(frozen=True)
class SourcePair:
    """One draw of the source: the clean string and the noisy view."""

    x: BitString
    x_tilde: BitString
    entropy_positions: IndexSet
    error_positions: IndexSet
    clamped: bool = False

    def __post_init__(self):
        if self.x.length != self.x_tilde.length:
            raise ValueError("views must have equal length")


def sample_positions(n: int, k: int, rng: random.Random) -> IndexSet:
    """Uniformly random k-subset of [0, n)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    drawn = rng.sample(range(n), k)
    if k == n:
        # The shuffle is drawn only to keep the seeded stream in step.
        del drawn
        return IndexSet.full(n)
    drawn.sort()
    return IndexSet(n, drawn)


# Byte value -> ASCII digit of its top bit.
_TOP_BIT_DIGIT = bytes(ord("0") + (b >> 7) for b in range(256))


def source_word(support: IndexSet, rng: random.Random) -> BitString:
    """Uniform bits on ``support``, zero elsewhere: the entropy construction.

    Bit j of the support is the top bit of the j-th 32-bit generator word,
    which is what ``getrandbits(1)`` per position would return.  One
    ``getrandbits(32 * k)`` packs the same k words low word first, so the
    top bit of word j is the top bit of byte ``4*j + 3`` of its
    little-endian bytes.
    """
    k = len(support)
    words = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
    digits = words[3::4].translate(_TOP_BIT_DIGIT)
    return BitString(support.ground, scatter_digits(support.ground, support.indices, digits))


def generate(cfg: SourceConfig) -> SourcePair:
    rng = random.Random(cfg.seed)
    n = cfg.n
    support_size = math.ceil(cfg.alpha * n)
    support = sample_positions(n, support_size, rng)
    x = source_word(support, rng)

    flip_count = floor_tol(cfg.delta * n)
    clamped = False
    if cfg.error_model == "random":
        errors = sample_positions(n, flip_count, rng)
    elif cfg.error_model == "burst":
        if flip_count == 0:
            errors = IndexSet(n)
        else:
            start = rng.randrange(n)
            errors = IndexSet.from_iterable(
                n, ((start + i) % n for i in range(flip_count))
            )
    else:
        wanted = list(dict.fromkeys(cfg.error_callback(x, flip_count)))
        if len(wanted) > flip_count:
            wanted = wanted[:flip_count]
            clamped = True
        errors = IndexSet.from_iterable(n, wanted)
    x_tilde = x ^ errors.to_mask()
    return SourcePair(
        x=x, x_tilde=x_tilde, entropy_positions=support,
        error_positions=errors, clamped=clamped,
    )


@dataclass(frozen=True)
class BoundedMemory:
    """What a storage-bounded adversary kept: at most ``budget`` bits."""

    budget: int
    stored: BitString
    descriptor: str
    positions: IndexSet
    truncated: bool = False

    def __post_init__(self):
        if self.stored.length > self.budget:
            raise ValueError("stored bits exceed the storage budget")
        if len(self.positions) != self.stored.length:
            raise ValueError("positions must match stored length")


def adversary_store(
    x_tilde: BitString,
    strategy: str = "prefix",
    budget: int = 0,
    rng: random.Random | None = None,
    positions: IndexSet | None = None,
) -> BoundedMemory:
    """Store up to ``budget`` bits of the adversary's view.

    Strategies: ``prefix`` keeps the first bits, ``random`` keeps a uniform
    subset (needs ``rng``), ``positions`` keeps caller-chosen positions and
    truncates to the budget when given too many.
    """
    n = x_tilde.length
    if budget < 0:
        raise ValueError("budget must be non-negative")
    truncated = False
    if strategy == "prefix":
        pos = IndexSet(n, range(min(budget, n)))
    elif strategy == "random":
        if rng is None:
            raise ValueError("random strategy needs rng")
        pos = sample_positions(n, min(budget, n), rng)
    elif strategy == "positions":
        if positions is None:
            raise ValueError("positions strategy needs positions")
        if positions.ground != n:
            raise ValueError("ground mismatch")
        if len(positions) > budget:
            pos = IndexSet(n, positions.indices[:budget])
            truncated = True
        else:
            pos = positions
    else:
        raise ValueError(f"unknown storage strategy {strategy!r}")
    return BoundedMemory(
        budget=budget, stored=x_tilde.restrict(pos),
        descriptor=strategy, positions=pos, truncated=truncated,
    )
