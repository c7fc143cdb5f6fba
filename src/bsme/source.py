"""The shared noisy source.

``generate`` draws the public string X together with the noisy view X~.
X carries exactly ``ceil(alpha*n)`` uniformly placed uniform bits (the rest
are zero), so its min-entropy is exactly that count.  X~ differs from X in
exactly ``floor(delta*n)`` uniformly placed positions; both round with
``infomath``'s 1e-9 tolerance, so float dust adds no position.

Stream contract: a seed fixes every output, so ``generate`` consumes its
generator in a fixed order, with work linear in n.  It draws the support
with ``sample_positions``, then the source bits with one
``getrandbits(k)`` whose bit j lands on the j-th support position, then the
error positions with a second ``sample_positions``.  ``sample_positions``
draws its subset with the block sampler ``_uniform_subset``: k values when
k <= n/2, else the n - k positions left out.  The full set (k = n, the
support when alpha = 1) leaves nothing out and so takes no generator words;
``generate`` then builds no support at all, and a full-support broadcast is
one ``getrandbits(n)`` followed by the error draw.  Only the two views are
kept: the error positions are ``IndexSet.from_mask(x ^ x_tilde)``.
``sample_positions`` refuses n >= 2**32 for every k, since the sampler
draws 32-bit words.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import filterfalse

from .bits import BitString, IndexSet, scatter_digits
from .infomath import ceil_tol, floor_tol


@dataclass(frozen=True)
class SourceConfig:
    n: int
    alpha: float = 1.0
    delta: float = 0.0
    seed: object = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")


@dataclass(frozen=True)
class SourcePair:
    """One draw of the source: the clean string and the noisy view."""

    x: BitString
    x_tilde: BitString

    def __post_init__(self):
        if self.x.length != self.x_tilde.length:
            raise ValueError("views must have equal length")


def _uniform_subset(n: int, k: int, rng: random.Random) -> set[int]:
    """A uniform k-subset of ``range(n)``, for ``n <= 2**32``.

    Each pass draws one 32-bit word per value still missing with a single
    ``getrandbits``, keeps the top ``(n - 1).bit_length()`` bits of each
    word with one shift and mask of the whole draw, and drops values of n or
    more, all in C.  A pass adds at most as many values as are missing, so
    the result is the first k distinct values of an iid uniform stream,
    hence a uniform k-subset.  A pass's words are taken as a set, so the
    byte order that reads them does not change the result.
    """
    if not 0 <= k <= n <= 1 << 32:
        raise ValueError("need 0 <= k <= n <= 2**32")
    bits = (n - 1).bit_length()
    shift = 32 - bits
    # bits [32i, 32i + bits) set: where the shift leaves word i's top bits
    mask = int.from_bytes(((1 << bits) - 1).to_bytes(4, "little") * k, "little")
    seen: set[int] = set()
    while len(seen) < k:
        need = k - len(seen)
        top = (rng.getrandbits(32 * need) >> shift) & mask
        words = memoryview(top.to_bytes(4 * need, sys.byteorder)).cast("I")
        seen.update(filter(n.__gt__, words))
    return seen


def sample_positions(n: int, k: int, rng: random.Random) -> IndexSet:
    """Uniformly random k-subset of [0, n), for n < 2**32.

    Draws min(k, n - k) values with ``_uniform_subset``; the full set draws
    nothing.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n >= 1 << 32:
        raise ValueError("need n < 2**32")
    if 2 * k <= n:
        return IndexSet._increasing(n, sorted(_uniform_subset(n, k, rng)))
    left_out = _uniform_subset(n, n - k, rng)
    return IndexSet._increasing(n, filterfalse(left_out.__contains__, range(n)))


def source_word(support: IndexSet, rng: random.Random) -> BitString:
    """Uniform bits on ``support``, zero elsewhere: the entropy construction.

    One ``getrandbits(k)`` for the k support positions; its bit j lands on
    the j-th of them, so at full support the draw is the word itself.
    """
    n, k = support.ground, len(support)
    drawn = rng.getrandbits(k)
    digits = format(drawn, f"0{k}b").encode()[::-1]
    return BitString(n, scatter_digits(n, support.indices, digits))


def generate(cfg: SourceConfig) -> SourcePair:
    rng = random.Random(cfg.seed)
    n = cfg.n
    k = ceil_tol(cfg.alpha * n)
    if k == n:
        x = BitString(n, rng.getrandbits(n))
    else:
        x = source_word(sample_positions(n, k, rng), rng)
    errors = sample_positions(n, floor_tol(cfg.delta * n), rng)
    return SourcePair(x=x, x_tilde=x ^ errors.to_mask())
