"""Golden outputs of the standard-library draws every seeded stream rests on.

A seed replays a session exactly, and two cross-host ends rebuild the same
broadcast from it, only while `random.Random` keeps these draws.  Python
promises that for `random()` alone, so each draw the package makes is pinned
here at a size like its own: a Python release that changes one fails by
name, not only as a wrong wire digest.  The seeds are strings, as the
package's are.
"""

import hashlib
import random


def digest(value: int, nbytes: int) -> str:
    return hashlib.sha256(value.to_bytes(nbytes, "little")).hexdigest()


def test_getrandbits_whole_words():
    # `sample_positions` draws 32 bits per position in one call
    value = random.Random("7:src").getrandbits(32 * 64)
    assert value & 0xFFFFFFFF == 0xE7F45AF9
    assert digest(value, 256) == "cea6b5dc4f96e216a5d17096c4e4725f3186c7f5661034e89605ca47cc12e6c7"


def test_getrandbits_partial_word():
    # `BitString.random` and the broadcast draw lengths that are not whole words
    value = random.Random(20151).getrandbits(4095)
    assert value.bit_length() <= 4095
    assert digest(value, 512) == "66d70d1a1136f1456605b514921dc9e7959a216bc2b76c0cdc28a123d0956c62"


def test_sample():
    # the receiver's ell-subset of the overlap, at the C05 sizes
    assert random.Random("3:B").sample(range(478), 14) == [
        9, 386, 64, 170, 450, 174, 122, 254, 123, 47, 431, 257, 429, 61]


def test_randrange_above_64_bits():
    # the dense code's copy index, whose bound outgrows a machine word
    bound = 3 ** 45
    assert bound > 2 ** 64
    assert random.Random("5:code").randrange(bound) == 1134934625302441387485


def test_choice():
    # the theta attack's pick from its target set
    rng = random.Random("9:theta")
    items = tuple(range(64))
    assert [rng.choice(items) for _ in range(8)] == [26, 54, 11, 58, 60, 19, 63, 5]
