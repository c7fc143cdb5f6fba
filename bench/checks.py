"""Independent checks of session and harness outputs.

Nothing here imports ``bsme``.  Frames are parsed from their documented
layout (tag byte, 4-byte big-endian field count, then per field a 4-byte
big-endian bit length and the bits packed least significant bit first), and
the GF(2) elimination and Toeplitz products are this module's own.  A check
returns a status for the operation; a violation that no honest session may
show raises :class:`CheckError`.
"""

from __future__ import annotations

import math

TAG_HASH_DESC = 0x01
TAG_COMMIT = 0x02
TAG_OPEN = 0x03
TAG_SET_A = 0x04
TAG_E_BIT = 0x05
TAG_IH_QUERY = 0x06
TAG_IH_RESPONSE = 0x07
TAG_PAYLOAD = 0x08
TAG_RESULT = 0x0A

# Abort reasons an honest pair of parties can reach by bad luck alone.
HONEST_OT_ABORTS = frozenset({"SMALL_INTERSECTION", "INVALID_ENCODING", "DECODE_FAILURE"})
HONEST_COMMIT_ABORTS = frozenset({"SMALL_INTERSECTION", "DISTANCE_EXCEEDED"})

OK = "ok"
FAILED = "failed"


class CheckError(AssertionError):
    """An output that no honest run may produce."""


def parse_frame(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    """Tag and fields of one frame; each field is (bit length, value)."""
    tag = data[0]
    count = int.from_bytes(data[1:5], "big")
    fields = []
    pos = 5
    for _ in range(count):
        bits = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        nbytes = (bits + 7) // 8
        fields.append((bits, int.from_bytes(data[pos : pos + nbytes], "little")))
        pos += nbytes
    if pos != len(data):
        raise CheckError("frame length does not match its fields")
    return tag, fields


def _frames(transcript, expected: list[tuple[str, int]]) -> list[list[tuple[int, int]]]:
    """Parse the transcript and require exactly the expected (sender, tag) order."""
    if len(transcript) != len(expected):
        raise CheckError(f"transcript has {len(transcript)} frames, expected {len(expected)}")
    out = []
    for i, ((label, data), (want_label, want_tag)) in enumerate(zip(transcript, expected)):
        tag, fields = parse_frame(data)
        if (label, tag) != (want_label, want_tag):
            raise CheckError(
                f"frame {i} is ({label}, 0x{tag:02X}), expected ({want_label}, 0x{want_tag:02X})"
            )
        out.append(fields)
    return out


def independent(vectors: list[int]) -> bool:
    """True when the integer-packed GF(2) vectors are linearly independent."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            return False
    return True


def toeplitz(diag: int, x: int, in_len: int, out_len: int) -> int:
    """Product of the Toeplitz matrix with entry (i, j) = diag[i + in_len - 1 - j] and x.

    Row i is a window of the bit-reversed diagonal, so each row is one shift.
    """
    length = in_len + out_len - 1
    rev = int(format(diag, f"0{length}b")[::-1], 2)
    mask = (1 << in_len) - 1
    out = 0
    for i in range(out_len):
        row = (rev >> (out_len - 1 - i)) & mask
        out |= ((row & x).bit_count() & 1) << i
    return out


def restrict(x: int, positions_mask: int) -> tuple[int, int]:
    """Bits of x at the set positions of the mask, packed in position order."""
    out = 0
    count = 0
    while positions_mask:
        low = positions_mask & -positions_mask
        out |= ((x >> (low.bit_length() - 1)) & 1) << count
        count += 1
        positions_mask ^= low
    return count, out


def check_ot(outcome, choice: int, secrets, m: int) -> str:
    """Status of one honest transfer session.

    A completed session must carry 2m+2 frames in protocol order, its m-1
    queries must be independent, and its output must be the chosen secret;
    a completed session with another output is a failed operation.
    """
    reason = outcome.reason.name
    if not outcome.completed:
        if reason not in HONEST_OT_ABORTS:
            raise CheckError(f"honest transfer aborted with {reason}")
        return "abort:" + reason
    expected = (
        [("A", TAG_SET_A)]
        + [("A", TAG_IH_QUERY), ("B", TAG_IH_RESPONSE)] * (m - 1)
        + [("B", TAG_E_BIT), ("A", TAG_PAYLOAD), ("B", TAG_RESULT)]
    )
    frames = _frames(outcome.transcript, expected)
    queries = [frames[1 + 2 * i][0] for i in range(m - 1)]
    if any(bits != m for bits, _ in queries):
        raise CheckError("query of the wrong length")
    if not independent([q for _, q in queries]):
        raise CheckError("queries on the wire are linearly dependent")
    if frames[-1][0] != (1, 1):
        raise CheckError("completed session did not report ok on the wire")
    want = secrets[choice]
    got = outcome.output
    if got is None or (got.length, got.to_int()) != (want.length, want.to_int()):
        return FAILED
    return OK


def check_commit(outcome, value, x: int, k: int, digest_len: int) -> str:
    """Status of one honest commitment session over a broadcast x (an int)."""
    reason = outcome.reason.name
    frames = _frames(
        outcome.transcript,
        [("B", TAG_HASH_DESC), ("A", TAG_COMMIT), ("A", TAG_OPEN), ("B", TAG_RESULT)],
    )
    if not outcome.accepted:
        if reason not in HONEST_COMMIT_ABORTS:
            raise CheckError(f"honest commitment rejected with {reason}")
        return "abort:" + reason
    [(_, diag)] = frames[0]
    (m, masked), (_, digest), (_, a_mask), (_, u) = frames[1]
    (_, claimed), (w_len, w) = frames[2]
    v = value.to_int()
    opened = outcome.opened
    if opened is None or opened.to_int() != v or claimed != v or m != value.length:
        raise CheckError("accepted session did not open the committed value")
    if (w_len, w) != restrict(x, a_mask) or w_len != k:
        raise CheckError("opened W differs from the public string on A")
    if digest != toeplitz(diag, w, k, digest_len):
        raise CheckError("digest does not match the Toeplitz product of W")
    if masked != v ^ toeplitz(u, w, k, m):
        raise CheckError("masked value does not match the extractor output")
    return OK


def theta_window(m: int, t: int, trials: int, sigmas: float = 4.0) -> tuple[float, float]:
    """Both-in-target rate a uniform partner string implies, +- sigmas standard errors."""
    p = ((1 << t) - 1) / ((1 << m) - 1)
    half = sigmas * math.sqrt(p * (1.0 - p) / trials)
    return p - half, p + half


def check_theta_rate(successes: int, trials: int, m: int, t: int) -> None:
    lo, hi = theta_window(m, t, trials)
    rate = successes / trials
    if not lo <= rate <= hi:
        raise CheckError(f"both-in-target rate {rate:.6f} outside [{lo:.6f}, {hi:.6f}]")
