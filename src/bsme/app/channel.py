"""Byte channels carrying whole frames, with optional transcript capture.

Both transports deliver the same frames in the same causal order, so a
session transcript is byte-identical whichever one carries it.  Transcript
entries are (sender label, frame bytes) appended at send time under a lock.
"""

from __future__ import annotations

import queue
import socket
import threading

from .framing import read_frame

__all__ = [
    "ChannelClosed",
    "MemoryChannel",
    "memory_pair",
    "StreamChannel",
    "socketpair_channels",
    "listen_channel",
    "connect_channel",
]

RECV_TIMEOUT = 30.0


class ChannelClosed(ConnectionError):
    pass


class _Recorder:
    def __init__(self, label: str | None, transcript: list | None, lock: threading.Lock):
        self.label = label
        self._transcript = transcript
        self._lock = lock

    def record(self, data: bytes) -> None:
        if self._transcript is not None:
            with self._lock:
                self._transcript.append((self.label, data))


class MemoryChannel(_Recorder):
    """One endpoint of an in-process duplex pipe.  Close sends an empty
    sentinel so a peer blocked in recv fails fast instead of hanging."""

    def __init__(
        self,
        inbox: queue.SimpleQueue,
        outbox: queue.SimpleQueue,
        label: str,
        transcript: list | None,
        lock: threading.Lock,
    ):
        super().__init__(label, transcript, lock)
        self._inbox = inbox
        self._outbox = outbox

    def send(self, data: bytes) -> None:
        if not data:
            raise ValueError("refusing to send an empty frame")
        self.record(data)
        self._outbox.put(data)

    def recv(self) -> bytes:
        try:
            data = self._inbox.get(timeout=RECV_TIMEOUT)
        except queue.Empty:
            raise ChannelClosed("recv timed out") from None
        if not data:
            raise ChannelClosed("peer closed the channel")
        return data

    def close(self) -> None:
        self._outbox.put(b"")


def memory_pair(transcript: list | None = None) -> tuple[MemoryChannel, MemoryChannel]:
    lock = threading.Lock()
    ab, ba = queue.SimpleQueue(), queue.SimpleQueue()
    a = MemoryChannel(inbox=ba, outbox=ab, label="A", transcript=transcript, lock=lock)
    b = MemoryChannel(inbox=ab, outbox=ba, label="B", transcript=transcript, lock=lock)
    return a, b


class StreamChannel(_Recorder):
    """Endpoint over a connected socket; frames are self-delimiting."""

    def __init__(
        self,
        sock: socket.socket,
        label: str | None = None,
        transcript: list | None = None,
        lock: threading.Lock | None = None,
    ):
        super().__init__(label, transcript, lock or threading.Lock())
        self._sock = sock
        sock.settimeout(RECV_TIMEOUT)

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except socket.timeout:
                raise ChannelClosed("recv timed out") from None
            except OSError as exc:
                raise ChannelClosed(str(exc)) from exc
            if not chunk:
                raise ChannelClosed("peer closed the connection")
            buf += chunk
        return bytes(buf)

    def send(self, data: bytes) -> None:
        self.record(data)
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self) -> bytes:
        return read_frame(self._read_exact)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def socketpair_channels(
    transcript: list | None = None,
) -> tuple[StreamChannel, StreamChannel]:
    lock = threading.Lock()
    sa, sb = socket.socketpair()
    a = StreamChannel(sa, "A", transcript, lock)
    b = StreamChannel(sb, "B", transcript, lock)
    return a, b


def listen_channel(host: str, port: int) -> StreamChannel:
    """Accept exactly one peer connection."""
    srv = socket.create_server((host, port))
    try:
        conn, _addr = srv.accept()
    finally:
        srv.close()
    return StreamChannel(conn)


def connect_channel(host: str, port: int) -> StreamChannel:
    sock = socket.create_connection((host, port), timeout=RECV_TIMEOUT)
    return StreamChannel(sock)
