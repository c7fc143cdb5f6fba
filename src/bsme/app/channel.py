"""Byte channels carrying whole frames.

A channel only carries frames: ``send``, ``recv`` and ``close``.  Both
transports deliver the same frames in the same causal order, so a session
transcript, which the runner records as it sends each frame, is
byte-identical whichever one carries it.
"""

from __future__ import annotations

import queue
import socket

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


class MemoryChannel:
    """One endpoint of an in-process duplex pipe.  Close sends an empty
    sentinel so a peer blocked in recv fails fast instead of hanging."""

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue):
        self._inbox = inbox
        self._outbox = outbox

    def send(self, data: bytes) -> None:
        if not data:
            raise ValueError("refusing to send an empty frame")
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


def memory_pair() -> tuple[MemoryChannel, MemoryChannel]:
    ab, ba = queue.SimpleQueue(), queue.SimpleQueue()
    return MemoryChannel(inbox=ba, outbox=ab), MemoryChannel(inbox=ab, outbox=ba)


class StreamChannel:
    """Endpoint over a connected socket; frames are self-delimiting."""

    def __init__(self, sock: socket.socket):
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


def socketpair_channels() -> tuple[StreamChannel, StreamChannel]:
    sa, sb = socket.socketpair()
    return StreamChannel(sa), StreamChannel(sb)


def _tcp_channel(sock: socket.socket) -> StreamChannel:
    """A TCP endpoint that sends each frame at once.  With Nagle's algorithm
    a party that writes two small frames and then waits holds the second
    until the peer's delayed ACK, about 40 ms per such flight."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return StreamChannel(sock)


def listen_channel(host: str, port: int) -> StreamChannel:
    """Accept exactly one peer connection."""
    srv = socket.create_server((host, port))
    try:
        conn, _addr = srv.accept()
    finally:
        srv.close()
    return _tcp_channel(conn)


def connect_channel(host: str, port: int) -> StreamChannel:
    return _tcp_channel(socket.create_connection((host, port), timeout=RECV_TIMEOUT))
