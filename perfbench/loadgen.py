"""Open-loop HTTP/1.1 load generator on raw non-blocking sockets.

Requests go out on a fixed schedule -- request ``i`` is due at
``start + i / rate`` -- whatever the server is doing: a slow response
never delays the next send, it only queues behind it (requests are
pipelined on keep-alive connections, assigned round-robin).  Each
request is timed from its *due* time, so a stall also charges the wait
it imposes on every request scheduled behind it.

The wake-up is ``select.select`` with a float timeout (microsecond
``timeval``), not an event loop timer: asyncio rounds timeouts up to
whole milliseconds, which would make the generator, not the server,
set the measured latency.  How late each send actually left is
recorded per request (``late_s``) so a run can prove the generator kept
its pace.

Only the standard library is used; bodies are kept raw and parsed by
the caller after the timed window.
"""

from __future__ import annotations

import gc
import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field

#: Give up on responses still missing this long after the last send.
DRAIN_S = 10.0


@dataclass
class LoadResult:
    """Per-request outcome arrays, indexed like the request list."""

    rate: float
    duration_s: float
    #: Schedule start to the last response received.
    elapsed_s: float = 0.0
    status: list = field(default_factory=list)
    body: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for s in self.status if s is not None)


class _Conn:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.inflight: deque = deque()

    def fileno(self) -> int:
        return self.sock.fileno()

    def flush(self) -> None:
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:n]

    def responses(self):
        """Yield ``(status, body)`` for each complete buffered response."""
        buf = self.inbuf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(buf[:end])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            stop = end + 4 + length
            if len(buf) < stop:
                return
            status = int(head.split(b" ", 2)[1])
            body = bytes(buf[end + 4 : stop])
            del buf[:stop]
            yield status, body


def run_schedule(
    host: str,
    port: int,
    paths: list,
    rate: float,
    connections: int = 2,
) -> LoadResult:
    """Send ``paths`` as GETs at ``rate`` per second; collect replies."""
    n = len(paths)
    requests = [
        f"GET {p} HTTP/1.1\r\nHost: bench\r\n\r\n".encode() for p in paths
    ]
    conns = [_Conn(host, port) for _ in range(max(int(connections), 1))]
    res = LoadResult(rate=float(rate), duration_s=n / float(rate))
    res.status = [None] * n
    res.body = [None] * n
    res.latency_s = [None] * n
    res.late_s = [None] * n
    interval = 1.0 / float(rate)
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection pause would read as generator lateness
    try:
        start = time.perf_counter() + 0.01
        nxt = 0
        done = 0
        deadline = start + res.duration_s + DRAIN_S
        while done < n:
            now = time.perf_counter()
            if now > deadline:
                break
            while nxt < n and start + nxt * interval <= now:
                c = conns[nxt % len(conns)]
                c.out += requests[nxt]
                c.inflight.append(nxt)
                res.late_s[nxt] = now - (start + nxt * interval)
                nxt += 1
            for c in conns:
                if c.out:
                    c.flush()
            timeout = (
                max(start + nxt * interval - time.perf_counter(), 0.0)
                if nxt < n else max(deadline - time.perf_counter(), 0.0)
            )
            readers = [c for c in conns if c.inflight]
            writers = [c for c in conns if c.out]
            ready_r, _, _ = select.select(readers, writers, [], timeout)
            for c in ready_r:
                try:
                    data = c.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not data:
                    raise ConnectionError("server closed the connection")
                t = time.perf_counter()
                c.inbuf += data
                for status, body in c.responses():
                    i = c.inflight.popleft()
                    res.status[i] = status
                    res.body[i] = body
                    res.latency_s[i] = t - (start + i * interval)
                    res.elapsed_s = t - start
                    done += 1
    finally:
        if gc_was_enabled:
            gc.enable()
        for c in conns:
            c.sock.close()
    return res


__all__ = ["LoadResult", "run_schedule"]
