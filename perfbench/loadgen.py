"""Single-threaded wire load generator: open loop or closed loop.

One thread multiplexes at most a few non-blocking connections with
``selectors``; requests pipeline on each connection and responses are
matched by id.  In an open loop request ``i`` is due at
``start + i / rate`` whatever the server does, and its latency counts
from that instant, so a stall also charges the requests queued behind
it; ``lag`` records how late the generator itself sent each one.  In a
closed loop a fixed window of requests is outstanding and each response
releases the next request.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import Callable, Dict, List, Optional, Tuple

from wire import FrameReader, encode_ping


class _Connection:
    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.reader = FrameReader()
        self.out = bytearray()


def ping(address: Tuple[str, int], timeout_s: float = 5.0) -> Dict:
    """One blocking ping round trip; returns the response header."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        sock.sendall(encode_ping(0))
        reader = FrameReader()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            frames = reader.feed(data)
            if frames:
                return frames[0][0]


def run_load(
    address: Tuple[str, int],
    make_frame: Callable[[int], bytes],
    *,
    warmup_s: float,
    measure_s: float,
    rate: Optional[float] = None,
    window: Optional[int] = None,
    connections: int = 2,
    drain_s: float = 5.0,
    on_measure_start: Optional[Callable[[], None]] = None,
) -> Dict[str, object]:
    """Drive load; returns per-request timings and outcomes.

    Exactly one of ``rate`` (open loop, requests per second) and
    ``window`` (closed loop, requests outstanding) is given.  Requests are
    issued for ``warmup_s + measure_s`` seconds; outstanding ones then get
    ``drain_s`` more to answer.  ``on_measure_start`` runs once when the
    measured phase begins.
    """
    if (rate is None) == (window is None):
        raise ValueError("give exactly one of rate and window")
    conns = [_Connection(address) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    due: List[float] = []
    sent: List[float] = []
    recv: List[Optional[float]] = []
    status: List[Optional[str]] = []
    label: List[Optional[int]] = []
    outstanding = 0

    def flush(conn: _Connection) -> None:
        if conn.out:
            try:
                count = conn.sock.send(conn.out)
            except BlockingIOError:
                count = 0
            del conn.out[:count]
        events = selectors.EVENT_READ | (
            selectors.EVENT_WRITE if conn.out else 0)
        selector.modify(conn.sock, events, conn)

    def issue(index: int, due_at: float) -> None:
        nonlocal outstanding
        conn = conns[index % len(conns)]
        conn.out += make_frame(index)
        due.append(due_at)
        sent.append(time.perf_counter())
        recv.append(None)
        status.append(None)
        label.append(None)
        outstanding += 1
        flush(conn)

    start = time.perf_counter() + 0.01
    measure_at = start + warmup_s
    stop_at = measure_at + measure_s
    cpu_started = time.process_time()
    measuring = False
    try:
        while True:
            now = time.perf_counter()
            if not measuring and now >= measure_at:
                measuring = True
                if on_measure_start is not None:
                    on_measure_start()
            if now < stop_at:
                if rate is not None:
                    while True:
                        due_at = start + len(due) / rate
                        if due_at > now or due_at >= stop_at:
                            break
                        issue(len(due), due_at)
                    timeout = min(start + len(due) / rate, stop_at) - now
                else:
                    while outstanding < window:
                        issue(len(due), now)
                    timeout = stop_at - now
            else:
                if outstanding == 0 or now >= stop_at + drain_s:
                    break
                timeout = stop_at + drain_s - now
            for key, mask in selector.select(max(0.0, timeout)):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    flush(conn)
                if mask & selectors.EVENT_READ:
                    data = conn.sock.recv(1 << 18)
                    if not data:
                        raise ConnectionError("server closed the connection")
                    arrived = time.perf_counter()
                    for header, _ in conn.reader.feed(data):
                        index = int(header["id"])
                        if recv[index] is None:
                            recv[index] = arrived
                            status[index] = header.get("status")
                            label[index] = header.get("label")
                            outstanding -= 1
    finally:
        cpu_s = time.process_time() - cpu_started
        wall_s = time.perf_counter() - start
        selector.close()
        for conn in conns:
            conn.sock.close()
    return {
        "due": due, "sent": sent, "recv": recv, "status": status,
        "label": label, "measure_at": measure_at, "stop_at": stop_at,
        "cpu_frac": cpu_s / wall_s,
    }
