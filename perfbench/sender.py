"""Load generator: sends event lines to ``coverwin listen`` over one connection.

Run as its own process so that its schedule does not slow when the
program slows.  With ``--rate 0`` it sends everything at once (blast);
with a positive rate it runs an open loop in which event ``i`` is due at
``t0 + i / rate`` on the system-wide monotonic clock, and records how
late it ran; between sends it sleeps, and it never spins.  After the
last event it sends one line that is not an event; the server answers
it with an ``ERR`` line only after every earlier line of the connection
has been parsed and queued, so the reply tells the harness that nothing
is left in flight on the socket.

Prints one JSON object: t0, t_first (first byte sent), t_sent (last
event sent), t_drained (drain reply received), lag_ms_max, err_lines.

    python3 perfbench/sender.py --events FILE --count N --port P --rate R
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time

DRAIN_LINE = b'{"drain":true}\n'
DRAIN_REPLY = b"ERR missing_field"


def read_lines(path: str, count: int) -> list[bytes]:
    lines = []
    with open(path, "rb") as fp:
        for line in fp:
            if len(lines) == count:
                break
            lines.append(line)
    if len(lines) < count:
        raise SystemExit(f"sender: {path} holds only {len(lines)} events")
    return lines


def send_paced(sock: socket.socket, lines: list[bytes], rate: float, t0: float):
    """Open loop: send every due line, then sleep until the next is due."""
    lag_max = 0.0
    i = 0
    n = len(lines)
    while i < n:
        now = time.monotonic()
        j = i
        while j < n and t0 + j / rate <= now:
            j += 1
        if j > i:
            lag_max = max(lag_max, now - (t0 + i / rate))
            sock.sendall(b"".join(lines[i:j]))
            i = j
            continue
        # sleep, never spin: the harness thread that stamps window lines
        # shares this CPU and must get it as soon as a line arrives
        time.sleep(t0 + i / rate - now)
    return lag_max


def wait_drained(sock: socket.socket) -> int:
    """Read replies until the drain line's ERR; return other ERR lines seen."""
    buf = b""
    others = 0
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            raise SystemExit("sender: connection closed before the drain reply")
        buf += chunk
        *complete, buf = buf.split(b"\n")
        for line in complete:
            if line.startswith(DRAIN_REPLY):
                return others
            others += 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--events", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--rate", type=float, default=0.0)
    args = p.parse_args(argv)
    lines = read_lines(args.events, args.count)
    with socket.create_connection(("127.0.0.1", args.port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t0 = time.monotonic() + 0.05
        if args.rate > 0:
            while time.monotonic() < t0:
                time.sleep(t0 - time.monotonic())
            t_first = time.monotonic()
            lag_max = send_paced(sock, lines, args.rate, t0)
        else:
            t0 = t_first = time.monotonic()
            sock.sendall(b"".join(lines))
            lag_max = 0.0
        t_sent = time.monotonic()
        sock.sendall(DRAIN_LINE)
        others = wait_drained(sock)
        t_drained = time.monotonic()
    report = {
        "t0": t0,
        "t_first": t_first,
        "t_sent": t_sent,
        "t_drained": t_drained,
        "lag_ms_max": lag_max * 1000.0,
        "err_lines": others,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
