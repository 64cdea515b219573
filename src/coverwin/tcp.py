"""The socket side of ``stream_io.StreamServer``.

Only ``StreamServer.__init__`` imports this module, so ``socketserver``
loads for ``listen`` and not for the commands that read files.
"""

from __future__ import annotations

import socketserver

from . import stream_io
from .stream_io import ParseError, _line_too_long, _split_reads
from .views import Event


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: stream_io.StreamServer


class _StreamHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        owner = self.server.owner  # type: ignore[attr-defined]
        # looked up through the module per connection, so a replaced
        # stream_io.parse_event parses TCP lines as it parses file lines
        parse_event = stream_io.parse_event
        for lines in _split_reads(self._read):
            if lines is None:
                # every earlier line was windowed when its read was
                self._submit(owner, [], _line_too_long())
                continue
            batch: list[Event] = []
            for line in lines:
                if not line:
                    continue
                try:
                    batch.append(parse_event(line, "jsonl"))
                except ParseError as exc:
                    # window the events before a bad line ahead of its reply
                    self._submit(owner, batch, exc)
                    batch = []
            self._submit(owner, batch)

    def _read(self, size: int) -> bytes:
        """``rfile.read1``; a connection the client reset reads as closed."""
        try:
            return self.rfile.read1(size)
        except ConnectionError:
            return b""

    def _submit(
        self,
        owner: stream_io.StreamServer,
        batch: list[Event],
        error: ParseError | None = None,
    ) -> None:
        """Window ``batch``, answer its out-of-order events, then ``error``."""
        if batch or error:
            rejected = owner._deliver(batch, parse_error=error is not None)
            if owner.strict_order:
                for _ in range(rejected):
                    self._reply("ERR out_of_order: timestamp went backwards")
            if error:
                self._reply(f"ERR {error.code}: {error}")

    def _reply(self, message: str) -> None:
        try:
            self.wfile.write((message + "\n").encode("utf-8"))
        except OSError:
            pass  # client already gone; keep serving others
