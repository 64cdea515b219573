"""The socket glue of ``stream_io.StreamServer``; its ``_serve`` speaks the protocol.

Only ``StreamServer.__init__`` imports this module, so ``socketserver``
loads for ``listen`` and not for the commands that read files.
"""

from __future__ import annotations

import socketserver


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _StreamHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        self.server.owner._serve(self._read, self._reply)  # type: ignore[attr-defined]

    def _read(self, size: int) -> bytes:
        """``rfile.read1``; a connection the client reset reads as closed."""
        try:
            return self.rfile.read1(size)
        except ConnectionError:
            return b""

    def _reply(self, message: str) -> None:
        try:
            self.wfile.write((message + "\n").encode("utf-8"))
        except OSError:
            pass  # client already gone; keep serving others
