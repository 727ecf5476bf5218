"""The benchmark's own HTTP client: one blocking keep-alive connection.

The service's callers block for a reply, so a closed loop on a blocking
socket is the honest load model. The benchmark owns this client so that
changes to ``repro.service.client`` cannot move its numbers; it speaks
only what the service answers: ``Content-Length`` bodies, keep-alive.
"""

from __future__ import annotations

import json
import socket


class Connection:
    """One keep-alive HTTP/1.1 connection to ``127.0.0.1:port``."""

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, target: str, body: bytes = b"") -> tuple[int, object]:
        """Send one request, block for the reply; returns ``(status, payload)``.

        JSON bodies are decoded; anything else (``/metrics`` text) comes
        back as ``str``.
        """
        head = f"{method} {target} HTTP/1.1\r\nhost: bench\r\n"
        if body:
            head += f"content-length: {len(body)}\r\n"
        self._sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        blob, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = blob.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self._buffer) < length:
            self._fill()
        payload, self._buffer = self._buffer[:length], self._buffer[length:]
        if "json" in headers.get("content-type", ""):
            return status, json.loads(payload) if payload else {}
        return status, payload.decode("utf-8")

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("service closed the connection mid-response")
        self._buffer += chunk

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
