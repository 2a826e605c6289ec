"""A small asyncio HTTP/1.1 JSON client (stdlib-only, keep-alive).

The container deliberately carries no HTTP client dependency, and the
advisor protocol needs exactly one shape of exchange: send a JSON (or
empty) body, read a JSON body back, reuse the connection.  This client
does that and nothing more — it exists for the CI serve smoke and the
tests.
"""

import asyncio
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["AdvisorClient", "parse_base_url"]


def parse_base_url(url: str) -> Tuple[str, int]:
    """``http://host:port`` → ``(host, port)``."""
    parts = urlsplit(url if "//" in url else f"//{url}")
    if parts.scheme not in ("", "http"):
        raise ValueError(f"only http:// urls are supported, got {url!r}")
    host = parts.hostname or "127.0.0.1"
    return host, parts.port or 80


class AdvisorClient:
    """One keep-alive connection to an advisor server."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, payload: Any = None,
                      headers: Optional[Dict[str, str]] = None,
                      ) -> Tuple[int, Any]:
        """One round-trip: returns ``(status_code, parsed_body)`` — JSON
        when the response is JSON, raw text otherwise (``/metrics``).

        Reconnects once on a dead keep-alive connection (the server may
        have been restarted between calls).  ``headers`` adds extra
        request headers (e.g. ``{"X-Repro-Trace": "1"}`` to force a
        span-traced request).
        """
        try:
            return await asyncio.wait_for(
                self._roundtrip(method, path, payload, headers), self.timeout)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await self.close()
            return await asyncio.wait_for(
                self._roundtrip(method, path, payload, headers), self.timeout)

    async def get(self, path: str,
                  headers: Optional[Dict[str, str]] = None) -> Tuple[int, Any]:
        return await self.request("GET", path, headers=headers)

    async def post(self, path: str, payload: Any,
                   headers: Optional[Dict[str, str]] = None) -> Tuple[int, Any]:
        return await self.request("POST", path, payload, headers=headers)

    async def _roundtrip(self, method: str, path: str, payload: Any,
                         extra_headers: Optional[Dict[str, str]] = None,
                         ) -> Tuple[int, Any]:
        if self._writer is None:
            await self._connect()
        body = b""
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode()
        extra = "".join(f"{k}: {v}\r\n"
                        for k, v in (extra_headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"\r\n"
        ).encode()
        self._writer.write(head + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        try:
            status = int(status_line.split()[1])
        except (IndexError, ValueError):
            raise ConnectionError(f"bad status line {status_line!r}") from None
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        if "json" in headers.get("content-type", "json"):
            doc: Any = json.loads(raw) if raw else {}
        else:
            doc = raw.decode()
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, doc
