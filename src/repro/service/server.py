"""The asyncio HTTP shell around :class:`~repro.service.app.ServiceApp`.

Stdlib only: :func:`asyncio.start_server` accepts connections, a small
HTTP/1.1 parser reads one request per connection (``Connection:
close`` semantics -- load generators measure per-request latency, and
the simulation cost dwarfs connection setup), and every
:meth:`ServiceApp.handle` call runs on an executor thread so the event
loop never blocks on a simulation, a store scan, or a ``?wait=1``
submission.

Shutdown is signal-driven and graceful: SIGINT/SIGTERM stop accepting
connections, cooperatively cancel every active job (each finishes its
current grid point and flushes what completed -- those jobs land in
``partial`` with a resume hint), and print the hints to stderr before
exiting 0.  A second signal is not needed; the drain is bounded by one
grid point per running job.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import Response, ServiceApp

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest accepted request body (a JobSpec is tiny; this is a
#: fat-finger guard, not a DoS defence).
MAX_BODY_BYTES = 1 << 20

#: Header-section bounds: no route needs more than a handful of
#: headers, so cap both count and total bytes rather than letting a
#: slow client grow the dict for the whole read timeout.
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 16 << 10


def _encode(response: Response) -> bytes:
    body = response.body.encode("utf-8")
    reason = _REASONS.get(response.status, "Unknown")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; ``None`` on EOF, ValueError on a
    malformed one."""
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, _version = (
            request_line.decode("ascii").strip().split(" ", 2)
        )
    except (UnicodeDecodeError, ValueError):
        raise ValueError("malformed request line") from None
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if len(headers) >= MAX_HEADER_LINES \
                or header_bytes > MAX_HEADER_BYTES:
            raise ValueError("too many request headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ValueError("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(f"body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    params = dict(parse_qsl(split.query, keep_blank_values=True))
    return method.upper(), split.path or "/", params, body


class ServiceServer:
    """One serving session: bind, accept, drain on signal."""

    def __init__(self, app: ServiceApp, host: str = "127.0.0.1",
                 port: int = 8642) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._stop = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader), timeout=30.0
                )
            except (ValueError, asyncio.IncompleteReadError) as error:
                writer.write(_encode(Response(
                    400, "text/plain; charset=utf-8", f"{error}\n"
                )))
                return
            except asyncio.TimeoutError:
                writer.write(_encode(Response(
                    408, "text/plain; charset=utf-8",
                    "timed out reading request\n"
                )))
                return
            if request is None:
                return
            method, path, params, body = request
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                None, self.app.handle, method, path, params, body
            )
            writer.write(_encode(response))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass                        # client went away mid-response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _install_signals(self, loop: asyncio.AbstractEventLoop) -> None:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._stop.set)
            except (NotImplementedError, RuntimeError):
                # Non-main thread or exotic platform: Ctrl-C falls back
                # to KeyboardInterrupt, handled by the CLI wrapper.
                pass

    def stop(self) -> None:
        """Programmatic shutdown trigger (tests use this in place of a
        signal).  Thread-safe."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._stop.set)
        else:
            self._stop.set()

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        self._loop = loop
        server = await asyncio.start_server(
            self._client, host=self.host, port=self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._install_signals(loop)
        print(f"serving on http://{self.host}:{self.port} "
              f"(store: {self.app.store_dir})", flush=True)
        async with server:
            await self._stop.wait()
            print("shutting down: draining jobs...",
                  file=sys.stderr, flush=True)
            server.close()
            await server.wait_closed()
        drained = await loop.run_in_executor(None, self.app.drain)
        for job in drained:
            hint = job.resume_hint or "re-submit the same spec to resume"
            print(f"  {job.id}: {job.state} -- {hint}",
                  file=sys.stderr, flush=True)
        self.app.close()
        return 0


def serve(app: ServiceApp, host: str = "127.0.0.1",
          port: int = 8642) -> int:
    """Run the service until SIGINT/SIGTERM; returns the exit code."""
    server = ServiceServer(app, host=host, port=port)
    try:
        return asyncio.run(server.run())
    except KeyboardInterrupt:
        # Signal handler could not be installed (rare); still drain.
        app.drain()
        app.close()
        return 0
