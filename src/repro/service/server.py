"""The HTTP shell around :class:`~repro.service.app.ServiceApp`.

Stdlib only: :class:`ServiceServer` is a
:class:`http.server.ThreadingHTTPServer`, so each connection gets a
thread of its own, which reads one request (``Connection: close``
semantics -- load generators measure per-request latency, and the
simulation cost dwarfs connection setup) and runs
:meth:`ServiceApp.handle` on it.  A simulation, a store scan or a
``?wait=1`` submission blocks only the request that asked for it.

Shutdown is signal-driven and graceful: SIGINT/SIGTERM stop accepting
connections, cooperatively cancel every active job (each finishes its
current grid point and flushes what completed -- those jobs land in
``partial`` with a resume hint), and print the hints to stderr before
exiting 0.  A second signal is not needed; the drain is bounded by one
grid point per running job.
"""

from __future__ import annotations

import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import ServiceApp

#: Largest accepted request body (a JobSpec is tiny; this is a
#: fat-finger guard, not a DoS defence).
MAX_BODY_BYTES = 1 << 20

#: Largest accepted header section, counted as ``name: value`` lines.
#: No route needs more than a handful of headers; the stdlib already
#: refuses more than 100 of them.
MAX_HEADER_BYTES = 16 << 10


class _Handler(BaseHTTPRequestHandler):
    """Hands one request to the server's app on the connection's own
    thread and writes its response back."""

    protocol_version = "HTTP/1.1"
    #: A request line without a version is answered in HTTP/1.1 too;
    #: the stdlib's default, HTTP/0.9, has no status line.
    default_request_version = "HTTP/1.1"
    #: Seconds a read or write on the connection may block.
    timeout = 30.0
    #: Errors the shell answers itself are one plain-text line.
    error_content_type = "text/plain; charset=utf-8"
    error_message_format = "%(message)s\n"

    def _dispatch(self) -> None:
        header_bytes = sum(len(name) + len(value) + 4
                           for name, value in self.headers.items())
        if header_bytes > MAX_HEADER_BYTES:
            self.send_error(431, f"request headers over {MAX_HEADER_BYTES} "
                                 "bytes")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self.send_error(400, "malformed Content-Length")
            return
        if not 0 <= length <= MAX_BODY_BYTES:
            self.send_error(400, f"body too large ({length} bytes)")
            return
        body = self.rfile.read(length)
        if len(body) < length:
            self.send_error(400, "request body ended early")
            return
        target = urlsplit(self.path)
        response = self.server.app.handle(
            self.command, target.path or "/",
            dict(parse_qsl(target.query, keep_blank_values=True)), body,
        )
        payload = response.body.encode("utf-8")
        self.send_response_only(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":      # as the stdlib's send_error does
            self.wfile.write(payload)

    do_GET = do_HEAD = do_POST = do_PUT = do_PATCH = do_DELETE = _dispatch

    def log_message(self, format: str, *args) -> None:
        """Log nothing per request."""


class ServiceServer(ThreadingHTTPServer):
    """The service's HTTP server: bound at construction, served by
    :meth:`run` until :meth:`stop`, then drained."""

    #: Listen backlog: connections a burst of clients can queue before
    #: the accept loop takes them (the stdlib's default is 5).
    request_queue_size = 100

    def __init__(self, app: ServiceApp, host: str = "127.0.0.1",
                 port: int = 8642) -> None:
        super().__init__((host, port), _Handler)
        self.app = app
        self.host = host
        self.port = self.server_address[1]

    def handle_error(self, request, client_address) -> None:
        # A client that went away mid-response is not a server error.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def stop(self) -> None:
        """Make :meth:`run` stop serving and drain; returns at once.

        Safe from any thread and from a signal handler:
        :meth:`shutdown` waits for the serving loop to exit, so it runs
        on a thread of its own."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def run(self) -> int:
        """Serve until :meth:`stop`, drain the app, return the exit
        code."""
        print(f"serving on http://{self.host}:{self.port} "
              f"(store: {self.app.store_dir})", flush=True)
        self.serve_forever(poll_interval=0.05)
        self.server_close()
        print("shutting down: draining jobs...", file=sys.stderr, flush=True)
        for job in self.app.drain():
            hint = job.resume_hint or "re-submit the same spec to resume"
            print(f"  {job.id}: {job.state} -- {hint}",
                  file=sys.stderr, flush=True)
        return 0


def serve(app: ServiceApp, host: str = "127.0.0.1",
          port: int = 8642) -> int:
    """Run the service until SIGINT/SIGTERM; returns the exit code.

    Call from the main thread: that is where signal handlers live."""
    server = ServiceServer(app, host=host, port=port)
    previous = {signum: signal.signal(signum, lambda *_: server.stop())
                for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        return server.run()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
