"""Simulation as a service: the HTTP layer over the jobs substrate.

:mod:`repro.service.app` routes requests (transport-free, directly
testable); :mod:`repro.service.server` is the HTTP shell, the stdlib's
threading HTTP server with signal-driven graceful drain.  ``repro
serve`` is the CLI entry point.  Results, tables and reports are all
rendered by the same code paths as the CLI commands, so serving adds
an interface, not a second implementation.
"""

from repro.service.app import Response, ServiceApp
from repro.service.server import ServiceServer, serve

__all__ = [
    "Response",
    "ServiceApp",
    "ServiceServer",
    "serve",
]
