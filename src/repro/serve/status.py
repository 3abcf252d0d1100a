"""The service's status endpoint: a thread-safe board plus an HTTP view.

:class:`StatusBoard` is the single source of truth the control loop updates
once per slot (cheap: one dict swap under a lock); fields that cost a sort
to build are computed when ``/status`` is read.  :class:`StatusServer`
is a stdlib ``ThreadingHTTPServer`` on a daemon thread serving the board as
JSON -- ``GET /status`` for the full snapshot, ``GET /healthz`` for
liveness probes, and (when a :class:`~repro.telemetry.MetricsRegistry` is
attached) ``GET /metrics`` in Prometheus text exposition format -- so an
operator or a scraper can watch a long-running ``repro run`` without
touching its stdout or its trace file.

The HTTP thread only ever *reads* the board; nothing in the serving loop
blocks on a slow client, and a service run with the endpoint disabled has
no thread at all.  Schema documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable

from ..telemetry.metrics import MetricsRegistry
from ..telemetry.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..telemetry.tracer import sanitize_json_value

__all__ = ["StatusBoard", "StatusServer"]


class StatusBoard:
    """Mutable snapshot of a running service, safe to read from any thread.

    Most fields are stored as the loop sets them.  A field whose value
    costs real work and may go unread (the solve-latency percentiles, one
    sort of every latency sample) is registered with
    :meth:`compute` instead and evaluated only when a snapshot is read.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict = {"state": "starting", "slot": 0}
        self._computed: dict[str, Callable[[], Any]] = {}

    def update(self, **fields) -> None:
        """Merge ``fields`` into the snapshot."""
        with self._lock:
            self._data.update(fields)

    def compute(self, name: str, read: Callable[[], Any]) -> None:
        """Serve field ``name`` as ``read()``, called on each snapshot."""
        with self._lock:
            self._computed[name] = read

    def get(self, name: str, default: Any = None) -> Any:
        """One stored field, without evaluating the computed ones."""
        with self._lock:
            return self._data.get(name, default)

    def snapshot(self) -> dict:
        """A consistent copy of the current snapshot, computed fields
        evaluated now."""
        with self._lock:
            data = dict(self._data)
            computed = list(self._computed.items())
        for name, read in computed:
            data[name] = read()
        return data


def _handler(board: StatusBoard, registry: MetricsRegistry | None) -> type:
    """The request handler class serving ``board`` (and ``registry`` on
    ``/metrics``; ``None`` disables it), built when a server starts."""
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        """Serves the board; silent (no per-request stderr lines)."""

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            path = self.path.split("?", 1)[0]
            if path in ("/status", "/"):
                body = json.dumps(
                    sanitize_json_value(board.snapshot()), indent=2
                ).encode()
                self._respond(200, body)
            elif path == "/healthz":
                state = board.get("state", "unknown")
                code = 200 if state in ("starting", "running", "stopping") else 503
                self._respond(code, json.dumps({"state": state}).encode())
            elif path == "/metrics" and registry is not None:
                # The loop thread writes instruments while we render; values may
                # be one slot apart but each read is of a plain float/list, so
                # no lock is needed for a consistent-enough scrape.
                body = render_prometheus(registry).encode("utf-8")
                self._respond(200, body, content_type=PROMETHEUS_CONTENT_TYPE)
            else:
                self._respond(404, b'{"error": "not found"}')

        def _respond(
            self, code: int, body: bytes, *, content_type: str = "application/json"
        ) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # probes every few seconds would otherwise spam stderr

    return Handler


class StatusServer:
    """Background HTTP server exposing a :class:`StatusBoard`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction (and write it somewhere discoverable, e.g. the CLI's
    ``--status-port-file``) to find it.
    """

    def __init__(self, board: StatusBoard, *, host: str = "127.0.0.1",
                 port: int = 0, registry: MetricsRegistry | None = None) -> None:
        # The HTTP stack (http.server pulls in email, ssl and socket) loads
        # only when a server starts, not with every ``repro run``.
        from http.server import ThreadingHTTPServer

        self._httpd = ThreadingHTTPServer((host, port), _handler(board, registry))
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-status",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and join the thread; idempotent."""
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
        self._httpd.server_close()
