"""Prometheus text-exposition rendering of metrics registries.

:func:`render_prometheus` joins the exposition lines of one or more
:class:`~repro.obs.metrics.MetricsRegistry` instances into the Prometheus
text format (version 0.0.4).  The serving runtime renders its own
registry — the request / batch counters, the in-flight gauge, the
latency / queue-wait / service / batch-size / queue-depth histograms and
the ``repro_serve_info`` deployment labels — followed by the process
registry (engine, sweep cache, shm arena).  Derived statistics (rates,
percentiles, means) are left to the scraper: each one follows from a
counter or a histogram's buckets, ``_sum`` and ``_count``.

:class:`MetricsServer` serves the rendering over HTTP on a daemon side
thread (stdlib ``ThreadingHTTPServer``; ``GET /metrics`` and a
``/healthz`` liveness probe), binding ``port=0`` for an ephemeral port so
tests and demos never collide.  :func:`parse_exposition` is the matching
minimal parser used by the tests and the CLI to prove the output is valid.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "render_prometheus",
    "parse_exposition",
    "MetricsServer",
    "CONTENT_TYPE",
]

#: The content type of exposition format version 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def render_prometheus(*registries) -> str:
    """The exposition-format text of *registries*, rendered in order."""
    lines = [line for registry in registries for line in registry.render()]
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    A minimal, validating reader of the subset this module emits: every
    sample must belong to a ``# TYPE``-declared family, values must parse
    as floats, label strings must be well-formed.  Raises ``ValueError``
    on any violation — the tests and the CLI use it to prove ``/metrics``
    output is consumable.
    """
    families: Dict[str, Dict[str, object]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": "", "samples": {}}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, family_type = rest.partition(" ")
            if family_type not in ("counter", "gauge", "summary", "histogram",
                                   "untyped"):
                raise ValueError(f"invalid metric type {family_type!r}")
            families.setdefault(
                name, {"type": None, "help": "", "samples": {}}
            )["type"] = family_type
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        # A sample: name[{labels}] value
        if "{" in line:
            name, _, rest = line.partition("{")
            labels_text, closed, value_text = rest.partition("}")
            if not closed or not value_text.strip():
                raise ValueError(f"malformed sample line: {raw!r}")
            labels = labels_text
        else:
            name, _, value_text = line.partition(" ")
            labels = ""
        name = name.strip()
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in families:
                family = family[: -len(suffix)]
        if family not in families or families[family]["type"] is None:
            raise ValueError(f"sample {name!r} has no # TYPE declaration")
        try:
            value = float(value_text.strip())
        except ValueError as exc:
            raise ValueError(f"bad sample value in {raw!r}") from exc
        families[family]["samples"][f"{name}{{{labels}}}" if labels else name] = value
    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name!r} was HELPed but never TYPEd")
    return families


class _Handler(BaseHTTPRequestHandler):
    """``GET /metrics`` + ``GET /healthz``; silent access logging."""

    server: "_Server"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?")[0] == "/metrics":
            try:
                body = self.server.render().encode("utf-8")
            except Exception as exc:  # pragma: no cover - defensive
                self.send_error(500, explain=str(exc))
                return
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.split("?")[0] == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *args) -> None:  # pragma: no cover - silence
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    render: Callable[[], str]


class MetricsServer:
    """The ``/metrics`` HTTP endpoint on a daemon side thread.

    Args:
        render: Zero-argument callable returning exposition text — called
            per scrape, so every scrape sees a fresh snapshot.
        host: Bind address (loopback by default).
        port: Bind port; ``0`` picks an ephemeral one.
    """

    def __init__(
        self,
        render: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._render = render
        self._host = host
        self._port = port
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)``; None before :meth:`start`."""
        if self._server is None:
            return None
        return self._server.server_address[:2]

    @property
    def url(self) -> Optional[str]:
        """The scrape URL; None before :meth:`start`."""
        address = self.address
        if address is None:
            return None
        return f"http://{address[0]}:{address[1]}/metrics"

    def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the actual (host, port)."""
        if self._server is not None:
            raise RuntimeError("metrics server is already started")
        server = _Server((self._host, self._port), _Handler)
        server.render = self._render
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Shut the endpoint down (idempotent)."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
