"""repro.obs.expose — snapshot exposition: Prometheus text, JSON, HTTP.

Three ways out of a :class:`~repro.obs.core.Registry`:

* :func:`to_prometheus` renders a snapshot in the Prometheus text
  exposition format (histograms become cumulative ``_bucket{le=...}``
  series with edges at the log2 bucket boundaries);
* :func:`write_json` / :func:`validate_metrics_payload` write and
  check the ``repro.obs/v1`` JSON snapshot `repro-fib serve
  --metrics-json` emits (CI validates the smoke artifact with
  ``python -m repro.obs --validate PATH``);
* :class:`MetricsExporter` serves both formats from a stdlib-only
  daemon HTTP thread (``--metrics-port``; port 0 picks a free port).

No third-party dependency anywhere — ``http.server`` and ``json`` only.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, List

from .core import SCHEMA, ZERO_BUCKET, Registry, bucket_bounds

_KINDS = ("counter", "gauge", "histogram")


def _labels_text(labelnames, labelvalues, extra: str = "") -> str:
    parts = [
        f'{name}="{value}"' for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(snapshot, prefix: str = "repro_") -> str:
    """Render a registry (or snapshot dict) as Prometheus text format."""
    if isinstance(snapshot, Registry):
        snapshot = snapshot.snapshot()
    lines: List[str] = []
    for name, payload in snapshot.get("metrics", {}).items():
        kind = payload.get("type", "untyped")
        labelnames = payload.get("labels", ())
        full = prefix + name
        if payload.get("help"):
            lines.append(f"# HELP {full} {payload['help']}")
        lines.append(f"# TYPE {full} {kind}")
        for record in payload.get("series", ()):
            values = record.get("labels", ())
            if kind == "histogram":
                cumulative = 0
                for index in sorted(
                    int(i) for i in record.get("buckets", {})
                ):
                    cumulative += record["buckets"][str(index)]
                    edge = 0.0 if index == ZERO_BUCKET else bucket_bounds(index)[1]
                    labels = _labels_text(
                        labelnames, values, f'le="{_format_value(edge)}"'
                    )
                    lines.append(f"{full}_bucket{labels} {cumulative}")
                labels = _labels_text(labelnames, values, 'le="+Inf"')
                lines.append(f"{full}_bucket{labels} {record.get('count', 0)}")
                labels = _labels_text(labelnames, values)
                lines.append(f"{full}_sum{labels} {record.get('sum', 0.0)!r}")
                lines.append(f"{full}_count{labels} {record.get('count', 0)}")
            else:
                labels = _labels_text(labelnames, values)
                lines.append(
                    f"{full}{labels} {_format_value(record.get('value', 0))}"
                )
    return "\n".join(lines) + "\n"


def write_json(path, payload: dict) -> None:
    """Write one metrics payload (sorted keys, trailing newline)."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def validate_metrics_payload(payload: dict) -> List[str]:
    """Schema errors in a ``--metrics-json`` payload (empty = valid).

    Accepts either a bare registry snapshot (``{"schema", "metrics"}``)
    or the serve wrapper (``{"schema", "command", "rows": [...]}``
    where each row carries a ``snapshot``).
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SCHEMA:
        errors.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}"
        )
    if "rows" in payload:
        rows = payload["rows"]
        if not isinstance(rows, list) or not rows:
            errors.append("rows must be a non-empty list")
            rows = []
        for position, row in enumerate(rows):
            where = f"rows[{position}]"
            if not isinstance(row, dict):
                errors.append(f"{where} is not an object")
                continue
            if not row.get("name"):
                errors.append(f"{where}.name missing")
            snapshot = row.get("snapshot")
            if not isinstance(snapshot, dict):
                errors.append(f"{where}.snapshot missing")
                continue
            errors.extend(
                f"{where}.snapshot: {error}"
                for error in _validate_snapshot(snapshot)
            )
        return errors
    errors.extend(_validate_snapshot(payload))
    return errors


def _validate_snapshot(snapshot: dict) -> List[str]:
    errors: List[str] = []
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        return ["metrics missing"]
    for name, payload in metrics.items():
        if not isinstance(payload, dict):
            errors.append(f"{name}: not an object")
            continue
        kind = payload.get("type")
        if kind not in _KINDS:
            errors.append(f"{name}: unknown type {kind!r}")
            continue
        labelnames = payload.get("labels", [])
        for record in payload.get("series", []):
            values = record.get("labels", [])
            if len(values) != len(labelnames) and tuple(values) != ("__overflow__",):
                errors.append(
                    f"{name}: series labels {values!r} do not match "
                    f"labelnames {labelnames!r}"
                )
            if kind == "histogram":
                if "count" not in record or "buckets" not in record:
                    errors.append(f"{name}: histogram series missing count/buckets")
                elif record["count"] != sum(record["buckets"].values()):
                    errors.append(
                        f"{name}: bucket counts do not sum to count"
                    )
            elif "value" not in record:
                errors.append(f"{name}: {kind} series missing value")
    return errors


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 - http.server API
        snapshot = self.server.snapshot_fn()  # type: ignore[attr-defined]
        if self.path in ("", "/") or self.path.startswith("/metrics"):
            body = to_prometheus(snapshot).encode()
            content_type = "text/plain; version=0.0.4"
        elif self.path.startswith("/json"):
            body = (json.dumps(snapshot, sort_keys=True) + "\n").encode()
            content_type = "application/json"
        else:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        return None


class MetricsExporter:
    """Stdlib HTTP exporter: ``/metrics`` (Prometheus text), ``/json``.

    ``snapshot_fn`` is called per request, so a live serve run exposes
    current state. Daemon thread; ``close()`` is idempotent.
    """

    def __init__(self, snapshot_fn: Callable[[], dict],
                 port: int = 0, host: str = "127.0.0.1"):
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        if isinstance(snapshot_fn, Registry):
            snapshot_fn = snapshot_fn.snapshot
        self._server.snapshot_fn = snapshot_fn  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-obs-exporter",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
