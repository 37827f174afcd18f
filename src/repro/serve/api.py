"""Stdlib HTTP JSON API of the simulation service.

One :class:`ServiceAPIServer` (a ``ThreadingHTTPServer``) runs inside
the daemon process, sharing its :class:`~repro.serve.daemon.ServiceDaemon`
instance; every mutating request goes through the same WAL + flock path
as the daemon's own scheduling, so HTTP clients and ``repro submit
--queue`` compose safely.

Endpoints::

    POST /jobs       submit one job spec; 200 existing / 201 created /
                     400 bad spec / 429 shed (backpressure) /
                     503 draining
    GET  /jobs       every job's summary (no result payloads)
    GET  /jobs/<id>  one job, result payload included once done; 404
    GET  /events     the merged telemetry spool as JSONL (time-ordered)
    GET  /healthz    daemon liveness + queue counts + counters (JSON)
    GET  /metrics    Prometheus text via repro.obs.prom.render_service
    POST /drain      request a graceful drain; 202

Error responses are JSON ``{"error": ...}`` with the matching status
code.  The server binds before the daemon loop starts and records its
address in ``<root>/http.addr`` (port 0 supported — tests bind
ephemerally and read the file back).
"""

import json
import os
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.fsio import atomic_replace, read_records
from repro.obs.prom import render_service

#: Largest request body accepted (a job spec is tiny; anything bigger
#: is a client bug or abuse).
MAX_BODY_BYTES = 64 * 1024


def merged_events(spool_dir):
    """Every event of every spool file in *spool_dir*, time-ordered.

    :func:`~repro.fsio.read_records` reads bytes and decodes per line
    (same tolerance rules as the WAL): a torn spool tail costs one
    line, never the stream.
    """
    events = []
    try:
        names = sorted(os.listdir(spool_dir))
    except OSError:
        return events
    for name in names:
        if name.endswith(".jsonl"):
            records, _ = read_records(os.path.join(spool_dir, name))
            events.extend(records)
    events.sort(key=lambda doc: doc.get("ts", 0.0))
    return events


class ServiceAPIHandler(BaseHTTPRequestHandler):
    """Request handler; the daemon rides on ``self.server.daemon``."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        daemon = getattr(self.server, "daemon", None)
        if daemon is not None:
            daemon.spool.emit("http_request", line=format % args)

    def _send(self, status, body, content_type="application/json"):
        data = body if isinstance(body, bytes) else body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status, doc):
        self._send(status, json.dumps(doc, indent=2) + "\n")

    def _error(self, status, message):
        self._send_json(status, {"error": message})

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            raise ValueError("negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise ValueError("request body too large")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    # -- routes ---------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        daemon = self.server.daemon
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, daemon.health())
        elif path == "/metrics":
            self._send(200, render_service(daemon.health()),
                       content_type="text/plain; version=0.0.4")
        elif path == "/events":
            daemon.queue.poll()
            lines = "".join(
                json.dumps(event) + "\n"
                for event in merged_events(daemon.paths["spool"])
            )
            self._send(200, lines, content_type="application/x-ndjson")
        elif path == "/jobs":
            daemon.queue.poll()
            self._send_json(200, {"jobs": daemon.queue.list_jobs()})
        elif path.startswith("/jobs/"):
            daemon.queue.poll()
            job = daemon.queue.get(path[len("/jobs/"):])
            if job is None:
                self._error(404, "no such job")
            else:
                self._send_json(200, job.to_dict(with_result=True))
        else:
            self._error(404, "unknown endpoint %s" % path)

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        daemon = self.server.daemon
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/drain":
            daemon.request_drain(why="http")
            self._send_json(202, {"draining": True})
            return
        if path != "/jobs":
            self._error(404, "unknown endpoint %s" % path)
            return
        if daemon.draining:
            self._error(503, "daemon is draining")
            return
        try:
            body = self._read_body()
        except ValueError as exc:
            self._error(400, str(exc))
            return
        tenant = str(body.pop("tenant", "default") or "default")
        try:
            job, created, shed = daemon.submit(body, tenant=tenant)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        if shed:
            self._error(429, "queue full (max_depth=%s)"
                        % daemon.config.max_depth)
            return
        self._send_json(201 if created else 200,
                        dict(job.to_dict(), created=created))


class ServiceAPIServer(ThreadingHTTPServer):
    """The bound HTTP server; start it with ``serve_forever`` on a thread.

    Binding (and the address file) happens in ``__init__``, so a caller
    that binds port 0 can read the real port back before the daemon
    loop starts.
    """

    daemon_threads = True

    def __init__(self, daemon, host="127.0.0.1", port=0):
        super().__init__((host, port), ServiceAPIHandler)
        self.daemon = daemon
        address = "%s:%d" % (self.server_address[0], self.server_address[1])
        # Atomic publish, same reasoning as the pidfile: clients poll
        # this file to discover the API and must never read a torn
        # host:port.
        atomic_replace(daemon.paths["addr"], address + "\n", durable=False)
        daemon.spool.emit("http_bound", address=address)

    @property
    def address(self):
        return "%s:%d" % (self.server_address[0], self.server_address[1])
