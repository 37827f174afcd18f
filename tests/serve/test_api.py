"""The HTTP JSON API, exercised against a live in-process server.

The server binds an ephemeral port (written to ``<root>/http.addr``)
and runs on a thread against a real :class:`ServiceDaemon`; the daemon
loop itself is *not* running — these tests assert the API's contract
(status codes, shapes, backpressure), not job execution, which
tests/serve/test_daemon.py covers.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.serve.api import ServiceAPIServer, merged_events
from repro.serve.daemon import ServiceConfig, ServiceDaemon, read_address
from repro.serve.queue import JobQueue

SPEC = {"workload": "soplex", "variant": "cfd", "scale": 0.125,
        "max_instructions": 2000}


@pytest.fixture()
def service(tmp_path):
    daemon = ServiceDaemon(str(tmp_path / "svc"),
                           ServiceConfig(max_depth=2, no_cache=True))
    server = ServiceAPIServer(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield daemon, server
    server.shutdown()
    thread.join(timeout=10)
    daemon.spool.close()


def request(server, method, path, body=None):
    host, port = server.server_address[0], server.server_address[1]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        try:
            doc = json.loads(raw) if raw else None
        except ValueError:
            doc = raw.decode("utf-8")
        return response.status, doc, dict(response.getheaders())
    finally:
        conn.close()


def test_address_file_records_the_bound_port(service, tmp_path):
    daemon, server = service
    assert read_address(daemon.root) == server.address
    assert ":" in server.address


def test_healthz_reports_queue_and_counters(service):
    daemon, server = service
    status, doc, _ = request(server, "GET", "/healthz")
    assert status == 200
    assert doc["ok"] and not doc["draining"]
    assert doc["queue"]["depth"] == 0
    assert doc["counters"]["shed_total"] == 0
    assert doc["config"]["max_depth"] == 2


def test_post_jobs_created_then_dedup(service):
    daemon, server = service
    status, doc, _ = request(server, "POST", "/jobs", body=SPEC)
    assert status == 201 and doc["created"]
    status2, doc2, _ = request(server, "POST", "/jobs", body=SPEC)
    assert status2 == 200 and not doc2["created"]
    assert doc2["job_id"] == doc["job_id"]
    assert doc2["submits"] == 2


def test_post_jobs_rejects_bad_specs(service):
    daemon, server = service
    status, doc, _ = request(server, "POST", "/jobs",
                             body={"workload": "soplex", "tpyo": 1})
    assert status == 400 and "tpyo" in doc["error"]
    status2, doc2, _ = request(server, "POST", "/jobs", body={})
    assert status2 == 400


def test_post_jobs_sheds_with_429_beyond_max_depth(service):
    daemon, server = service
    assert request(server, "POST", "/jobs", body=SPEC)[0] == 201
    assert request(server, "POST", "/jobs",
                   body=dict(SPEC, variant="base"))[0] == 201
    status, doc, _ = request(server, "POST", "/jobs",
                             body=dict(SPEC, seed=7))
    assert status == 429 and "queue full" in doc["error"]
    assert daemon.counters["shed_total"] == 1
    # a duplicate of an accepted job still succeeds at full depth
    assert request(server, "POST", "/jobs", body=SPEC)[0] == 200


def test_get_job_by_id_and_404(service):
    daemon, server = service
    _, created, _ = request(server, "POST", "/jobs", body=SPEC)
    job_id = created["job_id"]
    status, doc, _ = request(server, "GET", "/jobs/%s" % job_id)
    assert status == 200 and doc["state"] == "submitted"
    assert "result" in doc
    assert request(server, "GET", "/jobs/nope")[0] == 404
    assert request(server, "GET", "/nothing/here")[0] == 404


def test_get_jobs_lists_summaries(service):
    daemon, server = service
    request(server, "POST", "/jobs", body=SPEC)
    status, doc, _ = request(server, "GET", "/jobs")
    assert status == 200 and len(doc["jobs"]) == 1
    assert "result" not in doc["jobs"][0]


def test_done_job_serves_result_payload(service):
    daemon, server = service
    _, doc, _ = request(server, "POST", "/jobs", body=SPEC)
    daemon.queue.lease(owner=1)
    daemon.queue.complete(doc["job_id"], {"answer": 42})
    status, served, _ = request(server, "GET", "/jobs/%s" % doc["job_id"])
    assert status == 200
    assert served["state"] == "done" and served["result"] == {"answer": 42}


def test_metrics_exports_prometheus_text(service):
    daemon, server = service
    request(server, "POST", "/jobs", body=SPEC)
    status, text, headers = request(server, "GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert "repro_service_queue_depth 1" in text
    assert "repro_service_shed_total 0" in text


def test_events_streams_the_merged_spool(service):
    daemon, server = service
    daemon.spool.emit("daemon_heartbeat", counts={})
    status, text, headers = request(server, "GET", "/events")
    assert status == 200
    assert headers["Content-Type"] == "application/x-ndjson"
    kinds = [json.loads(line)["kind"] for line in text.splitlines()]
    assert "http_bound" in kinds and "daemon_heartbeat" in kinds


def test_drain_endpoint_flips_the_flag_and_rejects_submits(service):
    daemon, server = service
    status, doc, _ = request(server, "POST", "/drain")
    assert status == 202 and doc["draining"]
    assert daemon.draining
    status2, doc2, _ = request(server, "POST", "/jobs", body=SPEC)
    assert status2 == 503


def test_submits_via_api_are_durable(service, tmp_path):
    daemon, server = service
    _, doc, _ = request(server, "POST", "/jobs", body=SPEC)
    independent = JobQueue(daemon.queue.path)
    assert independent.get(doc["job_id"]).state == "submitted"


def test_negative_content_length_is_refused_at_once(service):
    """``rfile.read(-1)`` would wait for the client to hang up; the
    handler must answer 400 without reading the body."""
    _, server = service
    host, port = server.server_address[0], server.server_address[1]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.settimeout(1.0)
        sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: -1\r\n\r\n")
        reply = http.client.HTTPResponse(sock)
        reply.begin()  # socket.timeout fails the test
        body = json.loads(reply.read())
    assert reply.status == 400
    assert body == {"error": "negative Content-Length"}


def test_merged_events_skips_torn_spool_lines(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "daemon-1.jsonl").write_bytes(
        b'{"kind": "a", "ts": 2.0}\n{"kind": "b", "ts": 1.0}\n{"torn'
    )
    (spool / "ignored.txt").write_text("not a spool file")
    events = merged_events(str(spool))
    assert [event["kind"] for event in events] == ["b", "a"]
