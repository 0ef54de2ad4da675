"""HTTP endpoint fault injection: malformed payloads, garbled request
lines, and mid-request disconnects must leave the service serving.

The server binds an ephemeral loopback port per scenario; clients are
raw asyncio streams so the tests can speak broken HTTP on purpose.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import snapshot_service
from repro.service.http import MAX_BODY, ServiceHTTP
from repro.service.service import run_until_quiescent


async def _raw_request(port: int, payload: bytes) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    body = b""
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
    body = await reader.read()
    writer.close()
    await writer.wait_closed()
    return status, json.loads(body) if body else {}


def _http(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


async def _post_task(port: int, record: dict) -> tuple[int, dict]:
    return await _raw_request(
        port, _http("POST", "/v1/tasks", json.dumps(record).encode())
    )


async def _serving(make_service, **service_kwargs):
    service, clock = make_service(**service_kwargs)
    http = ServiceHTTP(service)
    await service.start()
    await http.start()
    return service, clock, http


def test_post_task_admits_and_reports_decision(make_service, run_async):
    async def scenario():
        service, clock, http = await _serving(make_service)
        status, body = await _post_task(http.port, {"task_type": 0, "deadline_slack": 50.0})
        assert status == 202
        assert body["status"] == "admitted"
        assert body["task_id"] == 0
        await run_until_quiescent(service)
        status, stats = await _raw_request(http.port, _http("GET", "/v1/stats"))
        assert status == 200
        assert stats["ingress"]["admitted"] == 1
        assert stats["accounting"]["on_time"] + stats["accounting"]["late"] == 1
        await http.stop()
        await service.stop()

    run_async(scenario())


def test_healthz_and_unknown_paths(make_service, run_async):
    async def scenario():
        service, _, http = await _serving(make_service)
        status, body = await _raw_request(http.port, _http("GET", "/v1/healthz"))
        assert (status, body["status"]) == (200, "ok")
        status, _ = await _raw_request(http.port, _http("GET", "/v1/nope"))
        assert status == 404
        status, _ = await _raw_request(http.port, _http("DELETE", "/v1/tasks"))
        assert status == 405
        status, _ = await _raw_request(http.port, _http("POST", "/v1/stats"))
        assert status == 405
        await http.stop()
        await service.stop()

    run_async(scenario())


def test_malformed_json_is_structured_400_and_service_survives(make_service, run_async):
    async def scenario():
        service, _, http = await _serving(make_service)
        status, body = await _raw_request(
            http.port, _http("POST", "/v1/tasks", b"{not json")
        )
        assert status == 400
        assert body["status"] == "malformed"
        # Non-object JSON takes the field-level reject path.
        status, body = await _raw_request(http.port, _http("POST", "/v1/tasks", b"[1, 2]"))
        assert status == 400
        assert "must be an object" in body["error"]
        # Missing fields likewise.
        status, body = await _post_task(http.port, {"task_type": 0})
        assert status == 400
        assert "missing fields" in body["error"]
        # The service is still up and admits the next good record.
        status, body = await _post_task(http.port, {"task_type": 1, "deadline_slack": 40.0})
        assert status == 202
        await run_until_quiescent(service)
        assert service.stats.malformed == 3
        assert service.stats.admitted == 1
        await http.stop()
        await service.stop()

    run_async(scenario())


@pytest.mark.parametrize(
    "record, field",
    [
        ({"task_type": 1.7, "deadline_slack": 5.0}, "task_type"),
        ({"task_type": True, "deadline_slack": 5.0}, "task_type"),
        ({"task_type": "2", "deadline_slack": 5.0}, "task_type"),
        ({"task_type": 0, "deadline_slack": "5"}, "deadline_slack"),
        ({"task_type": 0, "deadline_slack": True}, "deadline_slack"),
        ({"task_type": 0, "deadline_slack": float("inf")}, "deadline_slack"),  # Infinity
    ],
    ids=["fractional-type", "bool-type", "string-type", "string-slack", "bool-slack",
         "infinite-slack"],
)
def test_uncoerced_field_values_are_400(make_service, run_async, record, field):
    async def scenario():
        service, _, http = await _serving(make_service)
        status, body = await _post_task(http.port, record)
        assert status == 400
        assert body["status"] == "malformed"
        assert field in body["error"]
        assert service.stats.malformed == 1
        assert service.system.accounting.total_arrived == 0
        await http.stop()
        await service.stop()

    run_async(scenario())


def test_garbled_request_line_and_bad_headers_yield_400(make_service, run_async):
    async def scenario():
        service, _, http = await _serving(make_service)
        status, body = await _raw_request(http.port, b"BANANAS\r\n\r\n")
        assert status == 400
        assert "malformed request line" in body["error"]
        status, body = await _raw_request(
            http.port, b"POST /v1/tasks HTTP/1.1\r\nContent-Length: soup\r\n\r\n"
        )
        assert status == 400
        assert "Content-Length" in body["error"]
        oversized = f"POST /v1/tasks HTTP/1.1\r\nContent-Length: {MAX_BODY + 1}\r\n\r\n"
        status, body = await _raw_request(http.port, oversized.encode())
        assert status == 400
        assert "too large" in body["error"]
        # Still serving.
        status, _ = await _raw_request(http.port, _http("GET", "/v1/healthz"))
        assert status == 200
        await http.stop()
        await service.stop()

    run_async(scenario())


def test_client_disconnect_mid_request_drains_cleanly(make_service, run_async):
    async def scenario():
        service, _, http = await _serving(make_service)
        # Promise a body, send half of it, vanish.
        reader, writer = await asyncio.open_connection("127.0.0.1", http.port)
        writer.write(b"POST /v1/tasks HTTP/1.1\r\nContent-Length: 64\r\n\r\n{half")
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        # Let the handler observe the EOF and drain the connection.
        for _ in range(10):
            await asyncio.sleep(0)
        # Nothing reached the pump; the service still serves.
        assert service.stats.received == 0
        status, body = await _post_task(http.port, {"task_type": 0, "deadline_slack": 30.0})
        assert (status, body["status"]) == (202, "admitted")
        await run_until_quiescent(service)
        await http.stop()
        await service.stop()
        assert service.finalize().total == 1

    run_async(scenario())


def test_decision_statuses_map_to_http_codes(make_service, run_async):
    async def scenario():
        from repro import PruningConfig

        service, _, http = await _serving(
            make_service,
            pruning=PruningConfig.paper_default(),
            admission_threshold=1.0,
            ingress_capacity=1,
        )
        # Rejected by the Eq.-2 gate: unreachable slack.
        status, body = await _raw_request(
            http.port,
            _http(
                "POST", "/v1/tasks",
                json.dumps({"task_type": 2, "deadline_slack": 0.25}).encode(),
            ),
        )
        # The single-slot queue drains between requests, so this lands at
        # the admission gate and is rejected there.
        assert (status, body["status"]) == (422, "rejected")
        await run_until_quiescent(service)
        await http.stop()
        await service.stop()

    run_async(scenario())


def test_snapshot_endpoint_round_trips(make_service, run_async):
    async def scenario():
        service, _, http = await _serving(make_service)
        status, body = await _post_task(http.port, {"task_type": 0, "deadline_slack": 50.0})
        assert status == 202
        await run_until_quiescent(service, max_wakeups=0)
        status, snap = await _raw_request(http.port, _http("POST", "/v1/snapshot"))
        assert status == 200
        # The endpoint serves exactly what the library call captures.
        direct = snapshot_service(service)
        assert json.dumps(snap, sort_keys=True) == json.dumps(direct, sort_keys=True)
        await run_until_quiescent(service)
        await http.stop()
        await service.stop()

    run_async(scenario())


def test_snapshot_endpoint_conflicts_on_busy_ingress(make_service, run_async):
    async def scenario():
        from repro.sim.dynamics import DynamicsSpec

        service, _, http = await _serving(
            make_service,
            system_kwargs={"seed": 5, "dynamics": DynamicsSpec(failures=1)},
        )
        status, body = await _raw_request(http.port, _http("POST", "/v1/snapshot"))
        assert status == 409
        assert "dynamics" in body["error"]
        await http.stop()
        await service.stop()

    run_async(scenario())
