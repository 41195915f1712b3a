"""Frame protocol of :class:`ServiceServer`, exercised in-process over a
Unix socket (the subprocess daemon is covered by the ``service_smoke``
end-to-end test)."""

import asyncio
import json

from repro.baselines.registry import CompileOptions
from repro.experiments import compile_on, raa_for
from repro.experiments.batch import CompileJob
from repro.generators import qaoa_regular
from repro.service import CompileService, ServiceServer
from repro.service.wire import (
    FRAME_HEADER_LEN,
    decode_frame,
    decode_metrics,
    encode_frame,
    encode_job,
    parse_frame_header,
)


async def read_frame(reader):
    """One response frame, decoded."""
    header = await reader.readexactly(FRAME_HEADER_LEN)
    _flags, length = parse_frame_header(header)
    return decode_frame(header + await reader.readexactly(length))


async def roundtrip(path, requests):
    """Open one connection, send each request frame, collect responses."""
    reader, writer = await asyncio.open_unix_connection(path)
    responses = []
    try:
        for request in requests:
            writer.write(encode_frame(request))
            await writer.drain()
            responses.append(await read_frame(reader))
    finally:
        writer.close()
    return responses


def serve_scenario(tmp_path, body):
    async def scenario():
        service = CompileService(inline=True, shards=1)
        server = ServiceServer(service, socket_path=tmp_path / "repro.sock")
        await server.start()
        try:
            return await body(str(tmp_path / "repro.sock"))
        finally:
            await server.aclose()

    return asyncio.run(scenario())


class TestProtocol:
    def test_ping_and_backends(self, tmp_path):
        async def body(path):
            return await roundtrip(path, [{"op": "ping"}, {"op": "backends"}])

        ping, backends = serve_scenario(tmp_path, body)
        assert ping["ok"] is True
        assert "Atomique" in backends["backends"]

    def test_submit_status_result_over_socket(self, tmp_path):
        circuit = qaoa_regular(8, 3, seed=1)
        job = CompileJob(
            "Atomique", circuit, CompileOptions(raa=raa_for(circuit))
        )

        async def body(path):
            (submitted,) = await roundtrip(
                path, [{"op": "submit", "job": encode_job(job)}]
            )
            job_id = submitted["id"]
            return await roundtrip(
                path,
                [
                    {"op": "result", "id": job_id, "wait": True, "timeout": 60},
                    {"op": "status", "id": job_id},
                    {"op": "jobs"},
                    {"op": "stats"},
                ],
            )

        result, status, jobs, stats = serve_scenario(tmp_path, body)
        direct = compile_on("Atomique", circuit, raa=raa_for(circuit))
        assert decode_metrics(result["metrics"]).num_2q_gates == direct.num_2q_gates
        assert status["job"]["state"] == "done"
        assert len(jobs["jobs"]) == 1
        assert stats["stats"]["jobs"]["done"] == 1

    def test_errors_are_reported_not_fatal(self, tmp_path):
        async def body(path):
            responses = await roundtrip(
                path,
                [
                    {"op": "warp"},
                    {"op": "status", "id": "job-000042-missing"},
                    {"op": "submit", "job": {"backend": "Nope", "circuit": {}}},
                ],
            )
            # The connection survived all three bad requests.
            responses += await roundtrip(path, [{"op": "ping"}])
            return responses

        unknown_op, missing, bad_submit, ping = serve_scenario(tmp_path, body)
        assert unknown_op["ok"] is False and "unknown op" in unknown_op["error"]
        assert missing["ok"] is False and "unknown job" in missing["error"]
        assert bad_submit["ok"] is False
        assert ping["ok"] is True

    def test_bad_frame_header_gets_error_frame_then_close(self, tmp_path):
        # A header the server cannot parse (here: frame version 9, or a
        # JSON line from a client that does not speak frames) leaves the
        # stream unsynchronised: the server answers with one error frame,
        # then closes instead of dropping the connection silently.
        bad_version = bytearray(encode_frame({"op": "ping"}))
        bad_version[2] = 9

        async def send_raw(path, data):
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                writer.write(data)
                await writer.drain()
                response = await read_frame(reader)
                trailing = await reader.read()  # EOF: the server closed
            finally:
                writer.close()
            return response, trailing

        json_line = json.dumps({"op": "ping"}).encode() + b"\n"

        async def body(path):
            return [
                await send_raw(path, bytes(bad_version)),
                await send_raw(path, json_line),
            ]

        (version, after_version), (line, after_line) = serve_scenario(
            tmp_path, body
        )
        assert version["ok"] is False and "version 9" in version["error"]
        assert line["ok"] is False and "bad frame header" in line["error"]
        assert after_version == after_line == b""

    def test_undecodable_frame_body_keeps_the_connection(self, tmp_path):
        # A well-framed but undecodable body is answered in place; the
        # stream is still in sync, so the next request on it works.
        body_bytes = b"not json"
        garbage = bytes(encode_frame({})[:4]) + len(body_bytes).to_bytes(
            4, "big"
        ) + body_bytes

        async def body(path):
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                writer.write(garbage + encode_frame({"op": "ping"}))
                await writer.drain()
                return [await read_frame(reader), await read_frame(reader)]
            finally:
                writer.close()

        bad, ping = serve_scenario(tmp_path, body)
        assert bad["ok"] is False and "bad frame payload" in bad["error"]
        assert ping["ok"] is True

    def test_drain_op_stops_the_server(self, tmp_path):
        async def scenario():
            service = CompileService(inline=True, shards=1)
            server = ServiceServer(service, socket_path=tmp_path / "s.sock")
            await server.start()
            serving = asyncio.create_task(server.serve_until_drained())
            (response,) = await roundtrip(
                str(tmp_path / "s.sock"), [{"op": "drain"}]
            )
            await asyncio.wait_for(serving, timeout=10)
            await server.aclose()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is True and response["op"] == "drain"
