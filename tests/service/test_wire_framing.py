"""Length-prefixed frames — the only framing of the daemon socket — and
binary-doc frames carrying v3 program records."""

import json

import pytest

from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.generators import qaoa_random, qsim_random
from repro.hardware import RAAArchitecture
from repro.service import wire
from repro.service.wire import (
    FRAME_FLAG_BINARY_DOC,
    FRAME_FLAG_DEFLATE,
    FRAME_HEADER_LEN,
    FRAME_MAGIC,
    FRAME_VERSION,
    WIRE_COMPRESS_THRESHOLD,
    BinaryDoc,
    WireError,
    decode_frame,
    encode_bindoc_frame,
    encode_frame,
)


class TestBinaryFrames:
    def test_small_frame_roundtrip_uncompressed(self):
        payload = {"op": "ping", "n": 7}
        data = encode_frame(payload)
        assert data[:2] == FRAME_MAGIC
        assert data[3] == 0  # flags: no deflate below the threshold
        assert decode_frame(data) == payload

    def test_large_frame_roundtrip_deflated(self):
        payload = {"op": "submit", "blob": "x" * (WIRE_COMPRESS_THRESHOLD + 1)}
        data = encode_frame(payload)
        assert data[3] == 1  # FRAME_FLAG_DEFLATE
        assert len(data) < WIRE_COMPRESS_THRESHOLD  # x*N deflates well
        assert decode_frame(data) == payload

    def test_frame_magic_cannot_begin_a_json_line(self):
        # 0xAB is not ASCII and can never start a JSON document, so a peer
        # that writes a JSON line fails the header check on its first byte.
        assert FRAME_MAGIC[0] > 0x7F

    def test_truncated_header_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="frame"):
            decode_frame(data[: FRAME_HEADER_LEN - 2])

    def test_truncated_body_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="truncat"):
            decode_frame(data[:-1])

    def test_corrupt_payload_rejected(self):
        # The frame.corrupt chaos site flips the last byte; the decoder
        # must raise, never hand back garbage.
        payload = {"op": "submit", "blob": "x" * (WIRE_COMPRESS_THRESHOLD + 1)}
        data = encode_frame(payload)
        corrupt = data[:-1] + bytes((data[-1] ^ 0xFF,))
        with pytest.raises(WireError):
            decode_frame(corrupt)

    def test_wrong_magic_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="frame header"):
            decode_frame(b"\x00" + data[1:])

    def test_unknown_version_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="version"):
            decode_frame(data[:2] + b"\x63" + data[3:])

    def test_unknown_flags_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="flag"):
            decode_frame(data[:3] + b"\x80" + data[4:])

    def test_oversized_length_rejected(self):
        from repro.service.wire import MAX_FRAME_BYTES

        header = FRAME_MAGIC + bytes((1, 0))
        header += (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="exceeds"):
            decode_frame(header + b"x")

    def test_non_object_payload_rejected(self):
        body = b"[1, 2, 3]"
        header = FRAME_MAGIC + bytes((1, 0)) + len(body).to_bytes(4, "big")
        with pytest.raises(WireError, match="object"):
            decode_frame(header + body)

    def test_over_inflating_frame_rejected(self, monkeypatch):
        # The length prefix bounds only the deflated bytes; the inflated
        # body must stay within MAX_FRAME_BYTES too (lowered here so the
        # test inflates a few MiB, not 256).
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 2**20)
        at_limit = {"op": "x", "pad": "0" * (2**20 - 22)}
        assert len(json.dumps(at_limit)) == 2**20
        assert decode_frame(encode_frame(at_limit)) == at_limit
        bomb = encode_frame({"op": "x", "pad": "0" * 2**21})
        assert len(bomb) < 2**20 // 100  # zeros deflate ~1000x
        with pytest.raises(WireError, match="inflated frame payload exceeds"):
            decode_frame(bomb)


class TestBindocFrames:
    """Binary-doc frames: a JSON message plus a raw v3 record in one body."""

    DOC = b"\xabP3" + bytes(range(256))  # any bytes at the framing layer

    def test_small_bindoc_roundtrip(self):
        data = encode_bindoc_frame(
            {"ok": True, "op": "program"}, "program", self.DOC
        )
        assert data[:2] == FRAME_MAGIC
        assert data[3] & FRAME_FLAG_BINARY_DOC
        assert not data[3] & FRAME_FLAG_DEFLATE
        payload = decode_frame(data)
        blob = payload.pop("program")
        assert isinstance(blob, BinaryDoc) and blob.data == self.DOC
        # the marker is stripped; nothing else leaks through
        assert payload == {"ok": True, "op": "program"}

    def test_large_bindoc_deflates_as_a_whole(self):
        doc = b"\xabP3" + b"\x07" * (WIRE_COMPRESS_THRESHOLD + 1)
        data = encode_bindoc_frame({"ok": True, "op": "p"}, "program", doc)
        assert data[3] & FRAME_FLAG_DEFLATE
        assert len(data) < len(doc)  # constant runs deflate well
        assert decode_frame(data)["program"].data == doc

    def test_doc_bytes_are_binary_safe(self):
        # newlines, frame magic, and the JSON length prefix inside the
        # doc must not confuse the framing
        doc = b"\n" + FRAME_MAGIC + (2**31).to_bytes(4, "big") + b"\x00\xff"
        data = encode_bindoc_frame({"ok": True, "op": "p"}, "chunk", doc)
        assert decode_frame(data)["chunk"].data == doc

    def test_field_collision_rejected(self):
        with pytest.raises(WireError, match="already has field"):
            encode_bindoc_frame({"program": 1, "op": "p"}, "program", b"x")

    def test_bindoc_json_length_past_body_rejected(self):
        body = (999).to_bytes(4, "big") + b"{}"
        header = FRAME_MAGIC + bytes(
            (FRAME_VERSION, FRAME_FLAG_BINARY_DOC)
        ) + len(body).to_bytes(4, "big")
        with pytest.raises(WireError, match="bindoc json length"):
            decode_frame(header + body)

    def test_bindoc_without_marker_rejected(self):
        head = json.dumps({"ok": True, "op": "p"}).encode()
        body = len(head).to_bytes(4, "big") + head + b"doc"
        header = FRAME_MAGIC + bytes(
            (FRAME_VERSION, FRAME_FLAG_BINARY_DOC)
        ) + len(body).to_bytes(4, "big")
        with pytest.raises(WireError, match="_bindoc field marker"):
            decode_frame(header + body)

    def test_binarydoc_decodes_real_records(self):
        from repro.core import binformat

        circuit = qsim_random(8, seed=8)
        arch = RAAArchitecture.default(side=4)
        store = AtomiqueCompiler(arch, AtomiqueConfig(seed=7)).compile(
            circuit
        ).program
        restored = BinaryDoc(binformat.encode_program(store)).to_store()
        assert restored.gate_n_vib == store.gate_n_vib
        assert restored.off_gate == store.off_gate
        chunk = store.chunk_doc(0, store.num_stages)
        via_wire = BinaryDoc(binformat.encode_chunk(chunk)).to_chunk()
        assert via_wire == chunk
        # a program record is not a chunk record, and garbage is neither
        with pytest.raises(WireError, match="bad binary chunk"):
            BinaryDoc(binformat.encode_program(store)).to_chunk()
        with pytest.raises(WireError, match="bad binary program"):
            BinaryDoc(b"\x00garbage").to_store()




class TestFramedSocket:
    """Client and daemon over a real Unix socket, frames both ways."""

    @staticmethod
    def _serve(tmp_path, body, **service_kwargs):
        import asyncio

        from repro.service.client import ServiceClient
        from repro.service.server import CompileService, ServiceServer

        async def run():
            service = CompileService(inline=True, shards=1, **service_kwargs)
            server = ServiceServer(service, socket_path=tmp_path / "sock")
            await server.start()
            client = ServiceClient(
                socket_path=tmp_path / "sock", timeout=120.0
            )
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(None, body, client)
            finally:
                await server.aclose()

        return asyncio.run(run())

    def test_truncated_frame_from_server_raises_not_hangs(self, tmp_path):
        # A server that dies mid-frame must produce a clean error: the
        # client sees EOF before the declared length and raises.
        import asyncio

        from repro.service.client import RemoteError, ServiceClient

        async def run():
            async def handle(reader, writer):
                await reader.readexactly(FRAME_HEADER_LEN)
                data = encode_frame({"ok": True, "op": "ping"})
                writer.write(data[:-3])  # drop the tail, then hang up
                await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(
                handle, path=str(tmp_path / "t.sock")
            )
            client = ServiceClient(socket_path=tmp_path / "t.sock", retries=0)
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(
                    None, lambda: client.request({"op": "ping"})
                )
            except RemoteError as exc:
                return str(exc)
            finally:
                server.close()
                await server.wait_closed()
            return None

        message = asyncio.run(run())
        assert message is not None and "truncated" in message

    def test_large_submission_round_trips(self, tmp_path):
        """A submission whose deflated frame is well past 64 KiB (asyncio's
        default stream limit, and past twice it, where the reader pauses)
        compiles to the same result as a direct compile."""
        import random
        import string

        from repro.baselines.registry import CompileOptions, get_backend
        from repro.experiments.batch import CompileJob
        from repro.service.wire import encode_job

        circuit = qaoa_random(12, seed=5)
        # random letters barely deflate, so the frame stays large on the wire
        circuit.name = "".join(
            random.Random(5).choices(string.ascii_letters, k=300_000)
        )
        job = CompileJob("Superconducting", circuit)
        request = {"op": "submit", "job": encode_job(job)}
        assert len(encode_frame(request)) > 2 * 64 * 1024

        def body(client):
            job_id = client.submit(job)
            return client.result(job_id, wait=True)

        metrics = self._serve(tmp_path, body, spool_dir=tmp_path / "spool")
        direct = get_backend("Superconducting").compile(
            circuit, CompileOptions()
        )
        assert metrics.benchmark == circuit.name
        assert metrics.num_2q_gates == direct.num_2q_gates
        assert metrics.fidelity == direct.fidelity
