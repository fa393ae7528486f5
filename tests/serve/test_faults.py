"""Server fault paths: overload, timeouts, stalls and disconnects.

Admission control must answer — explicitly and promptly — never hang;
and no fault on one connection may perturb another tenant's decision
stream.  ``service_delay`` (a ServerConfig test hook) makes queueing
effects deterministic.
"""

import asyncio

import pytest

from repro.serve import (
    ConfidenceServer,
    ServeBadRequest,
    ServeClient,
    ServeDraining,
    ServeRejected,
    ServeTimeout,
    ServerConfig,
    SessionSpec,
    offline_decisions,
    protocol,
    running_server,
)
from repro.sim.runner import get_trace

_SPEC = SessionSpec(tenant="t0", predictor="tage-16K", estimator="tage")


def _batches(trace, batch_size):
    return [
        (trace.pcs[start:start + batch_size],
         trace.takens[start:start + batch_size])
        for start in range(0, len(trace), batch_size)
    ]


class TestQueueOverflow:
    def test_overflow_rejects_instead_of_hanging(self):
        """Pipelining far past the tenant bound answers ERR_REJECTED for
        the overflow, serves the admitted batches, and applies exactly
        the served ones to tenant state."""
        trace = get_trace("zoo.loopnest", 800)
        batches = _batches(trace, 100)  # 8 batches
        config = ServerConfig(
            port=0, n_shards=1, max_tenant_queue=2, service_delay=0.03
        )

        async def main():
            async with running_server(config) as server:
                host, port = server.address
                client = await ServeClient.connect(host, port)
                await client.hello(_SPEC)
                for pcs, takens in batches:
                    await client.send_observe(pcs, takens)
                answered = rejected = 0
                applied = 0
                for pcs, _ in batches:
                    try:
                        await client.recv_result()
                    except ServeRejected:
                        rejected += 1
                    else:
                        answered += 1
                        applied += len(pcs)
                stats = await client.close()
                return answered, rejected, applied, stats, server.n_rejected

        answered, rejected, applied, stats, n_rejected = asyncio.run(main())
        assert answered + rejected == len(batches)
        assert rejected >= 1           # the bound actually kicked in
        assert answered >= 1           # admitted work was still served
        assert n_rejected == rejected
        # Rejected batches were NOT applied: state reflects exactly the
        # answered ones.
        assert stats["observed"] == applied


class TestRequestTimeout:
    def test_queued_past_deadline_times_out_not_applied(self):
        """With service slower than the deadline, queued requests answer
        ERR_TIMEOUT, are not applied, and the connection keeps working."""
        trace = get_trace("zoo.loopnest", 400)
        batches = _batches(trace, 100)  # 4 batches
        config = ServerConfig(
            port=0, n_shards=1, max_tenant_queue=64,
            request_timeout=0.05, service_delay=0.12,
        )

        async def main():
            async with running_server(config) as server:
                host, port = server.address
                client = await ServeClient.connect(host, port)
                await client.hello(_SPEC)
                for pcs, takens in batches[:3]:
                    await client.send_observe(pcs, takens)
                outcomes = []
                for _ in range(3):
                    try:
                        await client.recv_result()
                        outcomes.append("ok")
                    except ServeTimeout:
                        outcomes.append("timeout")
                # The connection survives timeouts: a fresh request on a
                # now-idle server is served normally.
                await client.observe(*batches[3])
                stats = await client.close()
                return outcomes, stats, server.n_timed_out

        outcomes, stats, n_timed_out = asyncio.run(main())
        assert outcomes[0] == "ok"                   # dequeued before deadline
        assert outcomes.count("timeout") == 2        # queued past it
        assert n_timed_out == 2
        applied_batches = outcomes.count("ok") + 1   # + the follow-up batch
        assert stats["observed"] == applied_batches * 100


class TestStalledClient:
    def test_mid_frame_stall_answers_timeout_and_disconnects(self):
        """A client that stops sending mid-frame gets ERR_TIMEOUT and a
        closed connection instead of pinning the reader task forever."""
        config = ServerConfig(port=0, request_timeout=0.1)

        async def main():
            async with running_server(config) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                # A frame header promising 64 bytes, then silence.
                writer.write((65).to_bytes(4, "little") + bytes([protocol.MSG_OBSERVE]))
                writer.write(b"\x01\x02\x03")
                await writer.drain()
                frame = await asyncio.wait_for(
                    protocol.read_frame(reader), timeout=5.0
                )
                eof = await asyncio.wait_for(reader.read(1), timeout=5.0)
                writer.close()
                return frame, eof

        frame, eof = asyncio.run(main())
        assert frame is not None
        msg_type, payload = frame
        assert msg_type == protocol.MSG_ERROR
        code, _ = protocol.decode_error(payload)
        assert code == protocol.ERR_TIMEOUT
        assert eof == b""  # server hung up after answering


class TestDisconnect:
    def test_mid_stream_disconnect_leaves_other_tenant_bit_identical(self):
        """One tenant's client vanishing mid-stream must not perturb
        another tenant's served decision stream."""
        trace = get_trace("zoo.markov", 1200)
        survivor_spec = SessionSpec(
            tenant="survivor", predictor="tage-16K", estimator="tage"
        )
        victim_spec = SessionSpec(
            tenant="victim", predictor="tage-16K", estimator="tage"
        )
        offline = offline_decisions(survivor_spec, trace)
        config = ServerConfig(port=0, n_shards=2)

        async def main():
            async with running_server(config) as server:
                host, port = server.address
                victim = await ServeClient.connect(host, port)
                await victim.hello(victim_spec)
                await victim.observe(trace.pcs[:300], trace.takens[:300])
                # Pipeline two more batches and vanish without reading
                # the replies or saying goodbye.
                await victim.send_observe(trace.pcs[300:600], trace.takens[300:600])
                await victim.send_observe(trace.pcs[600:900], trace.takens[600:900])
                await victim.abort()

                survivor = await ServeClient.connect(host, port)
                await survivor.hello(survivor_spec)
                stream = await survivor.replay(trace, batch_size=177)
                await survivor.close()
                return stream

        stream = asyncio.run(main())
        assert stream.predictions == offline.predictions
        assert stream.codes == offline.codes


class TestProtocolFaults:
    def test_observe_before_hello_is_bad_request(self):
        async def main():
            async with running_server(ServerConfig(port=0)) as server:
                host, port = server.address
                client = await ServeClient.connect(host, port)
                with pytest.raises(ServeBadRequest, match="before hello"):
                    await client.observe([0x40], b"\x01")
                await client.abort()

        asyncio.run(main())

    def test_oversized_batch_is_bad_request(self):
        async def main():
            async with running_server(
                ServerConfig(port=0, max_batch=4)
            ) as server:
                host, port = server.address
                client = await ServeClient.connect(host, port)
                await client.hello(_SPEC)
                with pytest.raises(ServeBadRequest, match="max_batch"):
                    await client.observe([0x40] * 5, b"\x01" * 5)
                await client.abort()

        asyncio.run(main())

    def test_bad_hello_payload_is_bad_request(self):
        async def main():
            async with running_server(ServerConfig(port=0)) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(protocol.encode_frame(protocol.MSG_HELLO, b"{nope"))
                await writer.drain()
                frame = await asyncio.wait_for(
                    protocol.read_frame(reader), timeout=5.0
                )
                writer.close()
                return frame

        msg_type, payload = asyncio.run(main())
        assert msg_type == protocol.MSG_ERROR
        assert protocol.decode_error(payload)[0] == protocol.ERR_BAD_REQUEST

    @pytest.mark.parametrize("fields", [
        {"seed": "abc"},
        {"seed": 1.5},
        {"tenant": 5},
        {"target_mkp": "x", "adaptive": True},
        {"adaptive": "no"},
    ], ids=repr)
    def test_wrong_typed_hello_field_is_bad_request(self, fields):
        """A wrong-typed HELLO field answers an ERR_BAD_REQUEST frame
        instead of dropping the connection."""
        hello = protocol.encode_json({"tenant": "typed", **fields})

        async def main():
            async with running_server(ServerConfig(port=0)) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(protocol.encode_frame(protocol.MSG_HELLO, hello))
                await writer.drain()
                frame = await asyncio.wait_for(
                    protocol.read_frame(reader), timeout=5.0
                )
                writer.close()
                return frame

        frame = asyncio.run(main())
        assert frame is not None, "server closed without an ERROR frame"
        msg_type, payload = frame
        assert msg_type == protocol.MSG_ERROR
        assert protocol.decode_error(payload)[0] == protocol.ERR_BAD_REQUEST


class TestDraining:
    def test_new_requests_rejected_while_draining(self):
        """Work admitted before the drain completes; requests arriving
        during the drain answer ERR_DRAINING."""
        trace = get_trace("zoo.loopnest", 200)
        config = ServerConfig(port=0, n_shards=1, service_delay=0.1)

        async def main():
            server = ConfidenceServer(config)
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            await client.hello(_SPEC)
            await client.send_observe(trace.pcs[:100], trace.takens[:100])
            while server.n_admitted < 1:
                await asyncio.sleep(0.001)
            drain_task = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0)  # let drain set the flag
            assert server.draining
            await client.send_observe(trace.pcs[100:], trace.takens[100:])
            await client.recv_result()  # admitted batch is answered
            with pytest.raises(ServeDraining):
                await client.recv_result()
            await drain_task
            await client.abort()
            return server.n_answered

        assert asyncio.run(main()) == 1
