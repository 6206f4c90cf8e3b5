"""Unit tests for :class:`ShardSupervisor` — no real processes.

The supervisor's process surface is duck-typed, so these tests
substitute a :class:`FakeProcess`/``FakeConn`` pair through the
``_spawn_process`` seam and drive ``tick()`` with a hand-cranked
clock: every detection path (exit, pipe EOF, heartbeat silence, start
hang), the honest-disposition handoff, respawn backoff, and the
clean-drain exemption — all without sleeping.
"""

import multiprocessing
import threading

from repro.serve import shardwire
from repro.serve.shard import ShardConfig
from repro.serve.supervisor import ShardState, ShardSupervisor


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeProcess:
    def __init__(self):
        self.alive = True
        self.killed = 0
        self.exitcode = None

    def is_alive(self):
        return self.alive

    def kill(self):
        self.killed += 1
        self.alive = False
        self.exitcode = -9

    def join(self, timeout=None):
        pass


class FakeConn:
    def __init__(self):
        self.sent = []
        self.closed = False

    def send_bytes(self, blob):
        if self.closed:
            raise BrokenPipeError("closed")
        self.sent.append(blob)

    def close(self):
        self.closed = True


class Harness:
    """One supervisor over fake shards, with recorded callbacks."""

    def __init__(self, shards=2, **kwargs):
        self.clock = FakeClock()
        self.spawned = []
        self.failures = []
        self.messages = []
        self.ready = []
        configs = [ShardConfig(index=i) for i in range(shards)]
        kwargs.setdefault("heartbeat_timeout", 2.0)
        kwargs.setdefault("respawn_backoff", 0.5)
        # tests feed frames via dispatch_message unless they opt in
        kwargs.setdefault("start_readers", False)
        sup = ShardSupervisor(
            configs,
            on_failure=lambda h, inflight, reason: self.failures.append(
                (h.index, inflight, reason)
            ),
            on_message=lambda h, rid, body: self.messages.append(
                (h.index, rid, body)
            ),
            on_ready=lambda h: self.ready.append(h.index),
            clock=self.clock,
            **kwargs,
        )
        harness = self

        def fake_spawn(config):
            pair = (FakeProcess(), FakeConn())
            harness.spawned.append((config, *pair))
            return pair

        sup._spawn_process = fake_spawn
        self.sup = sup

    def start(self):
        self.sup.start()
        return self

    def make_ready(self, index, pid=1000):
        handle = self.sup.handle(index)
        self.sup.dispatch_message(
            handle, shardwire.encode_ready(index, pid=pid + index,
                                           replayed_plans=3),
        )
        return handle

    def beat(self, index):
        handle = self.sup.handle(index)
        self.sup.dispatch_message(
            handle, shardwire.encode_heartbeat(index, 1, {"ok": True}),
        )


class TestStartup:
    def test_ready_transition_joins_the_ring(self):
        h = Harness().start()
        assert h.sup.healthy() == set()
        h.make_ready(0)
        assert h.sup.handle(0).state is ShardState.READY
        assert h.sup.healthy() == {0}
        assert h.ready == [0]
        assert h.sup.handle(0).replayed_plans == 3

    def test_start_hang_is_declared_dead(self):
        h = Harness(spawn_timeout=10.0).start()
        h.clock.advance(11.0)
        h.sup.tick()
        assert h.sup.handle(0).state is ShardState.DEAD
        assert any("no ready" in reason for _, _, reason in h.failures)


class TestDetection:
    def test_process_exit_detected_and_inflight_disposed(self):
        h = Harness().start()
        handle = h.make_ready(0)
        handle.track(7, "request-7")
        handle.track(8, "request-8")
        h.spawned[0][1].alive = False
        h.spawned[0][1].exitcode = -9
        h.sup.tick()
        assert handle.state is ShardState.DEAD
        (index, inflight, reason), = h.failures
        assert index == 0
        assert dict(inflight) == {7: "request-7", 8: "request-8"}
        assert "exitcode=-9" in reason
        assert handle.inflight_count() == 0  # atomically claimed
        assert h.sup.kills == 1

    def test_heartbeat_silence_is_death_even_if_alive(self):
        """A wedged-but-alive shard is indistinguishable from a dead
        one; the supervisor must not wait to find out."""
        h = Harness(heartbeat_timeout=2.0).start()
        h.make_ready(0)
        h.make_ready(1)
        h.clock.advance(1.5)
        h.beat(1)  # shard 1 keeps beating, shard 0 goes silent
        h.clock.advance(1.0)
        h.sup.tick()
        assert h.sup.handle(0).state is ShardState.DEAD
        assert h.sup.handle(1).state is ShardState.READY
        assert "silent" in h.failures[0][2]
        assert h.spawned[0][1].killed == 1  # wedged process is reaped

    def test_pipe_eof_is_death(self):
        h = Harness().start()
        handle = h.make_ready(0)
        handle.note_link_down()
        h.sup.tick()
        assert handle.state is ShardState.DEAD
        assert "pipe closed" in h.failures[0][2]

    def test_bye_during_drain_is_not_a_failure(self):
        h = Harness().start()
        handle = h.make_ready(0)
        handle.mark_draining()
        h.sup.dispatch_message(handle, shardwire.encode_bye(0))
        h.clock.advance(10.0)  # way past heartbeat timeout
        h.sup.tick()
        assert h.failures == []

    def test_any_frame_proves_liveness(self):
        """A shard streaming results but missing beats is alive."""
        h = Harness(heartbeat_timeout=2.0).start()
        handle = h.make_ready(0)
        h.clock.advance(1.5)
        h.sup.dispatch_message(
            handle,
            shardwire.encode_message(5, {"type": "result",
                                         "status": "failed",
                                         "algorithm": "x"}),
        )
        h.clock.advance(1.0)
        h.sup.tick()
        assert handle.state is ShardState.READY
        assert h.messages and h.messages[0][1] == 5


class TestRespawn:
    def kill_shard(self, h):
        h.spawned[-1][1].alive = False
        h.sup.tick()

    def test_respawn_after_backoff(self):
        h = Harness(shards=1, respawn_backoff=0.5,
                    heartbeat_timeout=1e9).start()
        h.make_ready(0)
        self.kill_shard(h)
        assert len(h.spawned) == 1
        h.clock.advance(0.4)
        h.sup.tick()  # backoff not elapsed
        assert len(h.spawned) == 1
        h.clock.advance(0.2)
        h.sup.tick()
        assert len(h.spawned) == 2
        assert h.sup.respawns_total == 1
        assert h.sup.handle(0).state is ShardState.STARTING
        # ...and the respawned incarnation can become ready again.
        h.make_ready(0)
        assert h.sup.healthy() == {0}

    def test_backoff_grows_exponentially_and_resets_on_success(self):
        h = Harness(shards=1, respawn_backoff=0.5, spawn_timeout=1e9,
                    heartbeat_timeout=1e9).start()
        h.make_ready(0)

        def crash_and_time_respawn():
            before = len(h.spawned)
            h.spawned[-1][1].alive = False
            h.sup.tick()  # declares dead, schedules respawn
            waited = 0.0
            while len(h.spawned) == before:
                h.clock.advance(0.25)
                waited += 0.25
                h.sup.tick()
            return waited

        first = crash_and_time_respawn()
        second = crash_and_time_respawn()  # still STARTING: streak grows
        assert second > first
        h.make_ready(0)  # success resets the streak
        third = crash_and_time_respawn()
        assert third <= first + 0.25

    def test_fault_specs_stripped_on_respawn(self):
        from repro import faultinject

        spec = faultinject.FaultSpec(site=faultinject.SHARD_KILL,
                                     kind="exception", at=(3,))
        h = Harness(shards=1)
        h.sup.handles[0].config = ShardConfig(index=0, fault_specs=(spec,))
        h.start()
        assert h.spawned[0][0].fault_specs == (spec,)
        h.make_ready(0)
        self.kill_shard(h)
        h.clock.advance(1.0)
        h.sup.tick()
        respawned_config = h.spawned[-1][0]
        assert respawned_config.fault_specs == ()
        assert respawned_config.incarnation == 1

    def test_no_respawn_when_disabled_or_stopping(self):
        h = Harness(respawn=False).start()
        h.make_ready(0)
        self.kill_shard(h)
        h.clock.advance(60.0)
        h.sup.tick()
        assert len([s for s in h.spawned if s[0].index == 0]) == 1

    def test_stop_kills_everything_and_blocks_respawn(self):
        h = Harness().start()
        h.make_ready(0)
        h.make_ready(1)
        h.sup.stop()
        assert all(s[1].killed for s in h.spawned)
        assert all(s[2].closed for s in h.spawned)
        h.clock.advance(60.0)
        h.sup.tick()
        assert len(h.spawned) == 2  # no respawns after stop


class TestWire:
    def test_corrupt_frame_routes_to_on_message_with_rid(self):
        h = Harness().start()
        handle = h.make_ready(0)
        blob = bytearray(shardwire.encode_message(
            321, {"type": "result", "status": "completed", "algorithm": "x"}
        ))
        blob[-1] ^= 0xFF
        h.sup.dispatch_message(handle, bytes(blob))
        (index, rid, body), = h.messages
        assert rid == 321
        assert body["_corrupt"]

    def test_send_failure_marks_link_down(self):
        h = Harness().start()
        handle = h.make_ready(0)
        h.spawned[0][2].closed = True
        assert handle.send(b"frame") is False
        assert not handle.is_ready()

    def test_health_rows(self):
        h = Harness().start()
        h.make_ready(0)
        health = h.sup.health()
        assert health["total_shards"] == 2
        assert health["healthy_shards"] == 1
        assert health["shards"]["0"]["state"] == "ready"
        assert health["shards"]["1"]["state"] == "starting"


class TestReader:
    def test_reader_alone_closes_its_pipe(self):
        """A dead shard's process is reaped, but its pipe is left to the
        reader thread, which closes it on the EOF the death causes: a
        close from the tick thread could land inside ``recv_bytes`` and
        kill the reader with a ``TypeError``."""
        h = Harness(shards=1, start_readers=True)
        child_ends = []

        def spawn(config):
            hub_end, child_end = multiprocessing.Pipe()
            child_ends.append(child_end)
            process = FakeProcess()
            h.spawned.append((config, process, hub_end))
            return process, hub_end

        h.sup._spawn_process = spawn
        h.start()
        _config, process, hub_end = h.spawned[0]
        reader = next(
            t for t in threading.enumerate() if t.name == "shard-0-reader"
        )
        h.make_ready(0)
        process.alive = False
        h.sup.tick()
        assert h.sup.handle(0).state is ShardState.DEAD
        assert not hub_end.closed
        child_ends[0].close()  # the process's end dies with it
        reader.join(5.0)
        assert not reader.is_alive()
        assert hub_end.closed
