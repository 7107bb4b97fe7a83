"""repro.integrity: checksums, media faults, scrub/repair, the contract.

The end-to-end promise under test: no acked READ ever returns bytes
differing from the acked write image.  Corruption the media fakes past
the device layer is *detected* (checksum mismatch, latent-overlap check,
quarantine) and then either *healed* (K>=1, from a replica peer) or
*surfaced* (K=0, EIO + quarantine record) — never served silently.
"""

import random

import pytest

from repro.experiments import ExperimentSpec, Testbed, TestbedConfig
from repro.faults import (
    AtTime,
    BitRot,
    FaultController,
    FaultPlan,
    LatentSectorError,
    NetworkPartition,
    OnSpan,
    Oracle,
    ServerCrash,
    SlowDisk,
)
from repro.fs.buffer_cache import DurableImage
from repro.fs.fsck import fsck
from repro.fs.ufs import FsError
from repro.integrity import CorruptBlockError, block_digest
from repro.integrity.experiment import ScrubConfig, run_scrub, run_scrub_arm
from repro.net import FDDI
from repro.workload import write_file

KB = 1024


def build(write_path="gather", presto=False, tracing=False):
    config = TestbedConfig(
        netspec=FDDI,
        write_path=write_path,
        presto_bytes=(1 << 20) if presto else None,
        verify_stable=True,
        tracing=tracing,
    )
    testbed = Testbed(config)
    client = testbed.add_client()
    oracle = Oracle(testbed)
    oracle.attach(client)
    return testbed, client, oracle


def run_copy(testbed, client, file_kb=64):
    env = testbed.env
    proc = env.process(write_file(env, client, "f", file_kb * KB))
    env.run(until=proc)
    env.run()


def acked_addrs(testbed):
    """Durable block addresses referenced by committed inodes."""
    durable = testbed.server.ufs.cache.durable
    addrs = []
    for ino, snapshot in durable.inodes.items():
        for fblock, addr in enumerate(snapshot.direct):
            if addr is not None and fblock * testbed.server.ufs.block_size < snapshot.size:
                addrs.append(addr)
        for addr in durable.indirects.get(ino, {}).values():
            addrs.append(addr)
    return sorted(addrs)


# -- the digest and the durable image ---------------------------------------


def test_block_digest_deterministic_and_sensitive():
    data = bytes(range(256)) * 32
    assert block_digest(data) == block_digest(bytes(data))
    flipped = data[:100] + bytes((data[100] ^ 0x01,)) + data[101:]
    assert block_digest(flipped) != block_digest(data)


def test_durable_image_verify_detects_rot():
    image = DurableImage()
    payload = b"x" * 8192
    image.commit_block(0, payload)
    image.verify_block(0)  # pristine: no error
    assert image.rot_block(0, random.Random(7))
    with pytest.raises(CorruptBlockError) as excinfo:
        image.verify_block(0)
    assert excinfo.value.reason == "checksum"
    assert excinfo.value.addr == 0
    # Recommitting good bytes heals the mismatch.
    image.commit_block(0, payload)
    image.verify_block(0)


def test_durable_image_lost_content_is_detectable():
    image = DurableImage()
    image.commit_block(8192, b"y" * 8192)
    image.lose_block(8192)
    with pytest.raises(CorruptBlockError) as excinfo:
        image.verify_block(8192)
    assert excinfo.value.reason == "missing"
    # The digest survived the loss — that is what makes it detectable.
    assert 8192 in image.checksums


def test_durable_image_lose_range_hits_overlapping_blocks_only():
    image = DurableImage()
    for addr in (0, 8192, 16384, 24576):
        image.commit_block(addr, bytes([addr % 251]) * 8192)
    afflicted = image.lose_range(8192, 20000, 8192)
    assert afflicted == [8192, 16384]
    assert 0 in image.blocks and 24576 in image.blocks
    assert all(addr in image.checksums for addr in afflicted)


def test_quarantine_surfaces_and_commit_clears_it():
    image = DurableImage()
    image.commit_block(0, b"z" * 8192)
    image.quarantine(0, "latent")
    with pytest.raises(CorruptBlockError) as excinfo:
        image.verify_block(0)
    assert excinfo.value.reason == "quarantined"
    image.commit_block(0, b"z" * 8192)  # a repair rewrites the block
    image.verify_block(0)
    assert 0 not in image.quarantined


def test_never_committed_block_verifies_trivially():
    DurableImage().verify_block(12345)  # a fresh hole carries no digest


def test_torn_commit_keeps_intended_digest_over_mangled_bytes():
    image = DurableImage()
    intended = b"a" * 8192
    mangled = intended[:-1] + b"\x00"
    image.commit_block_torn(0, intended, mangled)
    assert image.blocks[0] == mangled
    assert image.checksums[0] == block_digest(intended)
    with pytest.raises(CorruptBlockError):
        image.verify_block(0)


# -- the device-level fault hooks -------------------------------------------


def test_disk_latent_inject_overlap_and_heal():
    testbed, client, _oracle = build()
    disk = testbed.disks[0]
    disk.inject_latent(8192, 8192)
    assert disk.latent_overlap(8192, 8192)
    assert disk.latent_overlap(12288, 100)  # partial overlap counts
    assert not disk.latent_overlap(0, 8192)
    disk.heal_latent(8192, 8192)
    assert not disk.latent_overlap(8192, 8192)
    with pytest.raises(ValueError):
        disk.inject_latent(0, 0)


def test_disk_write_over_latent_sector_heals_it():
    testbed, client, _oracle = build()
    disk = testbed.disks[0]
    disk.inject_latent(0, 8192)
    done = disk.submit(0, 8192, is_write=True)
    testbed.env.run(until=done)
    assert not disk.latent_overlap(0, 8192)


def test_slowdown_tokens_compose_and_revert_in_any_order():
    testbed, _client, _oracle = build()
    disk = testbed.disks[0]
    assert disk.slowdown == 1.0
    first = disk.push_slowdown(2.0)
    second = disk.push_slowdown(3.0)
    assert disk.slowdown == pytest.approx(6.0)
    # Revert in *push* order — the second fault's factor must survive the
    # first fault's revert untouched.
    disk.pop_slowdown(first)
    assert disk.slowdown == pytest.approx(3.0)
    disk.pop_slowdown(second)
    assert disk.slowdown == pytest.approx(1.0)
    # Tokens compose with the base factor, and unknown pops are no-ops.
    disk.set_slowdown(2.0)
    token = disk.push_slowdown(4.0)
    assert disk.slowdown == pytest.approx(8.0)
    disk.pop_slowdown(999)
    assert disk.slowdown == pytest.approx(8.0)
    disk.pop_slowdown(token)
    disk.pop_slowdown(token)  # double-pop is a no-op too
    assert disk.slowdown == pytest.approx(2.0)


def test_overlapping_slow_disk_windows_revert_cleanly():
    """Satellite check: two overlapping SlowDisk faults each revert only
    their own contribution; after both windows close the spindle is back
    to exactly 1.0 (the old set_slowdown(1/factor) scheme divided out a
    *stale* product here)."""
    testbed, client, _oracle = build()
    plan = FaultPlan(
        name="overlap-slow",
        events=(
            SlowDisk(trigger=AtTime(0.01), factor=4.0, duration=0.1),
            SlowDisk(trigger=AtTime(0.05), factor=2.0, duration=0.2),
        ),
    )
    controller = FaultController(testbed, plan)
    controller.start()
    env = testbed.env
    samples = {}

    def probe(at):
        yield env.timeout(at)
        samples[at] = testbed.disks[0].slowdown

    for at in (0.06, 0.15, 0.30):
        env.process(probe(at), name=f"probe@{at}")
    run_copy(testbed, client, file_kb=64)
    assert samples[0.06] == pytest.approx(8.0)  # both windows open: 4 * 2
    assert samples[0.15] == pytest.approx(2.0)  # first reverted, second holds
    assert samples[0.30] == pytest.approx(1.0)  # both reverted: fully healthy
    assert len(controller.log) == 2


# -- NVRAM battery degrade ---------------------------------------------------


def test_presto_degrade_unarmed_loses_nothing():
    testbed, client, _oracle = build(presto=True)
    run_copy(testbed, client, file_kb=32)
    assert testbed.storage.take_degraded() == []


def test_presto_degrade_fraction_validated():
    testbed, _client, _oracle = build(presto=True)
    with pytest.raises(ValueError):
        testbed.storage.arm_degrade(1.5)
    with pytest.raises(ValueError):
        testbed.storage.arm_degrade(-0.1)


def test_presto_degrade_consumed_once_and_drops_dirty_extents():
    testbed, client, _oracle = build(presto=True)
    env = testbed.env
    proc = env.process(write_file(env, client, "f", 64 * KB))
    env.run(until=proc)
    storage = testbed.storage
    if not storage.dirty_extents:
        pytest.skip("workload drained NVRAM before the fault could bite")
    before = list(storage.dirty_extents)
    storage.arm_degrade(1.0, seed=3)
    lost = storage.take_degraded()
    assert lost == before  # fraction 1.0: every dirty extent lost
    assert storage.dirty_extents == []
    assert storage.take_degraded() == []  # armed fault consumed by one crash
    env.run()


# -- FaultPlan validation (satellite) ---------------------------------------


def test_fault_plan_rejects_negative_trigger_time():
    with pytest.raises(ValueError, match="negative trigger time"):
        FaultPlan("bad", events=(ServerCrash(trigger=AtTime(-0.1)),))


def test_fault_plan_rejects_negative_span_delay():
    with pytest.raises(ValueError, match="negative trigger delay"):
        FaultPlan(
            "bad",
            events=(ServerCrash(trigger=OnSpan("disk.io", delay=-1.0)),),
        )


def test_fault_plan_rejects_negative_duration():
    with pytest.raises(ValueError, match="negative duration"):
        FaultPlan(
            "bad",
            events=(NetworkPartition(trigger=AtTime(0.1), duration=-0.2),),
        )


def test_fault_plan_rejects_overlapping_partitions_same_hosts():
    with pytest.raises(ValueError, match="overlap in time"):
        FaultPlan(
            "bad",
            events=(
                NetworkPartition(trigger=AtTime(0.1), duration=0.3),
                NetworkPartition(trigger=AtTime(0.2), duration=0.3),
            ),
        )
    with pytest.raises(ValueError, match="overlap in time"):
        FaultPlan(
            "bad",
            events=(
                NetworkPartition(trigger=AtTime(0.1), hosts=("a", "b"), duration=0.3),
                NetworkPartition(trigger=AtTime(0.2), hosts=("b",), duration=0.3),
            ),
        )


def test_fault_plan_allows_disjoint_partitions():
    FaultPlan(
        "ok",
        events=(
            NetworkPartition(trigger=AtTime(0.1), duration=0.1),
            NetworkPartition(trigger=AtTime(0.3), duration=0.1),
        ),
    )
    FaultPlan(
        "ok-hosts",
        events=(
            NetworkPartition(trigger=AtTime(0.1), hosts=("a",), duration=0.3),
            NetworkPartition(trigger=AtTime(0.2), hosts=("b",), duration=0.3),
        ),
    )


# -- read paths never serve rotted bytes ------------------------------------


def test_bit_rot_surfaces_as_eio_not_garbage():
    testbed, client, oracle = build()
    run_copy(testbed, client, file_kb=64)
    addrs = acked_addrs(testbed)
    assert addrs
    durable = testbed.server.ufs.cache.durable
    assert durable.rot_block(addrs[0], random.Random(11))
    testbed.server.ufs.cache.drop_clean()  # force the read to re-fault

    from repro.nfs.protocol import NfsError

    env = testbed.env

    def read_all():
        open_file = yield from client.open("f")
        try:
            yield from client.read(open_file, 0, 64 * KB)
        except NfsError as exc:
            return exc
        return None

    proc = env.process(read_all(), name="readback")
    env.run(until=proc)
    env.run()
    assert isinstance(proc.value, NfsError)
    assert proc.value.code == "EIO"
    assert durable.quarantined.get(addrs[0]) == "checksum"
    assert oracle.read_violations == []  # surfaced, never served silently


def test_latent_sector_read_quarantines_and_fsck_warns():
    testbed, client, _oracle = build()
    run_copy(testbed, client, file_kb=64)
    addrs = acked_addrs(testbed)
    testbed.storage.inject_latent(addrs[0], testbed.server.ufs.block_size)
    testbed.server.ufs.cache.drop_clean()

    from repro.nfs.protocol import NfsError

    env = testbed.env

    def read_all():
        open_file = yield from client.open("f")
        try:
            yield from client.read(open_file, 0, 64 * KB)
        except NfsError as exc:
            return exc
        return None

    proc = env.process(read_all(), name="readback")
    env.run(until=proc)
    env.run()
    assert isinstance(proc.value, NfsError) and proc.value.code == "EIO"
    durable = testbed.server.ufs.cache.durable
    assert durable.quarantined.get(addrs[0]) == "latent"
    report = fsck(testbed.server.ufs, strict=False)
    assert not report.errors
    assert any("quarantined" in warning for warning in report.warnings)


def test_fsck_flags_silent_checksum_mismatch_as_error():
    testbed, client, _oracle = build()
    run_copy(testbed, client, file_kb=64)
    addrs = acked_addrs(testbed)
    durable = testbed.server.ufs.cache.durable
    assert durable.rot_block(addrs[0], random.Random(5))
    report = fsck(testbed.server.ufs, strict=False)
    assert any("checksum mismatch" in error for error in report.errors)


def test_oracle_violation_messages_carry_fault_context():
    """Satellite check: violation messages name the shard, role, and the
    most recently applied fault."""
    testbed, client, oracle = build()
    oracle.set_context(shard="s0", role="primary", plan_seed=42)
    plan = FaultPlan(
        "rot-then-crash",
        events=(
            BitRot(trigger=AtTime(0.25), count=64, seed=1),
            ServerCrash(trigger=AtTime(0.30)),
        ),
    )
    FaultController(testbed, plan, oracle=oracle).start()
    run_copy(testbed, client, file_kb=128)
    assert oracle.violations  # rot on acked blocks must be caught
    for message in oracle.violations:
        assert "shard=s0" in message
        assert "role=primary" in message
        assert "plan_seed=42" in message
        assert "last_fault=" in message


# -- the scrub experiment: detection, repair, surfacing ----------------------


@pytest.fixture(scope="module")
def scrub_arms():
    """One small sweep shared by the contract tests: K=0 and K=1 arms
    under the full four-fault storm."""
    config = ScrubConfig(
        seed=3,
        clients=2,
        files_per_client=2,
        file_kb=32,
        corruption_rates=(0.25,),
        scrub_bandwidths=(4 << 20,),
        replica_counts=(0, 1),
    )
    result = run_scrub(config)
    return {arm.replicas: arm for arm in result.arms}, result


def test_scrub_standalone_surfaces_every_defect(scrub_arms):
    arms, _result = scrub_arms
    arm = arms[0]
    assert arm.injected_defects > 0
    assert arm.detections > 0
    # K=0: nothing to heal from — every detected defect is quarantined
    # and read-backs of afflicted blocks fail loudly.
    assert arm.repairs == 0
    assert arm.quarantines == arm.detections
    assert arm.eio_reads > 0
    assert arm.silent_read_corruptions == 0
    assert arm.converged
    assert arm.clean


def test_scrub_replicated_heals_every_defect(scrub_arms):
    arms, _result = scrub_arms
    arm = arms[1]
    assert arm.injected_defects > 0
    assert arm.detections > 0
    # K=1: every defect healed from the backup; no quarantine, no EIO,
    # nothing silent, and the final audit is spotless.
    assert arm.repairs >= arm.detections
    assert arm.quarantines == 0
    assert arm.eio_reads == 0
    assert arm.silent_read_corruptions == 0
    assert arm.durability_violations == 0
    assert arm.converged
    assert arm.repair_bytes > 0
    assert arm.mean_time_to_repair_ms is not None
    assert arm.clean


def test_scrub_contract_holds_across_sweep(scrub_arms):
    _arms, result = scrub_arms
    assert result.clean
    payload = result.to_dict()
    assert payload["schema"] == "repro.scrub/1"
    assert payload["clean"] is True


def test_scrub_waits_for_a_storm_that_outlasts_the_workload():
    # This workload ends before the storm starts; the scrub must not be
    # asked to converge until the storm's faults have landed, or it
    # misses them and the final fsck finds silent corruption.
    config = ScrubConfig(clients=2, files_per_client=1, file_kb=16)
    arm = run_scrub_arm(config, rate=0.25, bandwidth=4194304.0, replicas=1)
    assert arm.elapsed < 0.30  # finished writing before the first fault
    assert arm.clean, arm.violations
    assert arm.converged
    assert arm.detections >= 1
    assert arm.repairs >= 1


def test_scrub_json_byte_identical_across_reruns():
    config = ScrubConfig(
        seed=9,
        clients=2,
        files_per_client=1,
        file_kb=32,
        corruption_rates=(0.3,),
        scrub_bandwidths=(4 << 20,),
        replica_counts=(1,),
    )
    first = run_scrub(config).to_json()
    second = run_scrub(config).to_json()
    assert first == second


def test_scrub_config_validation():
    with pytest.raises(ValueError):
        ScrubConfig(corruption_rates=(1.5,))
    with pytest.raises(ValueError):
        ScrubConfig(scrub_bandwidths=(0,))
    with pytest.raises(ValueError):
        ScrubConfig(replica_counts=(-1,))


def test_scrub_experiment_kind_dispatches():
    spec = ExperimentSpec(kind="scrub")
    assert spec.kind == "scrub"  # registered; the sweep itself is tested above


def test_scrub_detection_latency_reported(scrub_arms):
    arms, _result = scrub_arms
    for arm in arms.values():
        if arm.detections:
            assert arm.mean_detection_latency_ms is not None
            assert arm.mean_detection_latency_ms >= 0.0
