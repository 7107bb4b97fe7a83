"""Flyweight bookkeeping costs O(extents), not O(bytes).

* The crash oracle's :class:`AckedRuns` agrees with the per-byte mask it
  replaces (a ``bytearray`` reference model) under random acks and
  truncations.
* A flyweight oracle that acks a long sequential stream stays one run and
  allocates almost nothing.
* A lite :class:`Buffer` holds no bytes until a byte write needs them, and
  every reader sees its content as zeros.
* The unstable-write tracker's stale-verifier test is O(1) when nothing is
  stale and returns the same files, in the same order, when something is.
"""

import tracemalloc
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit.tracker import UncommittedTracker
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.oracle import AckedRuns, Oracle
from repro.fs import IO_DELAYDATA, IO_SYNC
from repro.fs.buffer_cache import Buffer
from repro.payload import Extent
from repro.sim import Environment
from repro.tiering.engine import ShardMigrator

KB = 1024
MB = 1024 * KB
BLOCK = 8 * KB


# -- the run list against a per-byte reference model ---------------------------


def _reference_runs(mask: bytearray, want) -> list:
    """Maximal runs of positions whose flag satisfies ``want``."""
    runs, start = [], None
    for position, flag in enumerate(mask):
        if want(flag) and start is None:
            start = position
        elif not want(flag) and start is not None:
            runs.append((start, position))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def _reference_flag_runs(mask: bytearray) -> list:
    runs = []
    for flag in (1, 2):
        runs.extend(
            (start, end, flag) for start, end in _reference_runs(mask, flag.__eq__)
        )
    return sorted(runs)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("mark"),
            st.integers(0, 200),
            st.integers(0, 64),
            st.sampled_from([1, 2]),
        ),
        st.tuples(st.just("truncate"), st.integers(0, 260)),
    ),
    max_size=40,
)
windows = st.lists(st.tuples(st.integers(0, 280), st.integers(0, 280)), max_size=6)


@given(ops=operations, probes=windows)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_acked_runs_match_a_per_byte_mask(ops, probes):
    runs = AckedRuns()
    mask = bytearray()
    for op in ops:
        if op[0] == "mark":
            _kind, start, length, flag = op
            end = start + length
            runs.mark(start, end, flag)
            if len(mask) < end:
                mask.extend(bytes(end - len(mask)))
            mask[start:end] = bytes([flag]) * length
        else:
            del runs[op[1] :]
            del mask[op[1] :]
        assert len(runs) == len(mask)
        assert bool(runs) == bool(mask)
        assert runs.total() == sum(1 for flag in mask if flag)
        assert runs.acked_runs() == _reference_runs(mask, bool)
        # Canonical form: touching runs of one flag are always merged.
        assert runs._runs == _reference_flag_runs(mask)
    for low, high in probes:
        start, end = min(low, high), max(low, high)
        window = bytes(mask[start:end]).ljust(end - start, b"\x00")
        want = [
            (start + a, start + b)
            for a, b in _reference_runs(bytearray(window), (1).__eq__)
        ]
        assert runs.content_runs(start, end) == want


def test_truncate_then_reack_like_the_benchmark_oracle():
    # perfbench's BenchOracle truncates with ``del table[ino][size:]`` on
    # both the image and the run list.
    oracle = Oracle(env=Environment(), server=object())
    fhandle = (5, 0)
    oracle.record_ack(fhandle, 0, b"a" * BLOCK)
    oracle.record_ack(fhandle, BLOCK, Extent(2 * BLOCK, seed=1))
    for table in (oracle._images, oracle._acked):
        del table[5][12 * KB :]
    assert oracle._acked_runs(5) == [(0, 12 * KB)]
    oracle.record_ack(fhandle, 16 * KB, Extent(4 * KB, seed=2))
    runs = oracle._acked[5]
    assert oracle._acked_runs(5) == [(0, 12 * KB), (16 * KB, 20 * KB)]
    assert runs.content_runs(0, len(runs)) == [(0, BLOCK)]
    assert len(runs) == 20 * KB
    assert len(oracle._images[5]) == BLOCK  # flyweight acks add no bytes
    assert oracle.acked_byte_total() == 16 * KB


# -- the oracle's footprint -----------------------------------------------------


def test_flyweight_stream_costs_one_run_and_no_bytes():
    oracle = Oracle(env=Environment(), server=object())
    fhandle = (3, 0)
    total = 16 * MB
    tracemalloc.start()
    try:
        for offset in range(0, total, BLOCK):
            oracle.record_ack(fhandle, offset, Extent(BLOCK, seed=offset // BLOCK))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 * MB, f"oracle peak {peak} bytes for a flyweight stream"
    assert oracle.acked_byte_total() == total
    assert oracle._acked_runs(3) == [(0, total)]


# -- lite buffers ---------------------------------------------------------------


def _run(env, generator):
    def wrapper():
        return (yield from generator)

    proc = env.process(wrapper())
    env.run(until=proc)
    return proc.value


def _flyweight_file(nbytes: int):
    testbed = Testbed(TestbedConfig())
    env, ufs = testbed.env, testbed.server.ufs
    inode = _run(env, ufs.create(ufs.root, "lite"))
    _run(env, ufs.write(inode, 0, Extent(nbytes, seed=9), IO_DELAYDATA))
    return testbed, env, ufs, inode


def test_lite_buffer_allocates_on_first_byte_write():
    buffer = Buffer(0, BLOCK)
    assert buffer.data is None
    assert buffer.read(10, 20) == bytes(10)
    buffer.writable()[0:2] = b"hi"
    assert buffer.data is not None
    assert buffer.read(0, 4) == b"hi\x00\x00"


def test_flyweight_write_leaves_buffers_lite_and_reads_zeros():
    _testbed, env, ufs, inode = _flyweight_file(3 * BLOCK)
    buffers = [ufs.cache.lookup(inode.block_addr(fblock)) for fblock in range(3)]
    assert all(buffer.data is None for buffer in buffers)
    assert _run(env, ufs.read(inode, 100, 2 * BLOCK)) == bytes(2 * BLOCK)
    _run(env, ufs.write(inode, BLOCK, b"xy", IO_SYNC))
    assert [buffer.data is None for buffer in buffers] == [True, False, True]
    assert _run(env, ufs.read(inode, BLOCK - 1, 4)) == b"\x00xy\x00"


def test_lite_flush_faults_back_in_lite():
    _testbed, env, ufs, inode = _flyweight_file(2 * BLOCK)
    _run(env, ufs.fsync(inode))
    ufs.cache.drop_clean()
    assert _run(env, ufs.read(inode, 0, 2 * BLOCK)) == bytes(2 * BLOCK)
    assert ufs.cache.lookup(inode.block_addr(0)).data is None


def test_tiering_copy_of_lite_blocks_reads_zeros():
    testbed, _env, _ufs, inode = _flyweight_file(2 * BLOCK)
    migrator = ShardMigrator(testbed.server)
    assert migrator._peek(inode, BLOCK - 10, BLOCK + 10) == bytes(20)


# -- the stale-verifier test ----------------------------------------------------


def _tracker():
    client = SimpleNamespace(
        env=Environment(),
        rpc=SimpleNamespace(endpoint=SimpleNamespace(host="c0")),
        on_commit_acked=None,
    )
    return UncommittedTracker(client)


def test_stale_files_keep_their_order_and_clear_on_release():
    tracker = _tracker()
    tracker.record("f1", 0, b"a", 1)
    tracker.record("f2", 0, b"b", 1)
    tracker.record("f3", 0, b"c", 2)
    tracker.record("f1", 1, b"d", 2)
    assert tracker.stale_files(1) == ["f1", "f3"]
    assert tracker.stale_files(2) == ["f1", "f2"]
    assert tracker.stale_files(3) == ["f1", "f2", "f3"]
    tracker._discharge("f3", list(tracker._ranges["f3"]))
    tracker._discharge("f1", [tracker._ranges["f1"][1]])
    assert tracker.stale_files(1) == []
    assert tracker.stale_files(2) == ["f1", "f2"]
