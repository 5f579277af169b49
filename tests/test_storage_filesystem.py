"""Unit and property tests for the filesystem and file content layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.units import KIB, MIB, PAGE_SIZE
from repro.storage import Filesystem, SsdDevice


def make_fs():
    env = Environment()
    return env, Filesystem(SsdDevice(env))


def test_create_and_open_roundtrip():
    _env, fs = make_fs()
    created = fs.create("a.bin", 1 * MIB)
    assert fs.open("a.bin") is created
    assert fs.exists("a.bin")


def test_open_missing_raises():
    _env, fs = make_fs()
    with pytest.raises(FileNotFoundError):
        fs.open("missing")


def test_duplicate_create_rejected():
    _env, fs = make_fs()
    fs.create("a", 4096)
    with pytest.raises(ValueError):
        fs.create("a", 4096)


def test_invalid_size_rejected():
    _env, fs = make_fs()
    with pytest.raises(ValueError):
        fs.create("bad", 0)


def test_unwritten_content_reads_as_zeros():
    _env, fs = make_fs()
    file = fs.create("z", 2 * PAGE_SIZE)
    assert file.read(0, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)


def test_write_read_roundtrip_within_block():
    _env, fs = make_fs()
    file = fs.create("f", 4 * PAGE_SIZE)
    file.write(100, b"hello world")
    assert file.read(100, 11) == b"hello world"
    assert file.read(99, 1) == b"\x00"


def test_write_read_roundtrip_across_blocks():
    _env, fs = make_fs()
    file = fs.create("f", 4 * PAGE_SIZE)
    payload = bytes(range(256)) * 40  # 10240 bytes, crosses two boundaries
    file.write(PAGE_SIZE - 123, payload)
    assert file.read(PAGE_SIZE - 123, len(payload)) == payload


def test_out_of_bounds_rejected():
    _env, fs = make_fs()
    file = fs.create("f", PAGE_SIZE)
    with pytest.raises(ValueError):
        file.write(PAGE_SIZE - 1, b"xy")
    with pytest.raises(ValueError):
        file.read(0, PAGE_SIZE + 1)
    with pytest.raises(ValueError):
        file.write(-1, b"x")


def test_block_helpers():
    _env, fs = make_fs()
    file = fs.create("f", 3 * PAGE_SIZE)
    block = bytes([7]) * PAGE_SIZE
    file.write_block(2, block)
    assert file.read_block(2) == block
    assert file.block_count == 3
    with pytest.raises(ValueError):
        file.write_block(0, b"short")


def test_contiguous_layout_maps_linearly():
    _env, fs = make_fs()
    first = fs.create("first", 1 * MIB)
    second = fs.create("second", 1 * MIB)
    assert first.to_lba(0) == 0
    assert first.to_lba(12345) == 12345
    # Bump allocation: second file starts after the first.
    assert second.to_lba(0) == 1 * MIB


def test_device_ranges_single_extent():
    _env, fs = make_fs()
    file = fs.create("f", 1 * MIB)
    ranges = list(file.iter_device_ranges(4096, 8192))
    assert ranges == [(file.to_lba(4096), 8192)]


def test_fragmented_file_splits_ranges():
    _env, fs = make_fs()
    file = fs.create("frag", 256 * KIB, fragment_bytes=64 * KIB)
    assert len(file.extents) == 4
    ranges = list(file.iter_device_ranges(0, 256 * KIB))
    assert len(ranges) == 4
    assert sum(length for _lba, length in ranges) == 256 * KIB
    # Extents are non-adjacent on the device (gaps between fragments).
    ends = [lba + length for lba, length in ranges[:-1]]
    starts = [lba for lba, _length in ranges[1:]]
    assert all(start > end for end, start in zip(ends, starts))


def test_fragmented_content_still_roundtrips():
    _env, fs = make_fs()
    file = fs.create("frag", 256 * KIB, fragment_bytes=64 * KIB)
    payload = b"\xab" * (100 * KIB)
    file.write(10 * KIB, payload)
    assert file.read(10 * KIB, len(payload)) == payload


def test_remove_file():
    _env, fs = make_fs()
    fs.create("gone", 4096)
    fs.remove("gone")
    assert not fs.exists("gone")
    fs.remove("gone")  # idempotent


def test_version_bumps_on_write():
    _env, fs = make_fs()
    file = fs.create("v", 4096)
    before = file.version
    file.write(0, b"x")
    assert file.version == before + 1


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=6 * PAGE_SIZE - 1),
              st.binary(min_size=1, max_size=2 * PAGE_SIZE)),
    min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_content_matches_reference_bytearray(writes):
    """Property: sparse block storage behaves like one flat bytearray."""
    _env, fs = make_fs()
    size = 8 * PAGE_SIZE
    file = fs.create("ref", size)
    reference = bytearray(size)
    for offset, data in writes:
        data = data[:size - offset]
        if not data:
            continue
        file.write(offset, data)
        reference[offset:offset + len(data)] = data
    assert file.read(0, size) == bytes(reference)


_READ_SIZE = 6 * PAGE_SIZE + 123  # ends inside a partial last block


def _reference_read(file, offset, nbytes):
    """``SimFile.read`` spelled out as a per-block join of stored bytes."""
    first = offset // PAGE_SIZE
    last = (offset + nbytes + PAGE_SIZE - 1) // PAGE_SIZE
    flat = b"".join(file._blocks.get(index, bytes(PAGE_SIZE))
                    for index in range(first, last))
    start = offset - first * PAGE_SIZE
    return flat[start:start + nbytes]


def _file_of_kind(fs, kind, writes):
    file = fs.create(kind, _READ_SIZE)
    if kind == "holes":
        # Metadata-only: blocks exist for the latency model, no bytes.
        file.mark_written_blocks(range(0, file.block_count, 2))
    elif kind == "full":
        for index in range(file.block_count):
            length = min(PAGE_SIZE, _READ_SIZE - index * PAGE_SIZE)
            file.write(index * PAGE_SIZE, bytes([index + 1]) * length)
    else:
        # Partial: one write straddling the block 1/2 edge, then the
        # drawn writes (which may straddle further edges).
        file.write(2 * PAGE_SIZE - 10, b"\x5a" * 20)
        for offset, data in writes:
            data = data[:_READ_SIZE - offset]
            if data:
                file.write(offset, data)
    if kind == "view":
        view = file.clone_view("view-of-partial")
        file.write(5 * PAGE_SIZE - 1, b"\xc3\x3c")  # shared after cloning
        return view
    return file


@given(kind=st.sampled_from(["holes", "partial", "full", "view"]),
       writes=st.lists(
           st.tuples(st.integers(min_value=0, max_value=_READ_SIZE - 1),
                     st.binary(min_size=1, max_size=2 * PAGE_SIZE)),
           max_size=6),
       data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_read_matches_per_block_reference(kind, writes, data):
    """Property: every in-bounds read equals the per-block join, whether
    the file stores no bytes, some, all, or is a view; bad ranges raise."""
    _env, fs = make_fs()
    file = _file_of_kind(fs, kind, writes)
    for _ in range(4):
        offset = data.draw(st.integers(min_value=0, max_value=_READ_SIZE))
        nbytes = data.draw(
            st.integers(min_value=0, max_value=_READ_SIZE - offset))
        result = file.read(offset, nbytes)
        assert len(result) == nbytes
        assert result == _reference_read(file, offset, nbytes)
    offset = data.draw(st.integers(min_value=0, max_value=_READ_SIZE))
    with pytest.raises(ValueError):
        file.read(offset, data.draw(st.integers(min_value=-PAGE_SIZE,
                                                max_value=-1)))
    with pytest.raises(ValueError):
        file.read(offset, _READ_SIZE - offset + data.draw(
            st.integers(min_value=1, max_value=PAGE_SIZE)))
    with pytest.raises(ValueError):
        file.read(-data.draw(st.integers(min_value=1, max_value=PAGE_SIZE)),
                  1)
