"""A small extent-based filesystem carrying real file contents.

Files serve two roles:

* **Content** -- every file stores actual bytes, block by block, so
  snapshot memory files, REAP trace files and working-set files can be
  verified bit-for-bit by tests (content operations are free of simulated
  time; timing flows through the page cache and devices).
* **Layout** -- every file maps its byte range onto device byte addresses
  (LBAs) through extents.  Snapshot guest-memory files are laid out
  contiguously, exactly like a file written once by the hypervisor; the
  *guest-physical* scatter of a function's working set therefore turns
  into scattered disk reads, which is the §4.2 pathology REAP removes.

A file may live on a different device than the filesystem default: the
orchestrator places snapshot files behind the thin-pool device and REAP
working-set files on the raw SSD.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.sim.units import PAGE_SIZE
from repro.storage.device import BlockDevice

ZERO_BLOCK = bytes(PAGE_SIZE)


@dataclass(frozen=True)
class Extent:
    """A contiguous mapping: file bytes [offset, offset+length) -> LBA."""

    file_offset: int
    lba: int
    length: int

    @property
    def file_end(self) -> int:
        return self.file_offset + self.length


class SimFile:
    """A file with sparse block contents and an extent map."""

    #: Source of :attr:`file_id` values, process-wide.  Creation order is
    #: deterministic (the model allocates files in simulation order), so
    #: the ids are reproducible run to run -- unlike ``id(file)``, which
    #: is a reused CPython address and unstable across runs/processes.
    _next_file_id = itertools.count()

    def __init__(self, name: str, size: int, extents: list[Extent],
                 device: BlockDevice) -> None:
        #: Stable per-file identity for cache/readahead keys (REPRO-D002).
        self.file_id = next(SimFile._next_file_id)
        self.name = name
        self.size = size
        self.extents = extents
        self.device = device
        self._blocks: dict[int, bytes] = {}
        #: Blocks that have ever been written (even without stored bytes,
        #: see :meth:`mark_written_blocks`).  Unwritten blocks are *holes*:
        #: sparse-file reads and faults on them need no device I/O.
        self._written_blocks: set[int] = set()
        #: Monotonic version, bumped on every write; the page cache uses it
        #: to invalidate stale cached pages after in-place rewrites.
        self.version = 0

    # -- content ---------------------------------------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset`` (content only; no simulated time)."""
        if offset < 0 or offset + len(data) > self.size:
            raise ValueError(
                f"write [{offset}, {offset + len(data)}) outside file "
                f"{self.name!r} of size {self.size}")
        self.version += 1
        position = offset
        remaining = memoryview(data)
        while remaining:
            block_index, block_offset = divmod(position, PAGE_SIZE)
            take = min(PAGE_SIZE - block_offset, len(remaining))
            if take == PAGE_SIZE:
                self._blocks[block_index] = bytes(remaining[:take])
            else:
                current = bytearray(self._blocks.get(block_index, ZERO_BLOCK))
                current[block_offset:block_offset + take] = remaining[:take]
                self._blocks[block_index] = bytes(current)
            self._written_blocks.add(block_index)
            position += take
            remaining = remaining[take:]

    def mark_written_blocks(self, blocks: Iterable[int]) -> None:
        """Record blocks as written without storing bytes.

        Used by metadata-only snapshots: the latency model needs to know
        which guest pages exist in the memory file (holes fault without
        disk I/O) even when page contents are not being tracked.
        """
        self._written_blocks.update(blocks)

    def has_block(self, block_index: int) -> bool:
        """Whether a block was ever written (False = sparse hole)."""
        return block_index in self._written_blocks

    def read(self, offset: int, nbytes: int) -> bytes:
        """Return ``nbytes`` of content at ``offset`` (zeros if unwritten)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) outside file "
                f"{self.name!r} of size {self.size}")
        if not self._blocks:
            # No stored bytes (metadata-only files and their views): the
            # whole range is zeros, built in one allocation.
            return bytes(nbytes)
        parts: list[bytes] = []
        position = offset
        remaining = nbytes
        while remaining > 0:
            block_index, block_offset = divmod(position, PAGE_SIZE)
            take = min(PAGE_SIZE - block_offset, remaining)
            block = self._blocks.get(block_index, ZERO_BLOCK)
            parts.append(block[block_offset:block_offset + take])
            position += take
            remaining -= take
        return b"".join(parts)

    def read_block(self, block_index: int) -> bytes:
        """Return one whole block by index."""
        return self.read(block_index * PAGE_SIZE, PAGE_SIZE)

    def write_block(self, block_index: int, data: bytes) -> None:
        """Write one whole block by index."""
        if len(data) != PAGE_SIZE:
            raise ValueError(f"block write must be {PAGE_SIZE} bytes")
        self.write(block_index * PAGE_SIZE, data)

    @property
    def block_count(self) -> int:
        """Number of blocks spanned by the file size."""
        return (self.size + PAGE_SIZE - 1) // PAGE_SIZE

    @property
    def written_bytes(self) -> int:
        """Bytes of non-hole blocks (what a sparse file actually occupies).

        Snapshot memory files are sized to the whole guest region but
        only carry the resident pages; capacity accounting (the snapstore
        tiers) charges these bytes, as ``du`` would, not :attr:`size`.
        """
        return len(self._written_blocks) * PAGE_SIZE

    def clone_view(self, name: str) -> "SimFile":
        """A read-view of this file with its own page-cache identity.

        Models a devmapper copy-on-write device over the same snapshot
        content: each restored instance reads identical bytes from the
        same disk locations, but the host page cache does not share
        pages across instances (the paper's no-memory-sharing rule, §6.1).
        """
        view = SimFile(name, self.size, self.extents, self.device)
        view._blocks = self._blocks
        view._written_blocks = self._written_blocks
        view.version = self.version
        return view

    # -- layout ----------------------------------------------------------

    def to_lba(self, offset: int) -> int:
        """Translate a file byte offset to a device byte address."""
        for extent in self.extents:
            if extent.file_offset <= offset < extent.file_end:
                return extent.lba + (offset - extent.file_offset)
        raise ValueError(f"offset {offset} unmapped in file {self.name!r}")

    def device_ranges(self, offset: int,
                      nbytes: int) -> list[tuple[int, int]]:
        """``(lba, length)`` pieces covering [offset, offset+nbytes).

        A range crossing an extent boundary splits into multiple pieces --
        each piece is one contiguous device access.  Most files are a
        single contiguous extent (a freshly written snapshot), which
        resolves without the general extent walk.
        """
        end = offset + nbytes
        if offset < 0 or end > self.size:
            raise ValueError(
                f"range [{offset}, {end}) outside file {self.name!r}")
        extents = self.extents
        if len(extents) == 1 and nbytes > 0:
            extent = extents[0]
            start = extent.file_offset
            if start <= offset and end <= start + extent.length:
                return [(extent.lba + (offset - start), nbytes)]
        ranges: list[tuple[int, int]] = []
        position = offset
        while position < end:
            for extent in extents:
                if extent.file_offset <= position < extent.file_end:
                    take = min(extent.file_end, end) - position
                    ranges.append(
                        (extent.lba + (position - extent.file_offset), take))
                    position += take
                    break
            else:
                raise ValueError(
                    f"offset {position} unmapped in file {self.name!r}")
        return ranges

    def iter_device_ranges(self, offset: int,
                           nbytes: int) -> Iterator[tuple[int, int]]:
        """Iterator form of :meth:`device_ranges` (kept for callers that
        expect lazy iteration)."""
        return iter(self.device_ranges(offset, nbytes))


@dataclass
class _Allocator:
    """Bump allocator of device byte addresses."""

    next_lba: int = 0

    def take(self, nbytes: int) -> int:
        lba = self.next_lba
        self.next_lba += nbytes
        return lba


class Filesystem:
    """Namespace plus extent allocator over one or more devices."""

    def __init__(self, default_device: BlockDevice) -> None:
        self.default_device = default_device
        self._files: dict[str, SimFile] = {}
        #: One bump allocator per device, keyed by the device object
        #: itself (not ``id(device)``: the object key keeps the device
        #: alive and survives pickling, REPRO-D002).
        self._allocators: dict[BlockDevice, _Allocator] = {}

    def create(self, name: str, size: int,
               device: BlockDevice | None = None,
               fragment_bytes: int | None = None) -> SimFile:
        """Create a file of ``size`` bytes.

        By default the file is one contiguous extent (a freshly written
        snapshot).  ``fragment_bytes`` scatters it into extents of that
        size with gaps between them -- used by the fragmentation ablation.
        """
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        if size <= 0:
            raise ValueError(f"file size must be positive, got {size}")
        target = device or self.default_device
        allocator = self._allocators.setdefault(target, _Allocator())
        extents: list[Extent] = []
        if fragment_bytes is None:
            extents.append(Extent(0, allocator.take(size), size))
        else:
            offset = 0
            while offset < size:
                length = min(fragment_bytes, size - offset)
                lba = allocator.take(length * 2)  # leave a gap after each
                extents.append(Extent(offset, lba, length))
                offset += length
        sim_file = SimFile(name, size, extents, target)
        self._files[name] = sim_file
        return sim_file

    def open(self, name: str) -> SimFile:
        """Look up an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def exists(self, name: str) -> bool:
        """Whether ``name`` exists."""
        return name in self._files

    def remove(self, name: str) -> None:
        """Delete a file (content and mapping; extents are not recycled)."""
        self._files.pop(name, None)

    def list_files(self) -> Iterable[str]:
        """All file names, in creation order."""
        return list(self._files)
