"""Physical memory: a pool of 4 KiB frames with byte-level contents.

Frames are allocated lazily — a frame's backing ``bytearray`` is created
on first write — so simulating a multi-gigabyte Memcached slab area does
not actually consume gigabytes of host memory.
"""

from __future__ import annotations

from repro.consts import PAGE_SIZE
from repro.errors import OutOfMemory


class Frame:
    """One physical page frame.  Contents materialize on first write."""

    __slots__ = ("number", "_data")

    def __init__(self, number: int) -> None:
        self.number = number
        self._data: bytearray | None = None

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        if self._data is None:
            return bytes(length)
        return bytes(self._data[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        if self._data is None:
            self._data = bytearray(PAGE_SIZE)
        self._data[offset:offset + len(data)] = data

    def zero(self) -> None:
        """Scrub contents (frame reuse between owners)."""
        self._data = None

    @staticmethod
    def _check_range(offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > PAGE_SIZE:
            raise ValueError(
                f"frame access out of range: offset={offset} length={length}")


class PhysicalMemory:
    """Frame allocator over a fixed number of physical frames."""

    def __init__(self, total_frames: int = 1 << 24) -> None:
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        self.total_frames = total_frames
        self._frames: dict[int, Frame] = {}
        self._free: list[int] = []
        self._next_unused = 0

    @property
    def allocated_frames(self) -> int:
        return len(self._frames)

    def alloc_frame(self) -> Frame:
        """Allocate a zeroed frame; raises :class:`OutOfMemory` when full."""
        if self._free:
            number = self._free.pop()
        elif self._next_unused < self.total_frames:
            number = self._next_unused
            self._next_unused += 1
        else:
            raise OutOfMemory(
                f"physical memory exhausted ({self.total_frames} frames)")
        frame = Frame(number)
        self._frames[number] = frame
        return frame

    def free_frame(self, frame: Frame) -> None:
        """Return ``frame`` to the allocator; contents are scrubbed."""
        live = self._frames.pop(frame.number, None)
        if live is not frame:
            raise ValueError(f"frame {frame.number} is not live")
        frame.zero()
        self._free.append(frame.number)
