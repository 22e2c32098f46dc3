"""Memcached's hash table, stored inside the simulated address space.

Buckets are 8-byte slots in a dedicated region holding the slab-chunk
address of the first item in the chain; each item's chunk begins with a
small header (next-pointer, key length, value length) followed by the
key and value bytes.  All traversal reads and writes go through the
MMU via the accessing task, so protecting the regions genuinely blocks
lookups from outside an open domain.
"""

from __future__ import annotations

import struct
import typing

from repro.errors import MpkError

if typing.TYPE_CHECKING:
    from repro.apps.kvstore.slab import SlabAllocator
    from repro.kernel.task import Task

_BUCKET = struct.Struct("<Q")
# next_addr, key_len, value_len, expires_at (seconds; 0 = never)
_HEADER = struct.Struct("<QHII")
HEADER_SIZE = _HEADER.size


def _fnv1a(key: bytes) -> int:
    value = 0xCBF29CE484222325
    for byte in key:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFF_FFFF_FFFF_FFFF
    return value


class HashTable:
    """Chained hash table over a bucket region + slab-resident items."""

    def __init__(self, bucket_base: int, bucket_count: int,
                 slab: "SlabAllocator") -> None:
        if bucket_count <= 0 or bucket_count & (bucket_count - 1):
            raise MpkError("bucket count must be a power of two")
        self.bucket_base = bucket_base
        self.bucket_count = bucket_count
        self.slab = slab
        self.item_count = 0
        self.expired_count = 0

    # ------------------------------------------------------------------

    def _bucket_addr(self, key: bytes) -> int:
        index = _fnv1a(key) & (self.bucket_count - 1)
        return self.bucket_base + index * _BUCKET.size

    def _read_bucket(self, task: "Task", bucket: int) -> int:
        return _BUCKET.unpack(task.read(bucket, _BUCKET.size))[0]

    def _write_bucket(self, task: "Task", bucket: int, addr: int) -> None:
        task.write(bucket, _BUCKET.pack(addr))

    def _read_header(self, task: "Task",
                     chunk: int) -> tuple[int, int, int, int]:
        return _HEADER.unpack(task.read(chunk, HEADER_SIZE))

    # ------------------------------------------------------------------

    def assoc_insert(self, task: "Task", key: bytes, value: bytes,
                     expires_at: int = 0) -> int:
        """Store ``key`` -> ``value``; returns the item's chunk address.

        An existing item with the same key is replaced (unlinked and
        freed), as Memcached's ``set`` does.  ``expires_at`` is an
        absolute second count (0 = never), stored in the item header —
        in protected memory, like everything else about the item.
        The key is hashed once for the whole set.
        """
        bucket = self._bucket_addr(key)
        self._delete_at(task, key, bucket, missing_ok=True)
        item_size = HEADER_SIZE + len(key) + len(value)
        chunk = self.slab.alloc(item_size)
        head = self._read_bucket(task, bucket)
        task.write(chunk, _HEADER.pack(head, len(key), len(value),
                                       expires_at) + key + value)
        self._write_bucket(task, bucket, chunk)
        self.item_count += 1
        return chunk

    def assoc_find(self, task: "Task", key: bytes,
                   now: int = 0) -> bytes | None:
        """Look up ``key``; returns the value bytes or None.

        Expired items (header expiry <= ``now``) are treated as misses
        and lazily reclaimed, Memcached-style.
        """
        bucket = self._bucket_addr(key)
        chunk = self._read_bucket(task, bucket)
        while chunk:
            next_addr, key_len, value_len, expires_at = \
                self._read_header(task, chunk)
            stored_key = task.read(chunk + HEADER_SIZE, key_len)
            if stored_key == key:
                if expires_at and now >= expires_at:
                    self._delete_at(task, key, bucket, missing_ok=False)
                    self.expired_count += 1
                    return None
                return task.read(chunk + HEADER_SIZE + key_len,
                                 value_len)
            chunk = next_addr
        return None

    def assoc_delete(self, task: "Task", key: bytes,
                     missing_ok: bool = False) -> bool:
        """Unlink and free ``key``'s item."""
        return self._delete_at(task, key, self._bucket_addr(key),
                               missing_ok)

    def _delete_at(self, task: "Task", key: bytes, bucket: int,
                   missing_ok: bool) -> bool:
        """:meth:`assoc_delete` with ``key``'s bucket address given."""
        prev = None
        chunk = self._read_bucket(task, bucket)
        while chunk:
            next_addr, key_len, _, _ = self._read_header(task, chunk)
            stored_key = task.read(chunk + HEADER_SIZE, key_len)
            if stored_key == key:
                if prev is None:
                    self._write_bucket(task, bucket, next_addr)
                else:
                    _, pk, pv, pe = self._read_header(task, prev)
                    task.write(prev, _HEADER.pack(next_addr, pk, pv, pe))
                self.slab.free(chunk)
                self.item_count -= 1
                return True
            prev = chunk
            chunk = next_addr
        if not missing_ok:
            raise MpkError(f"key not found: {key!r}")
        return False
