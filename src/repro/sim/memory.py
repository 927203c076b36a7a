"""Shared-DRAM model with named buffers.

The runtime allocates one named buffer per HTG data item (the paper's
"data exchange among nodes is performed through shared memory").
Buffers are numpy arrays living at assigned base addresses; word-level
reads/writes carry a fixed latency plus a per-word bandwidth cost that
the DMA engines and CPU model charge.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from repro.util.errors import SimError

DDR_BASE = 0x0000_0000
DDR_SIZE = 512 * 1024 * 1024  # Zedboard: 512 MiB

#: DRAM timing (cycles @ FCLK): first-word latency and per-word cost as
#: seen by a PL master through an HP port.
READ_LATENCY = 22
WRITE_LATENCY = 18
CYCLES_PER_WORD = 1


class _AlwaysGreater:
    """Sorts after any buffer: lets (addr, ceiling) bisect past ties."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True


_ADDR_CEILING = _AlwaysGreater()


@dataclass
class Buffer:
    """One named region of DRAM backed by a numpy array."""

    name: str
    base: int
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def end(self) -> int:
        return self.base + self.nbytes


class Memory:
    """DRAM: a buffer allocator plus latency constants."""

    def __init__(self, *, base: int = DDR_BASE, size: int = DDR_SIZE) -> None:
        self.base = base
        self.size = size
        self._next = base or 0x0010_0000  # skip the kernel's low pages
        self.buffers: dict[str, Buffer] = {}
        #: (base, Buffer) pairs kept sorted by base for O(log n) decode.
        self._by_base: list[tuple[int, Buffer]] = []

    def allocate(self, name: str, data: np.ndarray) -> Buffer:
        """Place *data* (copied) into DRAM under *name*."""
        if name in self.buffers:
            raise SimError(f"buffer {name!r} already allocated")
        arr = np.array(data)  # private copy: DRAM owns its contents
        aligned = (self._next + 63) & ~63  # cache-line align
        if aligned + arr.nbytes > self.base + self.size:
            raise SimError("out of simulated DRAM")
        buf = Buffer(name, aligned, arr)
        self._next = aligned + arr.nbytes
        self.buffers[name] = buf
        insort(self._by_base, (buf.base, buf))
        return buf

    def buffer(self, name: str) -> Buffer:
        try:
            return self.buffers[name]
        except KeyError:
            raise SimError(f"no DRAM buffer named {name!r}") from None

    def at(self, addr: int) -> Buffer:
        """Buffer containing *addr* (used by DMA address decoding).

        Buffers never overlap (the allocator hands out disjoint ranges),
        so the unique candidate is the one with the greatest base at or
        below *addr* — found by binary search instead of a linear scan,
        which matters because every DMA descriptor decodes through here.
        """
        i = bisect_right(self._by_base, (addr, _ADDR_CEILING))
        if i:
            buf = self._by_base[i - 1][1]
            if buf.base <= addr < buf.end:
                return buf
        raise SimError(f"address {addr:#x} hits no allocated buffer")
