"""Sparse byte-addressable memory with memory-mapped devices.

Memory is organised as 4 KiB pages allocated on first touch.  A small
guard region at address zero is kept unmapped so that null-pointer
dereferences fault instead of silently reading zeros.  Devices claim
address ranges; loads and stores that hit a device range are routed to
the device instead of backing storage.

Loaded program text is immutable: :func:`repro.func.interp.load_program`
records each text range with :meth:`Memory.add_text`, and a store that
overlaps one faults.  The interpreter decodes each PC once and never
reads the word again, so this rule is what keeps its decode cache
sound.

The interpreter's load and store closures read the page table
(``_pages``) directly, with one set of pages that need the slow path:
loads test ``_device_pages`` (the pages any device overlaps), stores
test ``_store_pages`` (those plus the pages any text range overlaps).
An aligned access to a mapped page above the null guard outside its
set touches the page's ``bytearray``; every other access comes through
:meth:`Memory.load` / :meth:`Memory.store`, which check the exact
ranges, so data that shares a page with text still stores.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: Accesses below this address fault (null-pointer guard).
NULL_GUARD = 0x1000

_MASK64 = (1 << 64) - 1


class MemoryFault(Exception):
    """An access touched an illegal address."""

    def __init__(self, address: int, reason: str) -> None:
        self.address = address
        self.reason = reason
        super().__init__(f"memory fault at {address:#x}: {reason}")


class Device:
    """A memory-mapped device occupying ``[base, base+size)``."""

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    def load(self, address: int, size: int) -> int:
        raise MemoryFault(address, "device is write-only")

    def store(self, address: int, size: int, value: int) -> None:
        raise MemoryFault(address, "device is read-only")


class ConsoleDevice(Device):
    """A write-only console: bytes stored to it accumulate in ``output``."""

    #: Conventional placement of the console in the physical map.
    DEFAULT_BASE = 0x7FFF_0000

    def __init__(self, base: int = DEFAULT_BASE) -> None:
        super().__init__(base, PAGE_SIZE)
        self.output = bytearray()

    def store(self, address: int, size: int, value: int) -> None:
        self.output += (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little")

    def text(self) -> str:
        """Console output decoded as text (replacement on bad bytes)."""
        return self.output.decode("utf-8", errors="replace")


class Memory:
    """Sparse 64-bit physical memory."""

    def __init__(self, null_guard: int = NULL_GUARD) -> None:
        self._pages: dict[int, bytearray] = {}
        self._devices: list[Device] = []
        #: Page numbers any device overlaps, kept by :meth:`add_device`.
        self._device_pages: set[int] = set()
        #: Loaded program text as ``(start, end)`` ranges, kept by
        #: :meth:`add_text`.
        self.text_ranges: list[tuple[int, int]] = []
        #: Page numbers a device or a text range overlaps: the pages
        #: whose stores take :meth:`store`.
        self._store_pages: set[int] = set()
        self.null_guard = null_guard

    # -- device plumbing ---------------------------------------------------
    def add_device(self, device: Device) -> None:
        for existing in self._devices:
            if (device.base < existing.base + existing.size and
                    existing.base < device.base + device.size):
                raise ValueError("device ranges overlap")
        self._devices.append(device)
        pages = _pages_of(device.base, device.size)
        self._device_pages.update(pages)
        self._store_pages.update(pages)

    def add_text(self, base: int, size: int) -> None:
        """Make ``[base, base+size)`` immutable program text: a later
        :meth:`store` that overlaps it faults (image loading goes
        through :meth:`write_bytes`, which does not check)."""
        self.text_ranges.append((base, base + size))
        self._store_pages.update(_pages_of(base, size))

    def _device_at(self, address: int) -> Device | None:
        for device in self._devices:
            if device.contains(address):
                return device
        return None

    # -- page plumbing -------------------------------------------------------
    def _page(self, address: int) -> bytearray:
        number = address >> PAGE_SHIFT
        page = self._pages.get(number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[number] = page
        return page

    def _check(self, address: int, size: int) -> None:
        if address < 0 or address + size > (1 << 64):
            raise MemoryFault(address, "outside the 64-bit address space")
        if address < self.null_guard:
            raise MemoryFault(address, "null-guard region")

    @property
    def mapped_bytes(self) -> int:
        """Bytes of backing store currently allocated."""
        return len(self._pages) * PAGE_SIZE

    def content_digest(self) -> str:
        """SHA-256 over all non-zero pages (number + contents).

        All-zero pages are skipped: pages allocate on first *touch*, so
        two runs of the same program can differ in which untouched-but-
        read pages exist without differing in content.  Device state is
        not memory content and is excluded.
        """
        hasher = hashlib.sha256()
        for number in sorted(self._pages):
            page = self._pages[number]
            if any(page):
                hasher.update(number.to_bytes(8, "little"))
                hasher.update(page)
        return hasher.hexdigest()

    # -- bulk access (image loading, string helpers) ------------------------
    def write_bytes(self, address: int, blob: bytes) -> None:
        """Copy *blob* into memory starting at *address*."""
        self._check(address, len(blob))
        offset = 0
        while offset < len(blob):
            page = self._page(address + offset)
            start = (address + offset) & PAGE_MASK
            chunk = min(PAGE_SIZE - start, len(blob) - offset)
            page[start:start + chunk] = blob[offset:offset + chunk]
            offset += chunk

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read *size* bytes starting at *address*."""
        self._check(address, size)
        out = bytearray()
        offset = 0
        while offset < size:
            page = self._page(address + offset)
            start = (address + offset) & PAGE_MASK
            chunk = min(PAGE_SIZE - start, size - offset)
            out += page[start:start + chunk]
            offset += chunk
        return bytes(out)

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (without the terminator)."""
        out = bytearray()
        while len(out) < limit:
            byte = self.load(address + len(out), 1)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise MemoryFault(address, "unterminated string")

    # -- scalar access ------------------------------------------------------
    def load(self, address: int, size: int) -> int:
        """Load *size* bytes at *address* as an unsigned little-endian int."""
        device = self._device_at(address)
        if device is not None:
            return device.load(address, size)
        self._check(address, size)
        page = self._page(address)
        start = address & PAGE_MASK
        if start + size <= PAGE_SIZE:
            return int.from_bytes(page[start:start + size], "little")
        return int.from_bytes(self.read_bytes(address, size), "little")

    def store(self, address: int, size: int, value: int) -> None:
        """Store the low *size* bytes of *value* at *address*."""
        device = self._device_at(address)
        if device is not None:
            device.store(address, size, value)
            return
        self._check(address, size)
        for start, end in self.text_ranges:
            if address < end and start < address + size:
                raise MemoryFault(address, "store to loaded program text")
        value &= (1 << (8 * size)) - 1
        page = self._page(address)
        start = address & PAGE_MASK
        if start + size <= PAGE_SIZE:
            page[start:start + size] = value.to_bytes(size, "little")
        else:
            self.write_bytes(address, value.to_bytes(size, "little"))

    def load_signed(self, address: int, size: int) -> int:
        """Load and sign-extend to a 64-bit value (still returned unsigned)."""
        value = self.load(address, size)
        sign = 1 << (8 * size - 1)
        if value & sign:
            value |= _MASK64 ^ ((1 << (8 * size)) - 1)
        return value


def _pages_of(base: int, size: int) -> range:
    """The numbers of the pages ``[base, base+size)`` overlaps."""
    return range(base >> PAGE_SHIFT, (base + size + PAGE_MASK) >> PAGE_SHIFT)


def make_console_memory() -> tuple[Memory, ConsoleDevice]:
    """Convenience: memory with a console device attached."""
    memory = Memory()
    console = ConsoleDevice()
    memory.add_device(console)
    return memory, console
