"""Unit and property tests for sparse memory and devices."""

import pytest
from hypothesis import given, strategies as st

from repro.func import ConsoleDevice, Device, Memory, MemoryFault
from repro.func.memory import NULL_GUARD, PAGE_SIZE


class TestScalarAccess:
    def test_store_load_round_trip(self):
        memory = Memory()
        memory.store(0x2000, 8, 0x1122334455667788)
        assert memory.load(0x2000, 8) == 0x1122334455667788

    def test_little_endian_layout(self):
        memory = Memory()
        memory.store(0x2000, 4, 0x0A0B0C0D)
        assert memory.load(0x2000, 1) == 0x0D
        assert memory.load(0x2003, 1) == 0x0A

    def test_store_truncates_to_size(self):
        memory = Memory()
        memory.store(0x2000, 1, 0x1FF)
        assert memory.load(0x2000, 1) == 0xFF

    def test_unwritten_memory_reads_zero(self):
        assert Memory().load(0x9999_0000, 8) == 0

    def test_load_signed(self):
        memory = Memory()
        memory.store(0x2000, 1, 0x80)
        assert memory.load_signed(0x2000, 1) == (1 << 64) - 128
        memory.store(0x2010, 2, 0x7FFF)
        assert memory.load_signed(0x2010, 2) == 0x7FFF

    def test_cross_page_access(self):
        memory = Memory()
        addr = 0x3000 + PAGE_SIZE - 4
        memory.store(addr, 8, 0xA1B2C3D4E5F60718)
        assert memory.load(addr, 8) == 0xA1B2C3D4E5F60718


class TestFaults:
    def test_null_guard_load(self):
        with pytest.raises(MemoryFault, match="null-guard"):
            Memory().load(0, 8)

    def test_null_guard_boundary(self):
        memory = Memory()
        with pytest.raises(MemoryFault):
            memory.load(NULL_GUARD - 1, 1)
        memory.load(NULL_GUARD, 1)  # first legal byte

    def test_negative_address(self):
        with pytest.raises(MemoryFault):
            Memory().load(-8, 8)

    def test_beyond_64_bit_space(self):
        with pytest.raises(MemoryFault):
            Memory().load((1 << 64) - 4, 8)

    @pytest.mark.parametrize("address, size", [
        (0x2000, 4), (0x200C, 4), (0x200F, 1), (0x1FFC, 8), (0x200C, 8)])
    def test_store_overlapping_text_faults(self, address, size):
        memory = Memory()
        memory.write_bytes(0x2000, bytes(range(1, 17)))
        memory.add_text(0x2000, 16)
        with pytest.raises(MemoryFault, match="program text"):
            memory.store(address, size, 0)
        assert memory.read_bytes(0x2000, 16) == bytes(range(1, 17))

    def test_text_neighbours_on_its_page_still_store(self):
        memory = Memory()
        memory.add_text(0x2000, 16)
        memory.store(0x1FF8, 8, 0x11)
        memory.store(0x2010, 8, 0x22)
        assert memory.load(0x1FF8, 8) == 0x11
        assert memory.load(0x2010, 8) == 0x22
        # Image loading goes through write_bytes, which does not check.
        memory.write_bytes(0x2000, b"\x33")
        assert memory.load(0x2000, 1) == 0x33


class TestBulkAccess:
    def test_write_read_bytes(self):
        memory = Memory()
        blob = bytes(range(100))
        memory.write_bytes(0x2000, blob)
        assert memory.read_bytes(0x2000, 100) == blob

    def test_bulk_cross_page(self):
        memory = Memory()
        blob = b"x" * (PAGE_SIZE + 100)
        memory.write_bytes(0x2f00, blob)
        assert memory.read_bytes(0x2f00, len(blob)) == blob

    def test_read_cstring(self):
        memory = Memory()
        memory.write_bytes(0x2000, b"hello\x00world")
        assert memory.read_cstring(0x2000) == b"hello"

    def test_read_cstring_unterminated(self):
        memory = Memory()
        memory.write_bytes(0x2000, b"x" * 64)
        with pytest.raises(MemoryFault, match="unterminated"):
            memory.read_cstring(0x2000, limit=16)

    def test_mapped_bytes_grows_on_touch(self):
        memory = Memory()
        assert memory.mapped_bytes == 0
        memory.store(0x2000, 1, 1)
        assert memory.mapped_bytes == PAGE_SIZE


class TestDevices:
    def test_console_collects_output(self):
        memory = Memory()
        console = ConsoleDevice()
        memory.add_device(console)
        for byte in b"ok":
            memory.store(console.base, 1, byte)
        assert console.text() == "ok"

    def test_console_multibyte_store(self):
        console = ConsoleDevice()
        console.store(console.base, 2, 0x6261)  # "ab" little-endian
        assert console.output == b"ab"

    def test_console_is_write_only(self):
        memory = Memory()
        console = ConsoleDevice()
        memory.add_device(console)
        with pytest.raises(MemoryFault, match="write-only"):
            memory.load(console.base, 1)

    def test_overlapping_devices_rejected(self):
        memory = Memory()
        memory.add_device(Device(0x5000_0000, 0x1000))
        with pytest.raises(ValueError, match="overlap"):
            memory.add_device(Device(0x5000_0800, 0x1000))

    def test_device_store_default_read_only(self):
        device = Device(0x5000_0000, 16)
        with pytest.raises(MemoryFault):
            device.store(0x5000_0000, 1, 1)


class TestProperties:
    @given(st.integers(0x2000, 0x10_0000), st.binary(min_size=1,
                                                     max_size=300))
    def test_write_read_round_trip(self, address, blob):
        memory = Memory()
        memory.write_bytes(address, blob)
        assert memory.read_bytes(address, len(blob)) == blob

    @given(st.integers(0x2000, 0x10_0000),
           st.integers(0, (1 << 64) - 1),
           st.sampled_from([1, 2, 4, 8]))
    def test_scalar_round_trip_masks(self, address, value, size):
        memory = Memory()
        memory.store(address, size, value)
        assert memory.load(address, size) == value & ((1 << (8 * size)) - 1)

    @given(st.integers(0x2000, 0x8000), st.binary(min_size=8, max_size=64))
    def test_byte_and_scalar_views_agree(self, address, blob):
        memory = Memory()
        memory.write_bytes(address, blob)
        first_dword = int.from_bytes(blob[:8], "little")
        assert memory.load(address, 8) == first_dword
