"""Memory technology constants (CACTI-style, 65 nm).

The paper sizes EVA2's three large buffers (two pixel buffers, one sparse
activation buffer) in eDRAM and the small ones in SRAM, with CACTI 6.5
providing power/performance/area (§IV-B). We encode first-order per-byte
constants consistent with that flow: densities chosen so the buffer areas
reproduce the paper's Fig. 12 breakdown (pixel buffers 54.5% and
activation buffer 16.0% of EVA2's 2.6 mm2), access energies in the range
CACTI reports for ~1 MB 65 nm arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryTech", "EDRAM", "SRAM"]


@dataclass(frozen=True)
class MemoryTech:
    """One memory technology's first-order constants."""

    name: str
    density_mb_per_mm2: float
    read_energy_pj_per_byte: float
    write_energy_pj_per_byte: float
    #: random-access cycle time; EVA2's 7 ns clock was matched to this.
    cycle_ns: float

    def area_mm2(self, size_bytes: int) -> float:
        """Die area for a buffer of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes}")
        return (size_bytes / (1024 * 1024)) / self.density_mb_per_mm2

    def read_energy_mj(self, num_bytes: int) -> float:
        return num_bytes * self.read_energy_pj_per_byte * 1e-9


#: 65 nm eDRAM (the three large EVA2 buffers).
EDRAM = MemoryTech(
    name="eDRAM",
    density_mb_per_mm2=0.79,
    read_energy_pj_per_byte=1.0,
    write_energy_pj_per_byte=1.2,
    cycle_ns=7.0,
)

#: 65 nm SRAM (tile memory, past-sum memory, min-check registers).
SRAM = MemoryTech(
    name="SRAM",
    density_mb_per_mm2=0.35,
    read_energy_pj_per_byte=0.5,
    write_energy_pj_per_byte=0.6,
    cycle_ns=2.0,
)
