"""EVA2 unit hardware model — paper §III, §IV-B.

Models the Embedded Vision Accelerator Accelerator's area and its
per-frame energy/latency contributions:

* **area** — the two eDRAM pixel buffers, the eDRAM sparse activation
  buffer, and the synthesized logic (diff tile producer/consumer, warp
  engine, control). The paper reports 2.6 mm2 total with the pixel
  buffers at 54.5% and the activation buffer at 16.0%.
* **motion estimation** — RFBME adder ops (from the §IV-A analytic
  formulas) plus pixel-buffer traffic; one tile-offset comparison per
  7 ns cycle.
* **warp** — bilinear interpolations (Fig. 11 datapath: 8 multiplies + 7
  adds per output), sparsity-proportional because the decoder lanes skip
  shared zero runs (Fig. 10), plus activation-buffer traffic.
* **key-frame overhead** — writing the new frame into a pixel buffer and
  the RLE-encoded target activation into the activation buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .cost import Cost
from .rfbme_ops import SearchParams, rfbme_ops
from .memory import EDRAM, MemoryTech
from .rle import VALUE_BITS

__all__ = ["EVA2Params", "EVA2Model", "LOGIC_AREA_MM2"]

#: 65 nm datapath energies (pJ): 16-bit fixed-point add and multiply.
ADD16_PJ = 0.05
MULT16_PJ = 0.6

#: One bilinear interpolation: four weighting units (2 multiplies each)
#: plus the combining adder tree (Fig. 11).
INTERP_PJ = 8 * MULT16_PJ + 7 * ADD16_PJ

#: Synthesized logic + small SRAMs (producer, consumer, warp engine,
#: control). Chosen so the total EVA2 area lands at the paper's 2.6 mm2
#: given the eDRAM buffer areas.
LOGIC_AREA_MM2 = 0.70

#: Fraction of a warp output's cycle spent even when all four decoder
#: lanes skip (min-unit bookkeeping): the zero-skip path is not free.
_WARP_SKIP_OVERHEAD = 0.05


@dataclass(frozen=True)
class EVA2Params:
    """Static configuration of one EVA2 deployment."""

    frame_height: int
    frame_width: int
    #: receptive field of the target layer.
    rfield_size: int
    rfield_stride: int
    #: target activation geometry.
    grid_height: int
    grid_width: int
    channels: int
    #: nonzero fraction of the target activation (post-ReLU sparsity);
    #: 0.2 reproduces the paper's >80% storage saving.
    density: float = 0.2
    search: SearchParams = field(default_factory=SearchParams)
    clock_ns: float = 7.0

    def __post_init__(self):
        if min(self.frame_height, self.frame_width) < 1:
            raise ValueError(f"bad frame dims in {self}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")
        if self.rfield_stride < 1 or self.rfield_size < self.rfield_stride:
            raise ValueError(
                "rfield_size must be >= rfield_stride >= 1, got "
                f"{self.rfield_size}/{self.rfield_stride}"
            )


class EVA2Model:
    """Area and per-frame cost model of the EVA2 unit."""

    def __init__(self, params: EVA2Params, memory: MemoryTech = EDRAM):
        self.params = params
        self.memory = memory

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #
    @property
    def frame_bytes(self) -> int:
        """One 8-bit grayscale frame."""
        return self.params.frame_height * self.params.frame_width

    @property
    def activation_values(self) -> int:
        return self.params.grid_height * self.params.grid_width * self.params.channels

    @property
    def sparse_activation_bytes(self) -> int:
        """Buffer sizing: RLE storage scales with density (plus gap field
        overhead of 4 bits per 16-bit entry)."""
        entry_bits = VALUE_BITS + 4
        return int(self.activation_values * self.params.density * entry_bits / 8)

    @property
    def num_tiles(self) -> int:
        stride = self.params.rfield_stride
        return (self.params.frame_height // stride) * (self.params.frame_width // stride)

    @property
    def tile_bytes(self) -> int:
        return self.params.rfield_stride**2

    @property
    def search_offsets(self) -> int:
        return int(self.params.search.offsets_squared)

    # ------------------------------------------------------------------ #
    # area
    # ------------------------------------------------------------------ #
    def area_breakdown(self) -> Dict[str, float]:
        """mm2 per component, plus the total (paper Fig. 12: 2.6 mm2)."""
        pixel = self.memory.area_mm2(2 * self.frame_bytes)
        activation = self.memory.area_mm2(self.sparse_activation_bytes)
        total = pixel + activation + LOGIC_AREA_MM2
        return {
            "pixel_buffers_mm2": pixel,
            "activation_buffer_mm2": activation,
            "logic_mm2": LOGIC_AREA_MM2,
            "total_mm2": total,
        }

    @property
    def area_mm2(self) -> float:
        return self.area_breakdown()["total_mm2"]

    # ------------------------------------------------------------------ #
    # per-frame costs
    # ------------------------------------------------------------------ #
    def motion_estimation_cost(self) -> Cost:
        """RFBME: runs on every frame once a key frame exists."""
        adds = rfbme_ops(
            self.params.grid_width,
            self.params.grid_height,
            self.params.rfield_size,
            self.params.rfield_stride,
            self.params.search,
        )
        comparisons = self.num_tiles * self.search_offsets
        # Traffic: each tile read once from the new-frame buffer (then held
        # in registers), and one key-frame window read per comparison.
        traffic_bytes = self.num_tiles * self.tile_bytes + comparisons * self.tile_bytes
        energy_pj = adds * ADD16_PJ + self.memory.read_energy_pj_per_byte * traffic_bytes
        cycles = comparisons  # one tile comparison per cycle; consumer pipelined
        return Cost(
            latency_ms=cycles * self.params.clock_ns * 1e-6,
            energy_mj=energy_pj * 1e-9,
        )

    def warp_cost(self) -> Cost:
        """Motion compensation: sparsity-proportional interpolation."""
        outputs = self.activation_values
        effective = outputs * (self.params.density + _WARP_SKIP_OVERHEAD)
        interp_energy_pj = outputs * self.params.density * INTERP_PJ
        # Four decoder lanes stream the encoded activation once each.
        traffic_bytes = 4 * self.sparse_activation_bytes
        energy_pj = interp_energy_pj + self.memory.read_energy_pj_per_byte * traffic_bytes
        return Cost(
            latency_ms=effective * self.params.clock_ns * 1e-6,
            energy_mj=energy_pj * 1e-9,
        )

    def key_frame_store_cost(self) -> Cost:
        """Key frames: write the frame and the RLE activation to eDRAM."""
        write_bytes = self.frame_bytes + self.sparse_activation_bytes
        energy_pj = self.memory.write_energy_pj_per_byte * write_bytes
        cycles = write_bytes / max(self.params.rfield_stride, 1)  # wide port
        return Cost(
            latency_ms=cycles * self.params.clock_ns * 1e-6,
            energy_mj=energy_pj * 1e-9,
        )

    def predicted_frame_cost(self) -> Cost:
        """EVA2's share of one predicted frame: ME + warp."""
        return self.motion_estimation_cost() + self.warp_cost()

    def key_frame_cost(self) -> Cost:
        """EVA2's share of one key frame: ME (for the decision) + stores."""
        return self.motion_estimation_cost() + self.key_frame_store_cost()
