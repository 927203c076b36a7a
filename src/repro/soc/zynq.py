"""Zynq-7000 processing-system (PS7) model and configuration.

The PS7 is hard silicon: it costs no PL resources but must be configured
— the paper's tool "adds a Zynq Processing System, configures it and
enables the High Performance I/O ports to transfer data via DMA"
(Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.hls.resources import ResourceUsage
from repro.soc.ip import InterfacePin, IpCore, PinKind
from repro.util.errors import IntegrationError

MAX_HP_PORTS = 4
MAX_GP_PORTS = 2


@dataclass(frozen=True)
class ZynqConfig:
    """PS7 configuration the integrator applies."""

    gp_masters: int = 1  # M_AXI_GP0.. (control plane)
    hp_slaves: int = 0  # S_AXI_HP0.. (DMA data plane)
    fclk_mhz: float = 100.0
    #: DDR visible to PL masters, bytes (Zedboard: 512 MiB).
    ddr_bytes: int = 512 * 1024 * 1024

    def __post_init__(self) -> None:
        if not (0 <= self.gp_masters <= MAX_GP_PORTS):
            raise IntegrationError(f"PS7 supports at most {MAX_GP_PORTS} GP masters")
        if not (0 <= self.hp_slaves <= MAX_HP_PORTS):
            raise IntegrationError(f"PS7 supports at most {MAX_HP_PORTS} HP slaves")
        if self.fclk_mhz <= 0:
            raise IntegrationError("FCLK frequency must be positive")


@lru_cache(maxsize=None)
def _ps7_pins(gp_masters: int, hp_slaves: int) -> tuple[InterfacePin, ...]:
    """The PS7's pins (immutable, so shared by every PS7 cell)."""
    pins = [
        InterfacePin("FCLK_CLK0", PinKind.CLOCK_OUT),
        InterfacePin("FCLK_RESET0_N", PinKind.RESET_OUT),
        InterfacePin("IRQ_F2P", PinKind.INTERRUPT_IN),
    ]
    for i in range(gp_masters):
        pins.append(InterfacePin(f"M_AXI_GP{i}", PinKind.AXI_LITE_MASTER))
        pins.append(InterfacePin(f"M_AXI_GP{i}_ACLK", PinKind.CLOCK_IN))
    for i in range(hp_slaves):
        pins.append(InterfacePin(f"S_AXI_HP{i}", PinKind.AXI_FULL_SLAVE, data_width=64))
        pins.append(InterfacePin(f"S_AXI_HP{i}_ACLK", PinKind.CLOCK_IN))
    return tuple(pins)


def zynq_ps7(config: ZynqConfig, name: str = "processing_system7_0") -> IpCore:
    """Build the PS7 cell for *config*."""
    pins = list(_ps7_pins(config.gp_masters, config.hp_slaves))
    params: dict[str, object] = {
        "PCW_FPGA0_PERIPHERAL_FREQMHZ": config.fclk_mhz,
        "preset": "ZedBoard",
    }
    for i in range(MAX_GP_PORTS):
        params[f"PCW_USE_M_AXI_GP{i}"] = int(i < config.gp_masters)
    for i in range(MAX_HP_PORTS):
        params[f"PCW_USE_S_AXI_HP{i}"] = int(i < config.hp_slaves)
    return IpCore(
        name=name,
        vlnv="xilinx.com:ip:processing_system7:5.5",
        pins=pins,
        resources=ResourceUsage(),  # hard block
        params=params,
        is_hard=True,
    )


def ps7_from_params(name: str, params: dict[str, object]) -> IpCore:
    """Rebuild a PS7 cell from its tcl CONFIG dictionary (runner hook)."""
    gp = sum(int(params.get(f"PCW_USE_M_AXI_GP{i}", 0)) for i in range(MAX_GP_PORTS))
    hp = sum(int(params.get(f"PCW_USE_S_AXI_HP{i}", 0)) for i in range(MAX_HP_PORTS))
    fclk = float(params.get("PCW_FPGA0_PERIPHERAL_FREQMHZ", 100.0))
    return zynq_ps7(ZynqConfig(gp_masters=gp, hp_slaves=hp, fclk_mhz=fclk), name)
