"""Hotspot-attack heatmap generation (paper Fig. 6).

Given a floorplan of MR banks and a set of attacked banks (whose heaters an
HT overdrives), this module builds the per-cell power map, solves the
steady-state temperature field and reports the per-bank temperature rise,
which the attack model converts into per-MR resonance shifts via Eq. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.thermal.floorplan import Floorplan
from repro.thermal.grid_solver import GridThermalSolver, ThermalSolverConfig
from repro.utils.validation import ValidationError, check_positive

__all__ = ["HeatmapResult", "simulate_hotspot_attack"]


@dataclass
class HeatmapResult:
    """Output of a hotspot-attack thermal simulation.

    Attributes
    ----------
    temperature_k:
        Full temperature field over the thermal grid [K].
    ambient_k:
        Heat-sink / nominal operating temperature [K].
    bank_temperature_rise_k:
        Mean temperature rise of every bank tile [K], indexed by bank id.
    attacked_banks:
        Bank ids whose heaters were overdriven.
    """

    temperature_k: np.ndarray
    ambient_k: float
    bank_temperature_rise_k: np.ndarray
    attacked_banks: tuple[int, ...]
    power_map_w: np.ndarray = field(repr=False, default=None)

    @property
    def peak_temperature_k(self) -> float:
        """Hottest cell on the die [K]."""
        return float(self.temperature_k.max())

    @property
    def peak_rise_k(self) -> float:
        """Peak temperature rise above ambient [K]."""
        return self.peak_temperature_k - self.ambient_k

    def affected_banks(self, threshold_rise_k: float) -> list[int]:
        """Bank ids whose mean rise exceeds ``threshold_rise_k`` (attack fallout)."""
        return [int(b) for b in np.flatnonzero(self.bank_temperature_rise_k >= threshold_rise_k)]

    def ascii_heatmap(self, width: int = 64) -> str:
        """Coarse ASCII rendering of the temperature field (for CLI reports)."""
        field_ = self.temperature_k
        rows = max(1, field_.shape[0] * width // max(field_.shape[1], 1) // 2)
        row_idx = np.linspace(0, field_.shape[0] - 1, rows).astype(int)
        col_idx = np.linspace(0, field_.shape[1] - 1, width).astype(int)
        sampled = field_[np.ix_(row_idx, col_idx)]
        low, high = sampled.min(), sampled.max()
        span = max(high - low, 1e-9)
        ramp = " .:-=+*#%@"
        lines = []
        for row in sampled:
            indices = ((row - low) / span * (len(ramp) - 1)).astype(int)
            lines.append("".join(ramp[i] for i in indices))
        return "\n".join(lines)


def simulate_hotspot_attack(
    floorplan: Floorplan,
    attacked_banks: list[int] | tuple[int, ...],
    heater_power_mw: float = 300.0,
    baseline_power_mw: float = 1.0,
    solver: GridThermalSolver | None = None,
    solver_config: ThermalSolverConfig | None = None,
) -> HeatmapResult:
    """Simulate a thermal hotspot attack on ``attacked_banks``.

    Parameters
    ----------
    floorplan:
        Placement of the block's MR banks.
    attacked_banks:
        Bank ids whose heaters the HT overdrives.
    heater_power_mw:
        Extra power dissipated in each attacked bank tile [mW].  The default
        corresponds to several compromised in-resonator heaters per bank
        driven near full scale (paper Fig. 6 attacks multiple heaters per
        targeted bank).
    baseline_power_mw:
        Nominal per-bank tuning power spread over its tile [mW] (workload
        background heat).
    """
    check_positive(heater_power_mw, "heater_power_mw")
    if baseline_power_mw < 0:
        raise ValidationError(f"baseline_power_mw must be non-negative, got {baseline_power_mw}")
    for bank in attacked_banks:
        if not 0 <= bank < floorplan.num_banks:
            raise ValidationError(
                f"attacked bank {bank} outside floorplan with {floorplan.num_banks} banks"
            )
    solver = solver or GridThermalSolver(solver_config)
    grid_shape = (solver.config.grid_rows, solver.config.grid_cols)
    power_map = np.zeros(grid_shape)
    bank_cells = floorplan.cell_slices(grid_shape)

    for cells in bank_cells:
        area = max(power_map[cells].size, 1)
        power_map[cells] += baseline_power_mw * 1e-3 / area
    for bank_id in attacked_banks:
        cells = bank_cells[bank_id]
        area = max(power_map[cells].size, 1)
        power_map[cells] += heater_power_mw * 1e-3 / area

    temperature = solver.solve(power_map)
    ambient = solver.config.ambient_temperature_k
    # sum / size is ndarray.mean's own arithmetic, without its per-call
    # Python overhead (this loop runs once per bank for every solve).
    tiles = [temperature[cells] for cells in bank_cells]
    rises = np.array([tile.sum() / tile.size for tile in tiles]) - ambient
    return HeatmapResult(
        temperature_k=temperature,
        ambient_k=ambient,
        bank_temperature_rise_k=rises,
        attacked_banks=tuple(int(b) for b in attacked_banks),
        power_map_w=power_map,
    )
