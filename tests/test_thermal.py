"""Tests for the thermal substrate (floorplan, grid solver, hotspot heatmap)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.thermal import (
    Floorplan,
    GridThermalSolver,
    ThermalSolverConfig,
    simulate_hotspot_attack,
)
from repro.utils.validation import ValidationError


class TestFloorplan:
    def test_places_all_banks_without_overlap(self):
        plan = Floorplan(num_banks=12, banks_per_row=4)
        assert len(plan.placements) == 12
        centers = {p.center_um for p in plan.placements}
        assert len(centers) == 12
        assert plan.num_rows == 3

    def test_die_dimensions_cover_tiles(self):
        plan = Floorplan(num_banks=10, banks_per_row=5, bank_width_um=100, bank_height_um=50,
                         spacing_um=10, margin_um=20)
        last = plan.placements[-1]
        assert last.x_um + last.width_um <= plan.die_width_um
        assert last.y_um + last.height_um <= plan.die_height_um

    def test_neighbours_of_interior_bank(self):
        plan = Floorplan(num_banks=9, banks_per_row=3)
        neighbours = plan.neighbours_of(4, radius=1)
        assert sorted(neighbours) == [0, 1, 2, 3, 5, 6, 7, 8]
        corner = plan.neighbours_of(0, radius=1)
        assert sorted(corner) == [1, 3, 4]

    def test_bank_cells_within_grid(self):
        plan = Floorplan(num_banks=6, banks_per_row=3)
        rows, cols = plan.bank_cells(5, (32, 32))
        assert 0 <= rows.start < rows.stop <= 32
        assert 0 <= cols.start < cols.stop <= 32


class TestGridSolver:
    def test_no_power_gives_ambient_everywhere(self):
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=8, grid_cols=8))
        field = solver.solve(np.zeros((8, 8)))
        np.testing.assert_allclose(field, solver.config.ambient_temperature_k, rtol=1e-9)

    def test_point_source_peaks_at_source_and_decays(self):
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=16, grid_cols=16))
        power = np.zeros((16, 16))
        power[8, 8] = 0.05
        rise = solver.temperature_rise(power)
        assert rise[8, 8] == rise.max()
        assert rise[8, 8] > 2 * rise[0, 0]
        assert np.all(rise >= -1e-9)

    def test_superposition_of_linear_system(self):
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=10, grid_cols=10))
        p1 = np.zeros((10, 10)); p1[2, 2] = 0.01
        p2 = np.zeros((10, 10)); p2[7, 7] = 0.02
        combined = solver.temperature_rise(p1 + p2)
        separate = solver.temperature_rise(p1) + solver.temperature_rise(p2)
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    def test_energy_balance(self):
        """Total power injected equals total power sunk to ambient."""
        config = ThermalSolverConfig(grid_rows=12, grid_cols=12)
        solver = GridThermalSolver(config)
        power = np.zeros((12, 12))
        power[3, 4] = 0.03
        rise = solver.temperature_rise(power)
        sunk = config.cell_sink_conductance_w_per_k * rise.sum()
        assert sunk == pytest.approx(power.sum(), rel=1e-6)

    def test_rejects_invalid_power_maps(self):
        solver = GridThermalSolver()
        with pytest.raises(ValueError):
            solver.solve(np.zeros(5))
        with pytest.raises(ValueError):
            solver.solve(-np.ones((4, 4)))

    def test_factorization_reused_across_power_maps(self):
        """Repeated solves on one grid shape reuse a single factorization."""
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=12, grid_cols=12))
        p1 = np.zeros((12, 12)); p1[3, 3] = 0.02
        p2 = np.zeros((12, 12)); p2[8, 8] = 0.05
        first = solver.solve(p1)
        assert list(solver._solver_cache) == [(12, 12)]
        factorization = solver._solver_cache[(12, 12)]
        solver.solve(p2)
        solver.solve(np.zeros((6, 6)))  # second shape gets its own entry
        assert solver._solver_cache[(12, 12)] is factorization
        assert set(solver._solver_cache) == {(12, 12), (6, 6)}
        np.testing.assert_allclose(solver.solve(p1), first, rtol=0, atol=0)

    def test_matches_dense_reference_solution(self):
        """The vectorized assembly solves the same balance as a dense reference."""
        config = ThermalSolverConfig(grid_rows=5, grid_cols=4)
        solver = GridThermalSolver(config)
        rows, cols = 5, 4
        k_lat = config.lateral_conductance_w_per_k
        g_sink = config.die_sink_conductance_w_per_k / (rows * cols)
        dense = np.zeros((rows * cols, rows * cols))
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                dense[i, i] = g_sink
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        dense[i, rr * cols + cc] = -k_lat
                        dense[i, i] += k_lat
        power = np.linspace(0, 0.01, rows * cols).reshape(rows, cols)
        rhs = power.ravel() + g_sink * config.ambient_temperature_k
        expected = np.linalg.solve(dense, rhs).reshape(rows, cols)
        np.testing.assert_allclose(solver.solve(power), expected, rtol=1e-9)


class TestHotspotHeatmap:
    def test_attacked_banks_are_hottest(self):
        plan = Floorplan(num_banks=100, banks_per_row=10)
        result = simulate_hotspot_attack(plan, attacked_banks=[44, 77])
        rises = result.bank_temperature_rise_k
        hottest = set(np.argsort(rises)[-2:])
        assert hottest == {44, 77}
        assert result.peak_rise_k > 10.0

    def test_neighbours_heated_less_than_target_more_than_far(self):
        plan = Floorplan(num_banks=100, banks_per_row=10)
        result = simulate_hotspot_attack(plan, attacked_banks=[55])
        rises = result.bank_temperature_rise_k
        assert rises[55] > rises[56] > rises[0]

    def test_affected_banks_threshold(self):
        plan = Floorplan(num_banks=64, banks_per_row=8)
        result = simulate_hotspot_attack(plan, attacked_banks=[27])
        affected = result.affected_banks(5.0)
        assert 27 in affected
        assert len(affected) < 64

    def test_ascii_heatmap_renders(self):
        plan = Floorplan(num_banks=16, banks_per_row=4)
        result = simulate_hotspot_attack(plan, attacked_banks=[5])
        art = result.ascii_heatmap(width=32)
        assert "@" in art
        assert len(art.splitlines()) > 2

    def test_rejects_out_of_range_banks(self):
        plan = Floorplan(num_banks=4, banks_per_row=2)
        with pytest.raises(ValidationError):
            simulate_hotspot_attack(plan, attacked_banks=[10])

    def test_more_heater_power_more_heat(self):
        plan = Floorplan(num_banks=25, banks_per_row=5)
        low = simulate_hotspot_attack(plan, attacked_banks=[12], heater_power_mw=100)
        high = simulate_hotspot_attack(plan, attacked_banks=[12], heater_power_mw=300)
        assert high.peak_rise_k > low.peak_rise_k


class TestBankHeatReuse:
    """``solve_bank_heat`` shares one solver per config and one floorplan per
    block size, without changing a single bit of the result."""

    #: The scaled accelerator's CONV and FC bank counts.
    BLOCK_BANKS = (250, 450)

    @pytest.fixture
    def factorizations(self, monkeypatch):
        from repro.attacks import hotspot
        from repro.thermal import grid_solver

        hotspot._shared_solver.cache_clear()
        hotspot._shared_floorplan.cache_clear()
        calls = []
        original = grid_solver.factorized

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(grid_solver, "factorized", counting)
        yield calls
        hotspot._shared_solver.cache_clear()
        hotspot._shared_floorplan.cache_clear()

    @staticmethod
    def _fresh(num_banks, heated, rows, cols, heater_mw=300.0, baseline_mw=1.0):
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=rows, grid_cols=cols))
        return simulate_hotspot_attack(
            Floorplan(num_banks=num_banks),
            attacked_banks=list(heated),
            heater_power_mw=heater_mw,
            baseline_power_mw=baseline_mw,
            solver=solver,
        ).bank_temperature_rise_k

    def test_conv_and_fc_share_one_factorization_per_config(self, factorizations):
        from repro.attacks.hotspot import solve_bank_heat

        rng = np.random.default_rng(0)
        calls = []
        for grid in ((48, 48), (24, 32)):
            for _ in range(3):
                for num_banks in self.BLOCK_BANKS:
                    heated = np.sort(rng.choice(num_banks, size=5, replace=False))
                    heat = solve_bank_heat(num_banks, heated, 300.0, 1.0, *grid)
                    calls.append((num_banks, heated, grid, heat))
        assert factorizations == [(48 * 48, 48 * 48), (24 * 32, 24 * 32)]
        for num_banks, heated, grid, heat in calls:
            assert np.array_equal(heat, self._fresh(num_banks, heated, *grid))

    def test_caches_are_bounded(self, factorizations):
        from repro.attacks import hotspot

        for size in range(4, 4 + 2 * hotspot._shared_solver.cache_info().maxsize):
            hotspot.solve_bank_heat(size, np.array([0]), 50.0, 0.5, size, size + 1)
        for cache in (hotspot._shared_solver, hotspot._shared_floorplan):
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize

    def test_solvers_keep_their_own_factorization_cache(self):
        config = ThermalSolverConfig(grid_rows=6, grid_cols=6)
        first, second = GridThermalSolver(config), GridThermalSolver(config)
        first.solve(np.zeros((6, 6)))
        assert first._solver_cache and not second._solver_cache

    def test_cell_slices_match_bank_cells(self):
        plan = Floorplan(num_banks=30, banks_per_row=6)
        slices = plan.cell_slices((20, 24))
        assert slices is plan.cell_slices((20, 24))
        assert slices == tuple(plan.bank_cells(bank, (20, 24)) for bank in range(30))
