"""Seeded inputs of the benchmark workloads.

A seed selects one of ``N_VARIANTS`` input variants (``seed mod
N_VARIANTS``), so every input the benchmark can generate has stored
reference values in ``expected.json`` for the output checks. The same
seed always yields the same inputs; the program under test receives only
these generated inputs.
"""

from __future__ import annotations

import numpy as np

N_VARIANTS = 16

# scenario_w1 / scenario_whalf physics (paper Section 4): copper and PDMS
# cells in a steel plate around a copper obstacle, unit temperature drop
GEOMETRY = {"lx": 5.0, "ly": 8.0, "r_ring": 1.35, "r_obstacle": 0.4}
MATERIALS = {"cell_a": 386.0, "cell_b": 0.15, "exterior": 67.0, "obstacle": 386.0}
BOUNDARY = {"t_low": 0.0, "t_high": 1.0}

# optimization workloads: objective weight, cell resolution, macro element
# size; the iteration count per optimization run is set in spec.py
OPT_SETTINGS = {
    "opt_cell": {"w": 1.0, "cell_resolution": 64, "macro_h": 0.0625},
    "opt_macro": {"w": 0.5, "cell_resolution": 32, "macro_h": 0.015625},
}

# tiled validation: cell size, cell-field resolution, final transition
# width, insulating insert of the angle sweep (cloakopt sweep defaults)
EPSILON0 = 1.0 / 9.0
SWEEP_CELL_RESOLUTION = 64
SWEEP_D = 0.01
SWEEP_PSI = (0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)
SWEEP_OBSTACLE_K = 0.15
INITIAL_RADIUS = 0.25


def variant(seed: int) -> int:
    return int(seed) % N_VARIANTS


def disk_radius(seed: int) -> float:
    """Initial disk radius in [0.2, 0.3] for the optimization workloads."""
    return 0.2 + 0.1 * variant(seed) / (N_VARIANTS - 1)


def opt_config(workload: str, seed: int, iterations: int) -> dict:
    """Run configuration; the d = 0.2 -> 0.01 switch falls mid-run."""
    s = OPT_SETTINGS[workload]
    switch = iterations // 2 + 1
    return {
        "geometry": dict(GEOMETRY),
        "materials": dict(MATERIALS),
        "boundary": dict(BOUNDARY),
        "objective": {"w": s["w"]},
        "levelset": {
            "k_phi": 1.5, "tau": 2.0e-4, "dt": 0.1,
            "d_schedule": [[1, 0.2], [switch, 0.01]],
            "init": {"pattern": "disk", "radius": disk_radius(seed)},
        },
        "optimizer": {"max_iter": iterations},
        "mesh": {"macro_h": s["macro_h"], "cell_resolution": s["cell_resolution"]},
    }


def sweep_phis(nodes: np.ndarray, pairs: np.ndarray, seed: int) -> list[np.ndarray]:
    """Eight smooth random two-phase level-set fields on one cell mesh.

    Each field is an offset plus three products of periodic sinusoids
    (integer wave numbers 1..4, random phases), scaled into [-1, 1];
    periodic slave nodes copy their masters so the field is exactly
    periodic.
    """
    rng = np.random.default_rng([20230221, variant(seed)])
    x, y = nodes[:, 0], nodes[:, 1]
    phis = []
    for _ in range(8):
        g = np.full(len(nodes), rng.uniform(-0.3, 0.3))
        for _ in range(3):
            kx, ky = rng.integers(1, 5, size=2)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=2)
            g += rng.uniform(0.3, 1.0) * (np.sin(2 * np.pi * kx * x + ph[0])
                                          * np.sin(2 * np.pi * ky * y + ph[1]))
        g[pairs[:, 1]] = g[pairs[:, 0]]
        phis.append(g / np.abs(g).max())
    return phis
