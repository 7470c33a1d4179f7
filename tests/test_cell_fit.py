"""One unit cell fitted to a target tensor by the optimizer's own cell step.

The cell's objective is its misfit to a fixed target K_t,
J = |K_t^(-1/2) (K* - K_t) K_t^(-1/2)|_F^2, whose derivative
dJ/dK* = 2 K_t^(-1) (K* - K_t) K_t^(-1) is explicit. So
:func:`optimizer.cell_step` (reaction term, move limiter, 1/sqrt(k)
factor, FFT level-set step) runs with no macro solve: inverse
homogenization (Sigmund, "Materials with prescribed constitutive
parameters: an inverse homogenization problem", IJSS 31, 1994) driven by
the paper's step. The fit is a record, not a gate: it asserts that J stays
finite, that every homogenization passes its tensor guard and that phi
stays in [-1, 1], and prints the final J, K* and volume fraction
(``pytest -s``).
"""

import dataclasses
from pathlib import Path

import numpy as np

from cloakopt import config, homogenization, levelset, optimizer
from cloakopt.geometry import UnitCellGeometry, build_cell_mesh

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "scenario_w1.json"
RESOLUTION = 32
WIDTH = 0.2
ITERATIONS = 20


def laminate(fraction: float, direction, k_a: float, k_b: float) -> np.ndarray:
    """Rank-1 laminate of phase a at volume fraction ``fraction``, layers
    along ``direction``: the arithmetic mean along them, the harmonic
    mean across."""
    t = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    n = np.array([-t[1], t[0]])
    along = fraction * k_a + (1.0 - fraction) * k_b
    across = 1.0 / (fraction / k_a + (1.0 - fraction) / k_b)
    return along * np.outer(t, t) + across * np.outer(n, n)


def misfit(k: np.ndarray, target: np.ndarray):
    """J and dJ/dK* of the scaled Frobenius misfit to ``target``."""
    values, vectors = np.linalg.eigh(target)
    inv_sqrt = vectors @ np.diag(values ** -0.5) @ vectors.T
    inv = inv_sqrt @ inv_sqrt
    diff = k - target
    return float(np.sum((inv_sqrt @ diff @ inv_sqrt) ** 2)), 2.0 * inv @ diff @ inv


def test_cell_fit_to_the_45_degree_laminate_record():
    sc = dataclasses.replace(config.parse_config(CONFIG).scenario,
                             d_schedule=((1, WIDTH),), cell_resolution=RESOLUTION)
    mesh = build_cell_mesh(UnitCellGeometry(RESOLUTION))
    phi = sc.initial_phis(mesh)[0].phi
    target = laminate(0.35, (1, 1), sc.k_cell_a, sc.k_cell_b)
    for it in range(1, ITERATIONS + 1):
        mat = homogenization.material_from_levelset(levelset.LevelSetField(phi=phi, mesh=mesh),
                                                    sc.k_cell_a, sc.k_cell_b, WIDTH)
        # homogenize raises SolverError unless K* is SPD within the Voigt-Reuss bounds
        cell = (mat, *homogenization.homogenize(mesh, mat))
        j, dj_dk = misfit(cell[1].matrix, target)
        assert np.isfinite(j)
        if it < ITERATIONS:
            [phi] = optimizer.cell_step(mesh, sc, [dj_dk], [cell], [phi], WIDTH, it)
            assert -1.0 <= phi.min() and phi.max() <= 1.0
    t = cell[1]
    print(f"\ncell fit to the f=0.35 (1,1) laminate after {ITERATIONS} iterations: "
          f"J={j:.4g}, K*=({t.k11:.4g}, {t.k12:.4g}, {t.k22:.4g}), "
          f"volume fraction {mat.volume_fraction(mesh):.4g}")
