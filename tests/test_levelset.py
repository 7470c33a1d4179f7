import csv
import dataclasses
import gc
import io
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cloakopt import fem
from cloakopt.geometry import (MacroGeometry, UnitCellGeometry, build_cell_mesh,
                               build_macro_mesh)
from cloakopt.levelset import (LevelSetField, ReactionDiffusionUpdater,
                               characteristic, initialize, mirror_nodes, read_phi_csv,
                               read_phi_field, write_phi_csv)
from cloakopt.validation import _mirrored
from conftest import SlotTable


def test_characteristic_anchor_values():
    assert characteristic(0.0, 0.2) == pytest.approx(0.5)
    assert characteristic(0.2, 0.2) == pytest.approx(1.0)
    assert characteristic(-0.2, 0.2) == pytest.approx(0.0)
    assert characteristic(0.1, 0.2) == pytest.approx(0.896484375, abs=1e-15)
    assert characteristic(5.0, 0.2) == 1.0
    assert characteristic(-5.0, 0.2) == 0.0


def test_characteristic_smooth_at_transition_edges():
    # C2 join: value and slope settle at the band edges
    d = 0.2
    eps = 1e-6
    assert characteristic(d - eps, d) == pytest.approx(1.0, abs=1e-15)
    assert characteristic(-d + eps, d) == pytest.approx(0.0, abs=1e-15)


def test_characteristic_monotone():
    x = np.linspace(-1.5, 1.5, 1001)
    y = characteristic(x, 0.3)
    assert np.all(np.diff(y) >= 0)
    assert y.min() == 0.0 and y.max() == 1.0


def test_characteristic_rejects_bad_width():
    with pytest.raises(ValueError):
        characteristic(0.0, 0.0)
    with pytest.raises(ValueError):
        characteristic(0.0, 1.5)


def test_initialize_disk(cell_mesh_32):
    f = initialize(cell_mesh_32, ("disk", 0.25), d=0.2)
    chi = f.chi_nodes()
    centre = np.flatnonzero((cell_mesh_32.nodes == 0.5).all(axis=1))[0]
    corner = 0
    assert chi[centre] == 0.0
    assert chi[corner] == 1.0
    # periodic partners carry equal values
    m, s = cell_mesh_32.periodic_pairs.T
    np.testing.assert_array_equal(f.phi[m], f.phi[s])


@pytest.mark.parametrize("n", [16, 18, 20, 32, 48, 64, 100])
def test_disk_seed_is_mirrored_at_every_resolution(n):
    """Eight disk seeds tile as a mirrored design at every resolution, and
    where rounding alone mirrors the clipped distance profile (16, 32 and
    64) the seed is that profile, bit for bit."""
    mesh = build_cell_mesh(UnitCellGeometry(n))
    seeds = [initialize(mesh, ("disk", 0.25), cell_index=l) for l in range(1, 9)]
    assert _mirrored(seeds)
    m, s = mesh.periodic_pairs.T
    np.testing.assert_array_equal(seeds[0].phi[m], seeds[0].phi[s])
    profile = np.clip((np.hypot(mesh.nodes[:, 0] - 0.5, mesh.nodes[:, 1] - 0.5) - 0.25) / 0.1,
                      -1.0, 1.0)
    if n in (16, 32, 64):
        assert seeds[0].phi.tobytes() == profile.tobytes()
    else:
        assert np.abs(seeds[0].phi - profile).max() <= 1e-14


def test_initialize_uniform(cell_mesh_32):
    f = initialize(cell_mesh_32, ("uniform", 1.0))
    assert np.all(f.chi_nodes() == 1.0)
    g = initialize(cell_mesh_32, ("uniform", -1.0))
    assert np.all(g.chi_nodes() == 0.0)


def test_initialize_unknown_pattern(cell_mesh_32):
    with pytest.raises(ValueError):
        initialize(cell_mesh_32, ("blob", 1))


def test_update_zero_reaction_zero_diffusion_is_identity(cell_mesh_32):
    f = initialize(cell_mesh_32, ("disk", 0.25))
    stepper = ReactionDiffusionUpdater(cell_mesh_32, k_phi=1.5, tau=0.0)
    out = stepper.step(f.phi, np.zeros_like(f.phi), dt=0.1)
    np.testing.assert_allclose(out, f.phi, atol=1e-14)


def test_update_pure_diffusion_contracts(cell_mesh_32):
    f = initialize(cell_mesh_32, ("disk", 0.25))
    stepper = ReactionDiffusionUpdater(cell_mesh_32, k_phi=1.5, tau=0.05)
    phi = f.phi.copy()
    a = fem.assemble_diffusion(
        cell_mesh_32, fem.isotropic_tensors(np.ones(cell_mesh_32.n_elements)),
        fem.Constraints.none(cell_mesh_32.n_nodes)).matrix
    prev_max = np.abs(phi).max()
    prev_energy = phi @ (a @ phi)
    for _ in range(5):
        phi = stepper.step(phi, np.zeros_like(phi), dt=0.5)
        assert np.abs(phi).max() <= prev_max + 1e-12
        energy = phi @ (a @ phi)
        assert energy <= prev_energy + 1e-12
        prev_max, prev_energy = np.abs(phi).max(), energy


def test_update_uniform_reaction_shifts_then_clamps(cell_mesh_32):
    f = initialize(cell_mesh_32, ("uniform", 1.0))
    f.phi *= 0.3
    stepper = ReactionDiffusionUpdater(cell_mesh_32, k_phi=2.0, tau=0.0)
    out = stepper.step(f.phi, np.full(cell_mesh_32.n_nodes, 1.5), dt=0.1)
    np.testing.assert_allclose(out, 0.3 - 0.1 * 2.0 * 1.5, atol=1e-14)
    out2 = stepper.step(f.phi, np.full(cell_mesh_32.n_nodes, 30.0), dt=0.1)
    np.testing.assert_allclose(out2, -1.0, atol=1e-14)   # clamped


def superlu_step(mesh, phi, jprime, k_phi, tau, dt):
    """Oracle: the step assembled on the periodic structure and factored by SuperLU."""
    on = SlotTable(mesh, fem.apply_periodic(fem.Constraints.none(mesh.n_nodes),
                                            mesh.periodic_pairs))
    ke = (fem.element_mass(mesh, lumped=True) + dt * k_phi * tau
          * fem.element_stiffness(mesh, fem.isotropic_tensors(np.ones(mesh.n_elements))))
    b = on.constraints.restrict(mesh.lumped_mass * (phi - dt * k_phi * jprime))
    x = spla.splu(on.matrix(ke).tocsc()).solve(b)
    return np.clip(on.constraints.expand(x), -1.0, 1.0)


@pytest.mark.parametrize("resolution", [16, 32, 64])
@pytest.mark.parametrize("tau", [0.0, 2e-4, 0.05])
def test_fft_step_matches_superlu(resolution, tau):
    mesh = build_cell_mesh(UnitCellGeometry(resolution))
    rng = np.random.default_rng(resolution)
    phi = np.clip(0.5 * rng.normal(size=mesh.n_nodes), -1.0, 1.0)
    jprime = rng.normal(size=mesh.n_nodes)
    stepper = ReactionDiffusionUpdater(mesh, k_phi=1.5, tau=tau)
    for dt in (1e-3, 0.1, 2.0):
        want = superlu_step(mesh, phi, jprime, 1.5, tau, dt)
        assert np.abs(stepper.step(phi, jprime, dt) - want).max() <= 1e-13


def test_step_factors_nothing(cell_mesh_32, monkeypatch):
    calls = []
    monkeypatch.setattr(fem, "Factorization", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: calls.append(a))
    f = initialize(cell_mesh_32, ("disk", 0.25))
    stepper = ReactionDiffusionUpdater(cell_mesh_32, k_phi=1.5, tau=2e-4)
    zero = np.zeros(cell_mesh_32.n_nodes)
    for dt in (0.1, 0.1, 0.05, 0.1):
        stepper.step(f.phi, zero, dt)
    assert calls == []


def test_non_finite_reaction_fails_the_residual_contract(cell_mesh_32):
    f = initialize(cell_mesh_32, ("disk", 0.25))
    jprime = np.zeros(cell_mesh_32.n_nodes)
    jprime[7] = np.nan
    stepper = ReactionDiffusionUpdater(cell_mesh_32, k_phi=1.5, tau=2e-4)
    with pytest.raises(fem.SolverError):
        stepper.step(f.phi, jprime, 0.1)


def test_step_on_a_mesh_off_its_symbol_fails_the_residual_contract(cell_mesh_32):
    """One quad's diagonal flipped: the mesh passes the grid checks, but its
    mass and Laplacian leave the FFT's symbol, and the residual against the
    assembled operators catches it."""
    n = 32
    elements = cell_mesh_32.elements.copy()
    q = 5 * n + 8                                      # quad (5, 8): an odd one
    n00, n01, n10, n11 = (q // n) * (n + 1) + q % n + np.array([0, 1, n + 1, n + 2])
    elements[2 * q], elements[2 * q + 1] = [n00, n10, n11], [n00, n11, n01]
    mesh = dataclasses.replace(cell_mesh_32, elements=elements)
    stepper = ReactionDiffusionUpdater(mesh, k_phi=1.5, tau=2e-4)
    phi = initialize(mesh, ("disk", 0.25)).phi
    with pytest.raises(fem.SolverError, match="residual"):
        stepper.step(phi, np.zeros(mesh.n_nodes), 0.1)


def test_updater_rejects_meshes_off_the_periodic_grid(cell_mesh_32):
    g = MacroGeometry(lx=1.0, ly=2.0, r_ring=0.45, r_obstacle=0.05)
    with pytest.raises(ValueError, match="periodic cell mesh"):
        ReactionDiffusionUpdater(build_macro_mesh(g, 0.125, allow_oversize=True), 1.5, 2e-4)
    nodes = cell_mesh_32.nodes.copy()
    nodes[40] += 1e-3
    with pytest.raises(ValueError, match="structured grid"):
        ReactionDiffusionUpdater(dataclasses.replace(cell_mesh_32, nodes=nodes), 1.5, 2e-4)


def test_update_preserves_periodicity(cell_mesh_32):
    f = initialize(cell_mesh_32, ("disk", 0.25))
    rng = np.random.default_rng(0)
    jp = rng.normal(size=cell_mesh_32.n_nodes)
    # make the reaction itself periodic, as produced by the sensitivity path
    m, s = cell_mesh_32.periodic_pairs.T
    jp[s] = jp[m]
    stepper = ReactionDiffusionUpdater(cell_mesh_32, k_phi=1.5, tau=2e-4)
    out = stepper.step(f.phi, jp, dt=0.1)
    np.testing.assert_array_equal(out[m], out[s])
    assert out.min() >= -1.0 and out.max() <= 1.0


def per_row_csv(field) -> bytes:
    """The checkpoint of one cell written one row at a time by the csv
    module, whose rows are the file format."""
    per_row = io.StringIO(newline="")
    writer = csv.writer(per_row)
    writer.writerow(["node_index", "y1", "y2", "phi"])
    for i, ((y1, y2), p) in enumerate(zip(field.mesh.nodes, field.phi)):
        writer.writerow([i, f"{y1:.17g}", f"{y2:.17g}", f"{p:.17g}"])
    return per_row.getvalue().encode()


def test_checkpoint_round_trip(tmp_path, cell_mesh_32):
    """Two checkpoints on one mesh with different phi, and one on a second
    mesh in between, each match the per-row reference and read back bit
    for bit. The template a mesh caches is a plain string, so the second
    mesh is freed without the cycle collector."""
    rng = np.random.default_rng(5)
    f = initialize(cell_mesh_32, ("disk", 0.25))
    f.phi = np.clip(f.phi + 1e-3 * rng.normal(size=f.phi.shape), -1, 1)
    gc.disable()
    try:
        other = initialize(build_cell_mesh(UnitCellGeometry(16)), ("disk", 0.3))
        g = dataclasses.replace(f, phi=rng.normal(size=f.phi.shape) * 10.0 ** rng.integers(
            -20, 20, size=f.phi.shape))
        for i, field in enumerate([f, other, g]):
            path = tmp_path / f"cell_{i}.csv"
            write_phi_csv(field, path)
            assert path.read_bytes() == per_row_csv(field)
            coords, phi = read_phi_csv(path)
            np.testing.assert_array_equal(phi, field.phi)          # bit round-trip
            np.testing.assert_array_equal(coords, field.mesh.nodes)
        assert other.mesh.cache
        released = weakref.ref(other.mesh)
        del other, field
        assert released() is None
    finally:
        gc.enable()
    reloaded = initialize(cell_mesh_32, ("file", tmp_path / "cell_0.csv"))
    np.testing.assert_array_equal(reloaded.phi, f.phi)


def test_read_phi_field_rebuilds_or_checks_the_cell_mesh(tmp_path, cell_mesh_32):
    f = initialize(cell_mesh_32, ("disk", 0.3), cell_index=4)
    path = tmp_path / "cell.csv"
    write_phi_csv(f, path)
    rebuilt = read_phi_field(path, cell_index=4, d=0.05)
    np.testing.assert_array_equal(rebuilt.mesh.nodes, cell_mesh_32.nodes)
    np.testing.assert_array_equal(rebuilt.phi, f.phi)
    assert (rebuilt.cell_index, rebuilt.d) == (4, 0.05)
    assert read_phi_field(path, cell_mesh_32).mesh is cell_mesh_32
    with pytest.raises(ValueError, match="do not match"):
        read_phi_field(path, build_cell_mesh(UnitCellGeometry(16)))
    shifted = dataclasses.replace(f, mesh=dataclasses.replace(
        cell_mesh_32, nodes=cell_mesh_32.nodes + 1e-3))
    write_phi_csv(shifted, path)
    with pytest.raises(ValueError, match="do not match"):
        read_phi_field(path)


def test_mirror_nodes_reflect_the_cell_and_its_triangles(cell_mesh_32):
    m = mirror_nodes(cell_mesh_32)
    nodes = cell_mesh_32.nodes
    np.testing.assert_allclose(nodes[m], np.column_stack([1.0 - nodes[:, 0], nodes[:, 1]]),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(m[m], np.arange(cell_mesh_32.n_nodes))

    def triangles(elements):
        return {tuple(sorted(t)) for t in elements.tolist()}
    assert triangles(m[cell_mesh_32.elements]) == triangles(cell_mesh_32.elements)
    assert mirror_nodes(cell_mesh_32) is m
