import csv
import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from cloakopt import cli, levelset, macro_solver, validation, vtkio
from cloakopt.config import _SCHEMA, ConfigError, build_config, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def schema_keys() -> list[str]:
    return [f"{name}.{key}" for name, spec in _SCHEMA.items()
            for key in (*spec["required"], *spec["optional"])]


def small_raw(**tweaks) -> dict:
    raw = json.loads((CONFIG_DIR / "scenario_w1.json").read_text())
    raw["optimizer"]["max_iter"] = 3
    raw["mesh"] = {"macro_h": 0.25, "cell_resolution": 16}
    for section, values in tweaks.items():
        raw.setdefault(section, {}).update(values)
    return raw


def small_config(tmp_path, **tweaks):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_raw(**tweaks)))
    return path


def test_bundled_configs_parse():
    for name in ("scenario_w1", "scenario_whalf", "scenario_appendixB"):
        cfg = parse_config(CONFIG_DIR / f"{name}.json")
        assert cfg.scenario.max_iter == 150
        assert cfg.scenario.d_schedule == ((1, 0.2), (71, 0.01))
    app_b = parse_config(CONFIG_DIR / "scenario_appendixB.json")
    assert app_b.scenario.objective_mode == "normalized"
    assert app_b.scenario.normalization_fill == pytest.approx(0.15)


def test_unknown_key_rejected(tmp_path):
    path = small_config(tmp_path, geometry={"radius": 1.0})
    with pytest.raises(ConfigError, match="unknown key geometry.radius"):
        parse_config(path)


def test_missing_required_key(tmp_path):
    raw = json.loads((CONFIG_DIR / "scenario_w1.json").read_text())
    del raw["materials"]["exterior"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="materials.exterior"):
        parse_config(path)


def test_config_error_exit_code(tmp_path, capsys):
    path = small_config(tmp_path, geometry={"bogus": 1.0})
    rc = cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def optimize_exit_code(tmp_path, path, *flags):
    return cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "o"),
                     *flags])


def test_n_sectors_key_rejected(tmp_path, capsys):
    path = small_config(tmp_path, geometry={"n_sectors": 8})
    assert optimize_exit_code(tmp_path, path) == 2
    assert "geometry.n_sectors" in capsys.readouterr().err


def test_sensitivity_vtk_key_rejected(tmp_path, capsys):
    """Every run writes its VTK files, so there is no export section."""
    path = small_config(tmp_path, export={"sensitivity_vtk": True})
    assert optimize_exit_code(tmp_path, path) == 2
    assert "unknown section 'export'" in capsys.readouterr().err


@pytest.mark.parametrize("tweaks, message", [
    ({"export": {"vtk": False}}, "unknown section 'export'"),
    ({"export": {"tensor_csv": False}}, "unknown section 'export'"),
    ({"geometry": {"allow_oversize": True}}, "unknown key geometry.allow_oversize"),
], ids=["export.vtk", "export.tensor_csv", "geometry.allow_oversize"])
def test_removed_config_key_exit_code(tmp_path, capsys, tweaks, message):
    path = small_config(tmp_path, **tweaks)
    assert optimize_exit_code(tmp_path, path) == 2
    assert message in capsys.readouterr().err


def test_oversize_ring_exit_code(tmp_path, capsys):
    """The ring-fits-in-domain check always runs for a configured scenario."""
    path = small_config(tmp_path, geometry={"r_ring": 3.0})
    assert optimize_exit_code(tmp_path, path) == 2
    assert "design ring extends past the domain" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("validate", ["--psi", "0"]), ("validate", ["--obstacle-k", "0.15"]),
    ("validate", ["--config", "c.json"]), ("sweep", ["--config", "c.json"]),
], ids=["validate-psi", "validate-obstacle-k", "validate-config", "sweep-config"])
def test_removed_flag_exit_code(tmp_path, capsys, command, flag):
    """validate reads the config optimize copied into the run directory,
    and cloakopt sweep is the one path to an obstacle sweep."""
    run = str(tmp_path) if command == "validate" else f"r={tmp_path}"
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--run", run, "--out", str(tmp_path / "o"), *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("tweaks, message", [
    ({"objective": {"mode": "normalized", "w": 0.5},
      "materials": {"normalization_fill": 0.15}}, "objective.w must be 1"),
    ({"materials": {"normalization_fill": 0.15}},
     "materials.normalization_fill is read only under objective.mode normalized"),
], ids=["normalized-w", "standard-normalization_fill"])
def test_key_the_mode_ignores_exit_code(tmp_path, capsys, tweaks, message):
    """Normalized mode optimizes J1 over the fill's J1 alone; standard mode
    never solves the fill. Either key would be read and then ignored."""
    path = small_config(tmp_path, **tweaks)
    assert optimize_exit_code(tmp_path, path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "history.csv").exists()


@pytest.mark.parametrize("schedule, message", [
    ([[1, 0.2], [71, 0.01], [50, 0.1]], "strictly increasing"),
    ([[1, 0.2], [70.7, 0.01]], "expected an integer"),
])
def test_bad_d_schedule_exit_code(tmp_path, capsys, schedule, message):
    path = small_config(tmp_path, levelset={"d_schedule": schedule})
    assert optimize_exit_code(tmp_path, path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("init, message", [
    ({"pattern": "disk", "radius": True}, "levelset.init.radius: expected a number"),
    ({"pattern": "disk", "radius": "0.3"}, "levelset.init.radius: expected a number"),
    ({"pattern": "uniform", "sign": "-1"}, "levelset.init.sign: expected a number"),
    ({"pattern": "uniform", "sign": False}, "levelset.init.sign: expected a number"),
    ({"pattern": "uniform", "sign": 0}, "levelset.init.sign must be nonzero"),
    ({"pattern": "file", "path": 5}, "levelset.init.path: expected a string"),
], ids=["radius-bool", "radius-str", "sign-str", "sign-bool", "sign-zero", "path-int"])
def test_bad_init_value_exit_code(tmp_path, capsys, init, message):
    path = small_config(tmp_path, levelset={"init": init})
    assert optimize_exit_code(tmp_path, path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("levelset", "tau", float("nan")),
    ("levelset", "tau", float("inf")),
    ("levelset", "k_phi", float("nan")),
    ("levelset", "k_phi", float("inf")),
    ("levelset", "dt", float("nan")),
    ("mesh", "macro_h", float("nan")),
    ("levelset", "dt", 10 ** 400),
], ids=["tau-nan", "tau-inf", "k_phi-nan", "k_phi-inf", "dt-nan", "macro_h-nan",
        "dt-int-beyond-float"])
def test_non_finite_number_exit_code(tmp_path, capsys, section, key, value):
    """json reads NaN, Infinity and integers beyond the float range; they
    are rejected by key before any solve."""
    path = small_config(tmp_path, **{section: {key: value}})
    assert optimize_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}: expected a finite number" in err
    assert not (tmp_path / "o" / "history.csv").exists()


def test_odd_cell_resolution_exit_code(tmp_path, capsys):
    path = small_config(tmp_path, mesh={"cell_resolution": 17})
    assert optimize_exit_code(tmp_path, path) == 2
    assert "cell_resolution must be even" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("mesh", "cell_resolution", 8, "mesh.cell_resolution must be at least 16"),
    ("mesh", "cell_resolution", 0, "mesh.cell_resolution must be at least 16"),
    ("mesh", "macro_h", 2.0, "mesh.macro_h 2.0 leaves fewer than 2 elements"),
    ("mesh", "macro_h", 0.5, "mesh.macro_h 0.5 leaves fewer than 2 elements"),
    ("mesh", "macro_h", 0.0, "mesh.macro_h must be positive"),
    ("mesh", "macro_h", -0.1, "mesh.macro_h must be positive"),
    ("mesh", "macro_h", 0.2, "mesh.macro_h 0.2 gives 25 divisions across geometry.lx 5.0"),
    ("levelset", "init", {"pattern": "disk", "radius": -0.3}, "levelset.init.radius must lie"),
    ("levelset", "init", {"pattern": "disk", "radius": 0.0}, "levelset.init.radius must lie"),
    ("levelset", "init", {"pattern": "disk", "radius": 5.0}, "levelset.init.radius must lie"),
    ("levelset", "init", {"pattern": "disk", "radius": 0.7072}, "levelset.init.radius must lie"),
    ("geometry", "r_obstacle", 0.0, "geometry.r_obstacle must be positive"),
    ("objective", "mode", "weighted",
     "objective.mode must be standard|normalized, got 'weighted'"),
], ids=["cell_resolution-8", "cell_resolution-0", "macro_h-2", "macro_h-0.5", "macro_h-0",
        "macro_h-negative", "macro_h-odd-divisions", "radius-negative", "radius-0", "radius-5",
        "radius-past-corner", "r_obstacle-0", "mode-unknown"])
def test_bad_mesh_or_disk_exit_code(tmp_path, capsys, section, key, value, message):
    """Rejected by key when the config is parsed, before the run directory
    is made."""
    path = small_config(tmp_path, **{section: {key: value}})
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(path)
    assert optimize_exit_code(tmp_path, path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, value", [
    ("geometry", 5), ("geometry", None), ("geometry", 3.5), ("geometry", True),
    ("geometry", "lx"), ("optimizer", []),
], ids=["int", "null", "float", "bool", "string", "empty-list"])
def test_section_that_is_not_an_object_exit_code(tmp_path, capsys, section, value):
    """A section must be a JSON object; anything else is refused by the
    section's name, not read key by key or accepted as empty."""
    raw = small_raw()
    raw[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    message = f"section {section!r} must be an object, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(path)
    assert optimize_exit_code(tmp_path, path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_largest_disk_inside_the_cell_is_accepted(tmp_path):
    path = small_config(tmp_path, levelset={"init": {"pattern": "disk", "radius": 0.707}})
    assert parse_config(path).scenario.init == ("disk", 0.707)


def test_checkpoint_every_below_one_exit_code(tmp_path, capsys):
    path = small_config(tmp_path)
    assert optimize_exit_code(tmp_path, path, "--checkpoint-every", "0") == 2
    assert "checkpoint_every" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_code(tmp_path, capsys, threads):
    path = small_config(tmp_path)
    assert optimize_exit_code(tmp_path, path, "--threads", threads) == 2
    assert "threads must be at least 1" in capsys.readouterr().err


def test_normalization_fill_equal_to_both_fills_exit_code(tmp_path, capsys):
    path = small_config(tmp_path, objective={"mode": "normalized"},
                        materials={"obstacle": 67.0, "normalization_fill": 67.0})
    with pytest.raises(ConfigError, match="coincides with the reference"):
        parse_config(path)
    assert optimize_exit_code(tmp_path, path) == 2
    assert "coincides with the reference" in capsys.readouterr().err


def test_early_stop_key_exit_code(tmp_path, capsys):
    path = small_config(tmp_path, optimizer={"early_stop": True})
    assert optimize_exit_code(tmp_path, path) == 2
    assert "unknown key optimizer.early_stop" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"geometry": {,}}')
    with pytest.raises(ConfigError, match="line"):
        parse_config(path)


def test_defaults_are_reported(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    text = cfg.describe()
    assert "objective.mode = standard  (default)" in text
    assert "objective.w = 1.0" in text
    keys = [line.split(" = ")[0].strip() for line in text.splitlines()[1:]]
    assert sorted(keys) == sorted(schema_keys())


# one alternative valid value per schema key ("section.key": changes to the
# small config), with the companion keys its objective mode needs
ALTERNATIVES = {
    "geometry.lx": {"geometry.lx": 6.0},
    "geometry.ly": {"geometry.ly": 9.0},
    "geometry.r_ring": {"geometry.r_ring": 1.5},
    "geometry.r_obstacle": {"geometry.r_obstacle": 0.5},
    "materials.cell_a": {"materials.cell_a": 300.0},
    "materials.cell_b": {"materials.cell_b": 0.2},
    "materials.exterior": {"materials.exterior": 60.0},
    "materials.obstacle": {"materials.obstacle": 300.0},
    "materials.normalization_fill": {"materials.normalization_fill": 0.3,
                                     "objective.mode": "normalized"},
    "boundary.t_low": {"boundary.t_low": -1.0},
    "boundary.t_high": {"boundary.t_high": 2.0},
    "objective.w": {"objective.w": 0.5},
    "objective.mode": {"objective.mode": "normalized",
                       "materials.normalization_fill": 0.15},
    "levelset.k_phi": {"levelset.k_phi": 2.0},
    "levelset.tau": {"levelset.tau": 1.0e-3},
    "levelset.dt": {"levelset.dt": 0.05},
    "levelset.d_schedule": {"levelset.d_schedule": [[1, 0.2], [3, 0.01]]},
    "levelset.init": {"levelset.init": {"pattern": "uniform", "sign": -1.0}},
    "optimizer.max_iter": {"optimizer.max_iter": 4},
    "mesh.macro_h": {"mesh.macro_h": 0.125},
    "mesh.cell_resolution": {"mesh.cell_resolution": 32},
}


def with_changes(changes: dict) -> dict:
    tweaks: dict = {}
    for dotted, value in changes.items():
        section, key = dotted.split(".")
        tweaks.setdefault(section, {})[key] = value
    return small_raw(**tweaks)


def test_alternatives_cover_the_schema():
    assert sorted(ALTERNATIVES) == sorted(schema_keys())


@pytest.mark.parametrize("key", sorted(ALTERNATIVES))
def test_every_config_key_is_read(key):
    """Each key's alternative value changes the parsed scenario, and its
    companion keys alone do not give that scenario."""
    changes = ALTERNATIVES[key]
    base = build_config(small_raw()).scenario
    changed = build_config(with_changes(changes)).scenario
    assert changed != base
    companions = {k: v for k, v in changes.items() if k != key}
    try:
        assert build_config(with_changes(companions)).scenario != changed
    except ConfigError:
        pass        # the companions need the key, as the mode rules require


def test_optimize_command_end_to_end(tmp_path, capsys):
    path = small_config(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["optimize", "--config", str(path), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "resolved configuration" in printed
    assert (out / "history.csv").exists()
    assert (out / "tensors.csv").exists()
    assert (out / "final" / "state.json").exists()
    assert (out / "macro_fields.vtk").exists()
    assert (out / "config.json").exists()
    header = (out / "tensors.csv").read_text().splitlines()[0]
    assert header == "l,K11,K12,K22,Kbar1,Kbar2,theta"


def test_homogenize_command(tmp_path, capsys):
    path = small_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["homogenize", "--phi", str(out / "final" / "cell_1.csv"),
                   "--k-a", "386", "--k-b", "0.15", "--d", "0.2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "K* =" in text and "theta" in text


def test_homogenize_uniform_isotropic(tmp_path, capsys):
    from cloakopt import levelset as ls
    from cloakopt.geometry import UnitCellGeometry, build_cell_mesh
    mesh = build_cell_mesh(UnitCellGeometry(16))
    f = ls.initialize(mesh, ("uniform", 1.0))
    ls.write_phi_csv(f, tmp_path / "phi.csv")
    rc = cli.main(["homogenize", "--phi", str(tmp_path / "phi.csv"),
                   "--k-a", "386", "--k-b", "0.15"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Kbar1 = 386" in out
    assert "theta = 0" in out


def test_validate_command(tmp_path, capsys):
    path = small_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    rc = cli.main(["validate", "--run", str(out), "--epsilon0", "0.25"])
    assert rc == 0
    report = (out / "validation" / "report.csv").read_text().splitlines()
    assert report[0] == "quantity,initial,final,ratio"
    assert (out / "validation" / "tiled.vtk").exists()


def test_validate_tiles_each_design_once(short_run, tmp_path, monkeypatch):
    """cloakopt validate tiles the initial and the final design once each,
    and its tiled.vtk and report.csv are byte for byte those written from
    the final design's own evaluate_tiled, tiling and reference ramp."""
    tilings = []
    tile = validation.tile_conductivity
    monkeypatch.setattr(validation, "tile_conductivity",
                        lambda *a, **kw: tilings.append(a) or tile(*a, **kw))
    out = tmp_path / "validation"
    assert cli.main(["validate", "--run", str(short_run), "--epsilon0", "0.25",
                     "--out", str(out)]) == 0
    assert len(tilings) == 2
    monkeypatch.undo()

    cfg, state = cli._load_run(short_run)
    spec = cli._tiling_from(cfg, state.phis, 0.25)
    mesh = validation.fine_mesh(spec)
    j1_init, j2_init, _ = validation.evaluate_tiled(
        cli._tiling_from(cfg, cfg.scenario.initial_phis(), 0.25), mesh)
    j1, j2, temp = validation.evaluate_tiled(spec, mesh)
    reference = macro_solver.reference_field(mesh, spec.bc)
    vtkio.write_vtk(tmp_path / "want.vtk", mesh,
                    point_data={"T": temp, "T_sub": temp - reference},
                    cell_data={"conductivity": validation.tile_conductivity(spec, mesh)})
    assert (out / "tiled.vtk").read_bytes() == (tmp_path / "want.vtk").read_bytes()
    assert (out / "report.csv").read_text().splitlines() == [
        "quantity,initial,final,ratio",
        f"J1,{j1_init:.10g},{j1:.10g},{j1 / j1_init:.10g}",
        f"J2,{j2_init:.10g},{j2:.10g},{j2 / j2_init:.10g}"]


def test_sweep_command(tmp_path, capsys):
    path = small_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    table = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--run", f"short={out}", "--psi", "0,180",
                   "--epsilon0", "0.25", "--out", str(table)])
    assert rc == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "design,psi,J1,J1_ratio"
    assert len(lines) == 3


def test_resume_flag_continues(tmp_path, capsys):
    path = small_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    longer = small_config(tmp_path, optimizer={"max_iter": 5})
    longer_out = tmp_path / "run"
    rc = cli.main(["optimize", "--config", str(longer), "--out", str(longer_out),
                   "--resume"])
    assert rc == 0
    rows = (out / "history.csv").read_text().splitlines()
    assert len(rows) == 1 + 5


def test_resume_with_the_runs_own_config(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(small_config(tmp_path)), "--out", str(out)]) == 0
    own = out / "config.json"
    raw = json.loads(own.read_text())
    raw["optimizer"]["max_iter"] = 5
    own.write_text(json.dumps(raw))
    assert cli.main(["optimize", "--config", str(own), "--out", str(out), "--resume"]) == 0
    assert "(iteration 3)" in capsys.readouterr().out
    assert len((out / "history.csv").read_text().splitlines()) == 1 + 5
    assert json.loads(own.read_text()) == raw


def test_resume_between_checkpoints_writes_each_row_once(tmp_path, capsys):
    """A run stopped after the row of an iteration past its last checkpoint
    resumes to the history of the uninterrupted run."""
    path = small_config(tmp_path)
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    flags = ["--config", str(path), "--checkpoint-every", "2"]
    assert cli.main(["optimize", *flags, "--out", str(whole)]) == 0
    shutil.copytree(whole, cut)
    shutil.rmtree(cut / "checkpoints" / "iter_0003")
    shutil.rmtree(cut / "final")
    assert cli.main(["optimize", *flags, "--out", str(cut), "--resume"]) == 0
    assert "(iteration 2)" in capsys.readouterr().out

    def table(run):
        with (run / "history.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "wall_ms"
        return [row[:-1] for row in rows]

    assert [row[0] for row in table(cut)] == ["iter", "1", "2", "3"]
    assert table(cut) == table(whole)


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("short")
    out = tmp / "run"
    assert cli.main(["optimize", "--config", str(small_config(tmp)), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("flags", [["--psi", "nan"], ["--psi", "0,inf"],
                                   ["--psi", "0", "--obstacle-k", "nan"],
                                   ["--psi", "0", "--obstacle-k", "0"]])
@pytest.mark.parametrize("command", ["sweep"])
def test_bad_obstacle_exit_code(short_run, tmp_path, capsys, command, flags):
    """A non-finite angle or a non-positive or non-finite insert
    conductivity is a configuration error of the one sweeping command."""
    out = tmp_path / "sweep.csv"
    rc = cli.main([command, "--run", f"short={short_run}", "--epsilon0", "0.25",
                   "--out", str(out), *flags])
    assert rc == 2
    assert "obstacle" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_bad_epsilon0_exit_code(short_run, tmp_path, capsys, value):
    out = tmp_path / "validation"
    rc = cli.main(["validate", "--run", str(short_run), "--epsilon0", value,
                   "--out", str(out)])
    assert rc == 2
    assert "epsilon0" in capsys.readouterr().err
    assert not out.exists()


def missing_path_reported(capsys, path) -> bool:
    err = capsys.readouterr().err.strip().splitlines()
    return err[-1].startswith("missing input") and str(path) in err[-1]


def test_resume_without_checkpoint_exit_code(tmp_path, capsys):
    path = small_config(tmp_path)
    assert optimize_exit_code(tmp_path, path, "--resume") == 2
    assert missing_path_reported(capsys, tmp_path / "o" / "final")


def test_homogenize_missing_phi_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    rc = cli.main(["homogenize", "--phi", str(missing), "--k-a", "386", "--k-b", "0.15"])
    assert rc == 2
    assert missing_path_reported(capsys, missing)


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_run_without_final_exit_code(short_run, tmp_path, capsys, command):
    run = tmp_path / "run"
    run.mkdir()
    shutil.copyfile(short_run / "config.json", run / "config.json")
    flags = (["--run", str(run)] if command == "validate"
             else ["--run", f"short={run}", "--out", str(tmp_path / "sweep.csv")])
    assert cli.main([command, *flags, "--epsilon0", "0.25"]) == 2
    assert missing_path_reported(capsys, run / "final")


def test_resume_picks_the_latest_checkpoint_by_iteration(short_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    saved = run / "checkpoints"
    (saved / "iter_0003").rename(saved / "iter_10000")
    (saved / "iter_9999").mkdir()          # after iter_10000 as a string; holds no state
    rc = cli.main(["optimize", "--config", str(small_config(tmp_path)), "--out", str(run),
                   "--resume"])
    assert rc == 0
    assert f"resuming from {saved / 'iter_10000'} (iteration 3)" in capsys.readouterr().out


def test_resume_of_an_unmirrored_checkpoint_exit_code(short_run, tmp_path, capsys):
    """Cells 5-8 of a checkpoint must be the reflections of cells 1-4, as
    this version writes them; one of 8 independent cells is refused by name."""
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    path = run / "checkpoints" / "iter_0003" / "cell_7.csv"
    f = levelset.read_phi_field(path)
    f.phi[f.mesh.n_nodes // 2] += 1e-12
    levelset.write_phi_csv(f, path)
    rc = cli.main(["optimize", "--config", str(small_config(tmp_path, optimizer={"max_iter": 5})),
                   "--out", str(run), "--resume"])
    assert rc == 2
    assert "cell 7 is not the reflection of cell 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_zero_obstacle_radius_of_a_run_exit_code(short_run, tmp_path, capsys, command):
    """A run whose config has no shielded region is refused by key when
    validate or sweep parse it, before anything is tiled."""
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    (run / "config.json").write_text(json.dumps(small_raw(geometry={"r_obstacle": 0.0})))
    flags = (["--run", str(run)] if command == "validate"
             else ["--run", f"short={run}", "--out", str(tmp_path / "sweep.csv")])
    assert cli.main([command, *flags, "--epsilon0", "0.25"]) == 2
    assert "geometry.r_obstacle must be positive" in capsys.readouterr().err


def test_sweep_of_an_insert_disk_without_elements_exit_code(short_run, tmp_path, capsys):
    """A run whose sweep insert holds no fine-mesh element is a
    configuration error, reported before anything is solved."""
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    (run / "config.json").write_text(json.dumps(small_raw(geometry={"r_obstacle": 0.04})))
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--run", f"short={run}", "--epsilon0", "0.25", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(r_obstacle = 0.04 m) holds no element of the fine mesh (0.03125 m elements)" in err
    assert not out.exists()


def test_sweep_of_a_repeated_run_name_exit_code(short_run, tmp_path, capsys):
    """Two designs under one --run name are refused by that name, before
    anything is solved, rather than the second replacing the first."""
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--run", f"a={short_run}", "--run", f"a={short_run}",
                   "--epsilon0", "0.25", "--out", str(out)])
    assert rc == 2
    assert "--run name 'a' is given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tweaks, named", [
    ({"materials": {"exterior": 30.0}}, "materials.exterior is 30.0, the first run's 67.0"),
    ({"levelset": {"d_schedule": [[1, 0.2], [3, 0.1]]}},
     "levelset.d_schedule at optimizer.max_iter is 0.1, the first run's 0.2"),
], ids=["exterior", "final-width"])
def test_sweep_of_runs_on_other_initial_tilings_exit_code(short_run, tmp_path, capsys,
                                                           tweaks, named):
    """Every J1_ratio of a sweep divides by the first run's initial tiling,
    so a run whose config tiles another initial plate is refused by its
    --run name and the first key that differs, before anything is solved."""
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    (run / "config.json").write_text(json.dumps(small_raw(**tweaks)))
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--run", f"a={short_run}", "--run", f"b={run}",
                   "--epsilon0", "0.25", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--run 'b' does not share the first run's initial tiling" in err and named in err
    assert not out.exists()


def test_sweep_of_runs_on_one_initial_tiling(short_run, tmp_path, capsys):
    """Runs whose configs differ only outside the initial tiling (here the
    objective weight and the iteration count) share one J1_init."""
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    (run / "config.json").write_text(json.dumps(
        small_raw(objective={"w": 0.5}, optimizer={"max_iter": 4})))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--run", f"a={short_run}", "--run", f"b={run}", "--psi", "0",
                     "--epsilon0", "0.25", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["design", "a", "b"]


@pytest.mark.parametrize("corrupt, named", [
    (lambda payload: payload.pop("tensors"), "missing key 'tensors'"),
    (lambda payload: payload.pop("history"), "missing key 'history'"),
    (lambda payload: payload["tensors"][0].pop("k12"), "'k12'"),
    (lambda payload: payload["history"][0].update(speed=1.0), "'speed'"),
    (lambda payload: payload.update(iteration="2"), "'iteration'"),
    (lambda payload: payload.update(iteration=2.5), "'iteration'"),
    (lambda payload: payload.update(j1_init=None), "'j1_init'"),
    (lambda payload: payload.update(d=payload["d"][:1]), "'d'"),
    (lambda payload: payload["history"][0].update(j1="x"), "'history[0].j1'"),
    (lambda payload: payload["history"][1].update(iteration=2.0), "'history[1].iteration'"),
    (lambda payload: payload["tensors"].append(payload["tensors"][0]), "'tensors'"),
    (lambda payload: payload["tensors"].pop(), "'tensors'"),
    (lambda payload: payload.update(history=[]), "'history'"),
], ids=["no-tensors", "no-history", "tensor-without-k12", "history-with-unknown-field",
        "iteration-string", "iteration-fraction", "j1_init-null", "one-width",
        "history-j1-string", "history-iteration-float", "nine-tensors", "seven-tensors",
        "empty-history"])
@pytest.mark.parametrize("command", ["validate", "sweep", "optimize"])
def test_malformed_checkpoint_exit_code(short_run, tmp_path, capsys, command, corrupt, named):
    """A checkpoint without its tensors or history, with an entry of
    missing or unknown fields, or with a value of the wrong kind (an
    iteration or a history row's iteration that is no integer, such as
    2.0, which equals 2 but would be written back as 2.0; a missing
    initial J1, fewer widths than sectors, a history field that is no
    number, a tensor count other than the sector count, a history without
    its rows) is refused with the file and the key named."""
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    for state in run.rglob("state.json"):
        payload = json.loads(state.read_text())
        corrupt(payload)
        state.write_text(json.dumps(payload))
    flags = {"validate": ["--run", str(run), "--epsilon0", "0.25"],
             "sweep": ["--run", f"short={run}", "--epsilon0", "0.25",
                       "--out", str(tmp_path / "sweep.csv")],
             "optimize": ["--config", str(small_config(tmp_path)), "--out", str(run),
                          "--resume"]}[command]
    assert cli.main([command, *flags]) == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("configuration error") and "state.json" in err and named in err


def set_phi(value, row=40):
    """A corruption that sets the phi of one data row to ``value``."""
    def corrupt(text):
        lines = text.split("\r\n")
        fields = lines[1 + row].split(",")
        lines[1 + row] = ",".join(fields[:3] + [value])
        return "\r\n".join(lines)
    return corrupt


@pytest.mark.parametrize("cells, corrupt", [
    ((3,), lambda text: ""),
    ((3,), set_phi("nan")),
    ((3, 6), set_phi("nan")),
    ((3,), set_phi("inf")),
    ((3,), set_phi("-inf")),
], ids=["empty", "nan", "nan-in-3-and-6", "inf", "minus-inf"])
@pytest.mark.parametrize("command", ["validate", "sweep", "optimize"])
def test_malformed_phi_csv_exit_code(short_run, tmp_path, capsys, command, cells, corrupt):
    """A cell file that is empty or holds a phi that is not finite is
    refused, with the file named and no warning before it, by every
    command that reads a run."""
    run = tmp_path / "run"
    shutil.copytree(short_run, run)
    for l in cells:
        for path in run.rglob(f"cell_{l}.csv"):
            path.write_bytes(corrupt(path.read_bytes().decode()).encode())
    flags = {"validate": ["--run", str(run), "--epsilon0", "0.25"],
             "sweep": ["--run", f"short={run}", "--epsilon0", "0.25",
                       "--out", str(tmp_path / "sweep.csv")],
             "optimize": ["--config", str(small_config(tmp_path)), "--out", str(run),
                          "--resume"]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, *flags]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("configuration error") and "cell_3.csv" in err
