import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cloakopt import cli
from cloakopt.config import ConfigError, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(tmp_path, **tweaks):
    raw = json.loads((CONFIG_DIR / "scenario_w1.json").read_text())
    raw["optimizer"]["max_iter"] = 3
    raw["mesh"] = {"macro_h": 0.25, "cell_resolution": 16}
    for section, values in tweaks.items():
        raw.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
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
    path = small_config(tmp_path, export={"sensitivity_vtk": True})
    assert optimize_exit_code(tmp_path, path) == 2
    assert "export.sensitivity_vtk" in capsys.readouterr().err


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


def test_odd_cell_resolution_exit_code(tmp_path, capsys):
    path = small_config(tmp_path, mesh={"cell_resolution": 17})
    assert optimize_exit_code(tmp_path, path) == 2
    assert "cell_resolution must be even" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("short")
    out = tmp / "run"
    assert cli.main(["optimize", "--config", str(small_config(tmp)), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("flags", [["--psi", "nan"], ["--psi", "0,inf"],
                                   ["--psi", "0", "--obstacle-k", "nan"],
                                   ["--psi", "0", "--obstacle-k", "0"]])
@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_bad_obstacle_exit_code(short_run, tmp_path, capsys, command, flags):
    """A non-finite angle or a non-positive or non-finite insert
    conductivity is a configuration error, for both sweeping commands."""
    run = str(short_run) if command == "validate" else f"short={short_run}"
    out = tmp_path / ("validation" if command == "validate" else "sweep.csv")
    rc = cli.main([command, "--run", run, "--epsilon0", "0.25", "--out", str(out), *flags])
    assert rc == 2
    assert "obstacle" in capsys.readouterr().err
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
