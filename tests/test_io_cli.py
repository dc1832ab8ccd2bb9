import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdecon import classical_csd as ccsd
from sphdecon import esd_net as en
from sphdecon import harmonics as sh
from sphdecon import io_cli
from sphdecon import peaks_metrics as pm
from sphdecon import signal_model as sm
from sphdecon import sphere_grid as sg


ROOT = pathlib.Path(__file__).resolve().parents[1]
SIM_CONFIG = {
    "seed": 9,
    "dataset": {
        "shells": [3000.0],
        "gradients_per_shell": 16,
        "n_voxels": 40,
        "split": [28, 4, 8],
        "snr": None,
        "tissues": 1,
        "fiber_count_probs": [1.0, 0.0, 0.0],
    },
}
ESD_CONFIG = {"seed": 9, "model": {
    "nside_in": 4, "depth": 2, "channels": [4, 6], "fodf_degree": 8,
    "max_epochs": 2, "batch_size": 14, "lr": 0.001,
}}


def run_cli(*argv):
    return io_cli.main(list(argv))


def shipped_configs():
    """The README's configs, the benchmark workloads' and this file's fixtures'."""
    readme = (ROOT / "README.md").read_text()
    quickstart = json.loads(readme.split("cat > sim.cfg <<'EOF'\n")[1].split("\nEOF")[0])
    multi_tissue = dict(quickstart, model={"tissues": 3}, dataset=dict(
        quickstart["dataset"], shells=[1000.0, 2000.0, 3000.0], tissues=3))
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = {"readme_quickstart": quickstart, "readme_multi_tissue": multi_tissue,
               "sim_fixture": SIM_CONFIG, "esd_fixture": ESD_CONFIG}
    for name, w in workloads.WORKLOADS.items():
        for size in w.splits:
            configs[f"{name}_{size}"] = w.config(1, size)
    return configs


SHIPPED_CONFIGS = shipped_configs()


def small_batch(seed=3, n=6, tissues=1, snr=30):
    config = sm.SimConfig(
        shells=[3000.0], gradients_per_shell=16, n_voxels=n, split=(n, 0, 0),
        seed=seed, snr=snr, tissues=tissues,
    )
    table = sm.build_gradient_table(config)
    return sm.generate_batch(config, table, np.arange(n))


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        blocks = [("a", rng.standard_normal((3, 5))), ("b", rng.standard_normal(7))]
        path = tmp_path / "x.bin"
        io_cli.write_container(path, {"kind": "test", "n": 1}, blocks)
        header, out = io_cli.read_container(path)
        assert header["kind"] == "test"
        for name, arr in blocks:
            assert np.array_equal(out[name], arr)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(io_cli.FormatError):
            io_cli.read_container(path)

    def test_payload_alignment(self, tmp_path):
        path = tmp_path / "x.bin"
        io_cli.write_container(path, {"kind": "t"}, [("a", np.ones(3))])
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw, "<u4", count=1, offset=8)[0])
        start = 12 + hlen + (-(12 + hlen)) % 32
        assert start % 32 == 0
        assert np.frombuffer(raw, "<f8", count=3, offset=start).tolist() == [1, 1, 1]


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        batch = small_batch()
        path = tmp_path / "d.sdv"
        io_cli.write_dataset(path, batch, seed=3)
        back = io_cli.read_dataset(path)
        assert np.array_equal(back.signals, batch.signals)
        assert np.array_equal(back.fibers, batch.fibers)
        assert np.array_equal(back.tissue_fractions, batch.tissue_fractions)
        for b in batch.gradients.shells:
            assert np.array_equal(
                back.gradients.directions[b], batch.gradients.directions[b]
            )

    def test_deterministic_bytes(self, tmp_path):
        batch = small_batch()
        p1, p2 = tmp_path / "a.sdv", tmp_path / "b.sdv"
        io_cli.write_dataset(p1, batch, seed=3)
        io_cli.write_dataset(p2, batch, seed=3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_payload_in_table_column_order(self, tmp_path):
        config = sm.SimConfig(shells=[3000.0, 1000.0], gradients_per_shell=8, n_voxels=3,
                              split=(3, 0, 0), seed=1, b0_count=2)
        batch = sm.generate_batch(config, sm.build_gradient_table(config), np.arange(3))
        path = tmp_path / "d.sdv"
        io_cli.write_dataset(path, batch)
        header, blocks = io_cli.read_container(path)
        assert header["shells"] == [1000.0, 3000.0]
        signals = blocks["signals"]
        assert np.array_equal(signals[:, :2], batch.shell(0))
        assert np.array_equal(signals[:, 2:10], batch.shell(1000.0))
        assert np.array_equal(signals[:, 10:], batch.shell(3000.0))
        # a header that lists the shells in another order is refused
        header["shells"] = [3000.0, 1000.0]
        io_cli.write_container(path, header, list(blocks.items()))
        with pytest.raises(io_cli.FormatError, match="ascending"):
            io_cli.read_dataset(path)


class TestResponseAndFodfFiles:
    def test_response_round_trip(self, tmp_path):
        rfs = {
            "wm": sm.ResponseFunction("wm", {0.0: [3.5, 0.0], 3000.0: [0.3, -0.1]}),
            "gm": sm.ResponseFunction("gm", {0.0: [3.5], 3000.0: [0.2]}),
        }
        path = tmp_path / "r.rf"
        io_cli.write_response(path, rfs)
        back = io_cli.read_response(path)
        assert np.array_equal(back["wm"].r[3000.0], rfs["wm"].r[3000.0])
        assert back["gm"].r[0.0].shape == (1,)

    def test_fodf_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        basis = sh.ShBasis(8)
        field = ccsd.FodfField(
            {"wm": rng.standard_normal((4, 45)), "gm": rng.standard_normal((4, 1))},
            basis,
            converged=np.array([True, False, True, True]),
        )
        path = tmp_path / "f.fodf"
        io_cli.write_fodf(path, field)
        back = io_cli.read_fodf(path)
        assert np.array_equal(back.coeffs["wm"], field.coeffs["wm"])
        assert np.array_equal(back.converged, field.converged)

    def test_peaks_round_trip(self, tmp_path):
        sets = [
            pm.PeakSet(np.array([[0.0, 0, 1.0], [1.0, 0, 0]]), np.array([2.0, 1.0])),
            pm.PeakSet(np.zeros((0, 3)), np.zeros(0)),
        ]
        path = tmp_path / "p.peaks"
        io_cli.write_peaks(path, sets)
        back = io_cli.read_peaks(path)
        assert np.array_equal(back[0].directions, sets[0].directions)
        assert len(back[1]) == 0


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(io_cli.ConfigError) as err:
            io_cli.validate_config({"dataset": {"shellz": [3000]}})
        assert "shellz" in str(err.value)

    def test_nested_unknown_named_with_path(self):
        with pytest.raises(io_cli.ConfigError) as err:
            io_cli.validate_config({"model": {"lr": 0.01, "lrr": 1}})
        assert "model.lrr" in str(err.value)

    def test_type_errors(self):
        with pytest.raises(io_cli.ConfigError):
            io_cli.validate_config({"seed": "zero"})
        with pytest.raises(io_cli.ConfigError):
            io_cli.validate_config({"model": {"channels": 3}})

    @settings(max_examples=40, deadline=None)
    @given(st.text(min_size=1, max_size=12))
    def test_fuzzed_keys(self, key):
        # the seed is the one top-level key that takes a number; the
        # others are sections or unknown
        config = {key: 1}
        if key == "seed":
            io_cli.validate_config(config)
        else:
            with pytest.raises(io_cli.ConfigError):
                io_cli.validate_config(config)

    @pytest.mark.parametrize("name", list(SHIPPED_CONFIGS))
    def test_shipped_configs_build(self, name):
        config = io_cli.validate_config(SHIPPED_CONFIGS[name])
        for section in io_cli.SECTIONS:
            if section in config or section != "dataset":
                assert dataclasses.is_dataclass(io_cli.build_config(config, section))

    def test_empty_sections_build_defaults(self):
        defaults = {
            "model": {"nside_in": 8, "depth": 3, "channels": (16, 32, 64), "poly_order": 4,
                      "tissues": 1, "fodf_degree": 20, "lambda_sparsity": 1e-4,
                      "sigma_cauchy": 1e-4, "lambda_nonneg": 1.0, "batch_size": 32,
                      "lr": 1e-2, "plateau_factor": 0.5, "plateau_patience": 5,
                      "max_epochs": 30, "seed": 0},
            "csd": {"lambda_sparsity": 1.0, "nonneg_threshold": 0.0, "max_iters": 50,
                    "tol": 1e-8, "constraint_grid_nside": 16, "wm_degree": 8,
                    "ridge": 1e-10},
            "peaks": {"grid_nside": 32, "rel_threshold": 0.25, "min_separation_deg": 15.0},
            "response": {"degree": 16},
        }
        for section, expect in defaults.items():
            assert dataclasses.asdict(io_cli.build_config({}, section)) == expect
        required = {"shells": [3000.0], "gradients_per_shell": 16, "n_voxels": 4,
                    "split": [4, 0, 0]}
        dataset = io_cli.build_config({"seed": 2, "dataset": required}, "dataset")
        assert dataclasses.asdict(dataset) == dict(
            required, split=(4, 0, 0), seed=2, snr=30.0, tissues=1, b0_count=1,
            fiber_count_probs=(0.3, 0.5, 0.2), min_crossing_angle_deg=20.0,
            pure_voxel_prob=0.06, min_fiber_fraction=0.2,
            tensor={"lambda_parallel": 1.7e-3, "lambda_perp": 0.2e-3, "d_gm": 0.8e-3,
                    "d_csf": 3.0e-3},
        )
        del required["n_voxels"]
        with pytest.raises(io_cli.ConfigError, match="missing config key 'dataset.n_voxels'"):
            io_cli.build_config({"dataset": required}, "dataset")


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "sim.cfg"
    cfg.write_text(json.dumps(SIM_CONFIG))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out / "data")) == 0
    return out


@pytest.fixture(scope="module")
def esd_run(sim_dir):
    """A small network trained by esd-train on the simulated data."""
    data = sim_dir / "data"
    rf = sim_dir / "esd.rf"
    assert run_cli("response", "--dataset", str(data / "train.sdv"), "--out", str(rf)) == 0
    cfg = sim_dir / "esd.cfg"
    cfg.write_text(json.dumps(ESD_CONFIG))
    ckpt = sim_dir / "esd.ckpt"
    assert run_cli("esd-train", "--train", str(data / "train.sdv"),
                   "--val", str(data / "val.sdv"), "--response", str(rf),
                   "--out", str(ckpt), "--config", str(cfg)) == 0
    return {"data": data, "rf": rf, "cfg": cfg, "ckpt": ckpt}


@pytest.fixture(scope="module")
def csd_fodf(esd_run, sim_dir):
    """A CSD fODF file of the simulated test set."""
    fodf = sim_dir / "fixture.fodf"
    assert run_cli("csd", "--dataset", str(esd_run["data"] / "test.sdv"),
                   "--response", str(esd_run["rf"]), "--out", str(fodf)) == 0
    return fodf


def run_with_config_value(esd_run, csd_fodf, tmp_path, capsys, key, value):
    """Run the stage that reads config section key's section, with key set to the JSON text value.

    Returns the exit code, the captured output and the --out path.
    """
    config = json.loads(json.dumps({**SIM_CONFIG, **ESD_CONFIG}))
    *sections, name = key.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = "@value@"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(json.dumps(config).replace('"@value@"', value))
    data, rf = esd_run["data"], str(esd_run["rf"])
    argv = {
        "dataset": ["simulate"],
        "model": ["esd-train", "--train", str(data / "train.sdv"),
                  "--val", str(data / "val.sdv"), "--response", rf],
        "csd": ["csd", "--dataset", str(data / "test.sdv"), "--response", rf],
        "peaks": ["peaks", "--fodf", str(csd_fodf)],
        "response": ["response", "--dataset", str(data / "train.sdv")],
    }[sections[0]]
    out = tmp_path / "out"
    capsys.readouterr()
    code = run_cli(*argv, "--config", str(cfg), "--out", str(out))
    return code, capsys.readouterr(), out


class TestCliPipeline:
    def test_simulate_outputs(self, sim_dir):
        for name, n in (("train", 28), ("val", 4), ("test", 8)):
            batch = io_cli.read_dataset(sim_dir / "data" / f"{name}.sdv")
            assert batch.n_voxels == n

    def test_simulate_deterministic(self, sim_dir, tmp_path):
        config = json.loads((sim_dir / "sim.cfg").read_text())
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d2")) == 0
        a = (sim_dir / "data" / "train.sdv").read_bytes()
        b = (tmp_path / "d2" / "train.sdv").read_bytes()
        assert a == b

    def test_missing_shells_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(json.dumps({"dataset": {"gradients_per_shell": 16, "n_voxels": 4,
                                               "split": [2, 1, 1]}}))
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "shells" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        # floors the redrawn fractions and directions can never meet
        '{"min_fiber_fraction": 0.6}', '{"min_fiber_fraction": 0.34}',
        '{"min_fiber_fraction": 0.5, "fiber_count_probs": [0.5, 0.5, 0.0]}',
        '{"min_crossing_angle_deg": 95}', '{"min_crossing_angle_deg": 90}',
        '{"min_crossing_angle_deg": 90, "fiber_count_probs": [0.9, 0.0, 0.1]}',
        '{"fiber_count_probs": [1.5, -0.5, 0.0]}', '{"fiber_count_probs": [0.5, 0.5]}',
        '{"fiber_count_probs": [0.5, 0.5, 0.5]}',
        '{"b0_count": -1}', '{"pure_voxel_prob": 2.0}', '{"pure_voxel_prob": -0.1}',
        '{"snr": -5}',
        # settings that crashed or wrote non-finite signals
        '{"split": [-4, 36, 8]}', '{"tensor": {"lambda_parallel": -1.0}}',
    ])
    def test_unsatisfiable_dataset_exits_2(self, tmp_path, capsys, case):
        settings = json.loads(case)
        dataset = {k: v for k, v in SIM_CONFIG["dataset"].items() if k != "fiber_count_probs"}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(json.dumps({"seed": 1, "dataset": {**dataset, **settings}}))
        out = tmp_path / "o"
        capsys.readouterr()
        code = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert next(iter(settings)) in lines[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        '{"min_fiber_fraction": 0.45, "fiber_count_probs": [0.5, 0.5, 0.0]}',
        '{"min_crossing_angle_deg": 95, "fiber_count_probs": [1.0, 0.0, 0.0]}',
        '{"min_fiber_fraction": 0.9, "fiber_count_probs": [1.0, 0.0, 0.0]}',
        '{"b0_count": 0, "pure_voxel_prob": 1.0, "snr": 0}',
    ])
    def test_dataset_bounds_that_can_be_met(self, tmp_path, case):
        cfg = tmp_path / "ok.cfg"
        dataset = {k: v for k, v in SIM_CONFIG["dataset"].items() if k != "fiber_count_probs"}
        cfg.write_text(json.dumps({"seed": 1, "dataset": {**dataset, **json.loads(case)}}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    def test_simulate_reports_redraws(self, tmp_path, capsys):
        cfg = tmp_path / "cross.cfg"
        config = {"seed": 4, "dataset": {**SIM_CONFIG["dataset"], "tissues": 3,
                                         "fiber_count_probs": [0.2, 0.4, 0.4]}}
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d")) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        sc = io_cli.build_config(config, "dataset")
        redraws = np.concatenate([b.redraws for b in sm.make_dataset(sc).values()])
        assert len(redraws) == 40 and redraws.sum() > 0
        assert line["redraws_per_voxel"] == redraws.mean()

    def test_response_reports_pure_voxels(self, tmp_path, capsys):
        cfg = tmp_path / "msmt.cfg"
        cfg.write_text(json.dumps({"seed": 3, "dataset": {
            "shells": [1000.0, 3000.0], "gradients_per_shell": 16, "n_voxels": 60,
            "split": [60, 0, 0], "tissues": 3, "pure_voxel_prob": 0.8,
            "fiber_count_probs": [0.7, 0.3, 0.0]}}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d")) == 0
        train = tmp_path / "d" / "train.sdv"
        capsys.readouterr()
        assert run_cli("response", "--dataset", str(train), "--out", str(tmp_path / "r.rf")) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        batch = io_cli.read_dataset(train)
        pure = batch.tissue_fractions > 0.999
        expect = {"wm": int((pure[:, 0] & (batch.n_fibers() == 1)).sum()),
                  "gm": int(pure[:, 1].sum()), "csf": int(pure[:, 2].sum())}
        assert line["voxels"] == expect
        assert line["tissues"] == ["csf", "gm", "wm"] and min(expect.values()) >= 10

    def test_response_csd_evaluate(self, sim_dir, capsys):
        data = sim_dir / "data"
        rf = sim_dir / "wm.rf"
        assert run_cli("response", "--dataset", str(data / "train.sdv"),
                       "--out", str(rf)) == 0
        fodf = sim_dir / "test.fodf"
        assert run_cli("csd", "--dataset", str(data / "test.sdv"),
                       "--response", str(rf), "--out", str(fodf)) == 0
        field = io_cli.read_fodf(fodf)
        assert field.coeffs["wm"].shape == (8, 45)
        peaks_file = sim_dir / "test.peaks"
        assert run_cli("peaks", "--fodf", str(fodf), "--out", str(peaks_file)) == 0
        out = sim_dir / "summary.json"
        assert run_cli("evaluate", "--peaks", str(peaks_file),
                       "--dataset", str(data / "test.sdv"), "--out", str(out)) == 0
        summary = json.loads(out.read_text())
        # noiseless single-fiber voxels: the baseline should be near-perfect
        assert summary["success_rate"] == 1.0
        assert summary["mean_angular_error_deg"] < 2.0

    def test_csd_and_peaks_build_no_laplacian(self, esd_run, tmp_path, monkeypatch):
        # only the network builds a grid Laplacian, which keeps the CSD
        # route's start-up flat
        def refuse(*args):
            raise AssertionError("the CSD route built a Laplacian")

        monkeypatch.setattr(sg, "estimate_lmax", refuse)
        monkeypatch.setattr(sg.SphericalGrid, "laplacian", property(refuse))
        fodf = tmp_path / "test.fodf"
        assert run_cli("csd", "--dataset", str(esd_run["data"] / "test.sdv"),
                       "--response", str(esd_run["rf"]), "--out", str(fodf)) == 0
        assert run_cli("peaks", "--fodf", str(fodf), "--out", str(tmp_path / "test.peaks")) == 0

    def test_evaluate_perfect_peaks(self, sim_dir):
        data = sim_dir / "data"
        batch = io_cli.read_dataset(data / "test.sdv")
        nf = batch.n_fibers()
        sets = [
            pm.PeakSet(batch.fibers[v, : nf[v]].copy(), np.ones(nf[v]))
            for v in range(batch.n_voxels)
        ]
        peaks_file = sim_dir / "perfect.peaks"
        io_cli.write_peaks(peaks_file, sets)
        out = sim_dir / "perfect.json"
        assert run_cli("evaluate", "--peaks", str(peaks_file),
                       "--dataset", str(data / "test.sdv"), "--out", str(out)) == 0
        summary = json.loads(out.read_text())
        assert summary["success_rate"] == 1.0
        assert summary["mean_angular_error_deg"] == pytest.approx(0.0, abs=1e-5)
        assert summary["over"] == 0.0 and summary["under"] == 0.0
        assert summary["kl"] is None

    def test_emit_plots(self, sim_dir, tmp_path):
        data = sim_dir / "data"
        assert run_cli("evaluate", "--peaks", str(sim_dir / "perfect.peaks"),
                       "--dataset", str(data / "test.sdv"),
                       "--emit-plots", str(tmp_path / "plots")) == 0
        lines = (tmp_path / "plots" / "scores.csv").read_text().strip().split("\n")
        assert lines[0].startswith("n_gradients,success_rate")
        assert lines[1].startswith("16,1.0")

    def test_evaluate_nothing_matched_is_strict_json(self, sim_dir, tmp_path, capsys):
        data = sim_dir / "data"
        n = io_cli.read_dataset(data / "test.sdv").n_voxels
        peaks_file = tmp_path / "empty.peaks"
        io_cli.write_peaks(peaks_file, [pm.PeakSet(np.zeros((0, 3)), np.zeros(0))] * n)
        out = tmp_path / "summary.json"
        capsys.readouterr()
        assert run_cli("evaluate", "--peaks", str(peaks_file),
                       "--dataset", str(data / "test.sdv"), "--out", str(out),
                       "--emit-plots", str(tmp_path / "plots")) == 0

        def strict(text):
            return json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c}"))

        printed = strict(capsys.readouterr().out.strip().split("\n")[-1])
        assert printed["mean_angular_error_deg"] is None
        assert printed["success_rate"] == 0.0
        # the file keeps the summary record, without the run's elapsed_ms
        assert printed.pop("elapsed_ms") > 0
        assert strict(out.read_text()) == printed
        row = (tmp_path / "plots" / "scores.csv").read_text().strip().split("\n")[1]
        assert row.split(",")[2] == ""

    @pytest.mark.parametrize("command", ["simulate", "esd-train", "esd-infer"])
    def test_negative_seed_exits_2(self, esd_run, tmp_path, capsys, command):
        data = esd_run["data"]
        out = tmp_path / "out"
        if command == "esd-infer":  # a checkpoint's stored seed is checked the same way
            header, blocks = io_cli.read_container(esd_run["ckpt"])
            ckpt = tmp_path / "seed.ckpt"
            io_cli.write_container(ckpt, dict(header, config=dict(header["config"], seed=-3)),
                                   list(blocks.items()))
            argv = ["esd-infer", "--checkpoint", str(ckpt), "--dataset", str(data / "test.sdv")]
        else:
            cfg = tmp_path / "seed.cfg"
            cfg.write_text(json.dumps({**SIM_CONFIG, **ESD_CONFIG, "seed": -3}))
            argv = {"simulate": ["simulate"],
                    "esd-train": ["esd-train", "--train", str(data / "train.sdv"),
                                  "--val", str(data / "val.sdv"),
                                  "--response", str(esd_run["rf"])]}[command]
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        code = run_cli(*argv, "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert "'seed'" in lines[0] and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("seed, code", [(2**128 - 1, 0), (2**128, 2), (2**200, 2)])
    def test_seed_must_fit_the_philox_key(self, tmp_path, capsys, seed, code):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(json.dumps({**SIM_CONFIG, "seed": seed}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == code
        captured = capsys.readouterr()
        if code:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: config: ")
            assert "'seed'" in lines[0] and "2**128" in lines[0]
            assert captured.out == "" and not out.exists()
        else:
            assert json.loads(captured.out)["seed"] == seed

    @pytest.mark.parametrize("case", [
        # values that crashed, trained nothing or trained uphill
        '{"max_epochs": 0}', '{"batch_size": 0}', '{"batch_size": -4}', '{"poly_order": -1}',
        '{"channels": [0, 6]}', '{"lr": -1}', '{"lr": 0}', '{"lr": NaN}',
        # the level count and the finest grid, each named rather than the other
        '{"depth": 0, "channels": []}', '{"nside_in": 0}', '{"nside_in": -8}',
        '{"nside_in": 3}', '{"nside_in": 128}',
    ])
    def test_esd_train_rejects_model_values(self, esd_run, tmp_path, capsys, case):
        settings = json.loads(case)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(json.dumps({**ESD_CONFIG, "model": {**ESD_CONFIG["model"], **settings}}))
        data = esd_run["data"]
        ckpt = tmp_path / "model.ckpt"
        capsys.readouterr()
        code = run_cli("esd-train", "--train", str(data / "train.sdv"),
                       "--val", str(data / "val.sdv"), "--response", str(esd_run["rf"]),
                       "--out", str(ckpt), "--config", str(cfg))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        # the line names the setting, and blames depth only when depth is it
        key = next(iter(settings))
        assert key in lines[0] and ("depth" in lines[0]) == (key == "depth")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not ckpt.exists()

    def test_esd_train_model_tissue_without_response(self, sim_dir, tmp_path, capsys):
        data = sim_dir / "data"
        rf = tmp_path / "wm.rf"
        assert run_cli("response", "--dataset", str(data / "train.sdv"), "--out", str(rf)) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text(json.dumps({"model": {"tissues": 3, "max_epochs": 1}}))
        ckpt = tmp_path / "model.ckpt"
        capsys.readouterr()
        code = run_cli("esd-train", "--train", str(data / "train.sdv"),
                       "--val", str(data / "val.sdv"), "--response", str(rf),
                       "--out", str(ckpt), "--config", str(cfg))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert "gm" in lines[0] and "csf" in lines[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not ckpt.exists()

    def test_checkpoint_round_trip(self, esd_run, tmp_path):
        data = esd_run["data"]
        config = json.loads(esd_run["cfg"].read_text())
        train = io_cli.read_dataset(data / "train.sdv")
        model = en.EsdModel(io_cli.build_config(config, "model"), train.gradients.shells)
        en.train(model, train, io_cli.read_dataset(data / "val.sdv"),
                 io_cli.read_response(esd_run["rf"]))
        expect = en.infer(model, io_cli.read_dataset(data / "test.sdv")).coeffs["wm"]
        assert np.abs(expect).max() > 0

        def infer(ckpt, name):
            out = tmp_path / name
            assert run_cli("esd-infer", "--checkpoint", str(ckpt),
                           "--dataset", str(data / "test.sdv"), "--out", str(out)) == 0
            return io_cli.read_fodf(out).coeffs["wm"]

        assert np.array_equal(infer(esd_run["ckpt"], "a.fodf"), expect)

        header, blocks = io_cli.read_container(esd_run["ckpt"])
        assert header["format"] == io_cli.CHECKPOINT_FORMAT
        assert not any(name.startswith("adam_") for name in blocks)
        assert not any(key.startswith("adam_") for key in header)
        names = [k.split("/", 1)[1] for k in blocks if k.startswith("param/")]
        bn_names = [k.split("/", 1)[1] for k in blocks if k.startswith("bn_mean/")]
        assert sorted(names) == sorted(model.params) and sorted(bn_names) == sorted(model.bn)

    # each refused model setting, and what the error line must say
    REFUSED_STORED_MODEL = {
        "model_workers": ({"workers": 2}, "model.workers"),
        "model_depth0": ({"depth": 0, "channels": []}, "depth must be at least 1, got 0"),
        "model_nside_in3": ({"nside_in": 3}, "nside_in must be a power of two in 1..64, got 3"),
    }

    @pytest.mark.parametrize("stored", ["top_level_workers", *REFUSED_STORED_MODEL])
    def test_checkpoint_stored_config(self, esd_run, tmp_path, capsys, stored):
        # only the seed and the model section of the stored config are read
        # back: an unknown top-level key is ignored, an unknown or invalid
        # setting in the model section is refused
        data = esd_run["data"]
        header, blocks = io_cli.read_container(esd_run["ckpt"])
        config = dict(header["config"])
        if stored == "top_level_workers":
            config["workers"] = 2
        else:
            config["model"] = dict(config["model"], **self.REFUSED_STORED_MODEL[stored][0])
        old = tmp_path / "old.ckpt"
        io_cli.write_container(old, dict(header, config=config), list(blocks.items()))

        def infer(ckpt, name):
            out = tmp_path / name
            code = run_cli("esd-infer", "--checkpoint", str(ckpt),
                           "--dataset", str(data / "test.sdv"), "--out", str(out))
            return code, out

        capsys.readouterr()
        code, out = infer(old, "old.fodf")
        captured = capsys.readouterr()
        if stored == "top_level_workers":
            assert code == 0
            assert out.read_bytes() == infer(esd_run["ckpt"], "plain.fodf")[1].read_bytes()
        else:
            lines = captured.err.splitlines()
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error: config: ")
            assert self.REFUSED_STORED_MODEL[stored][1] in lines[0]
            assert "Traceback" not in captured.err and not out.exists()

    @pytest.mark.parametrize("case", [
        "model.lr=null", "model.lr=true", "csd.tol=null", "csd.ridge=null",
        "peaks.rel_threshold=null", "dataset.tensor.d_gm=null", 'model.channels=["4","6"]',
        'dataset.shells=["b3000"]', 'dataset.split=["28","4","8"]',
    ])
    def test_config_type_error_exits_2(self, esd_run, csd_fodf, tmp_path, capsys, case):
        key, value = case.split("=")
        code, captured, out = run_with_config_value(esd_run, csd_fodf, tmp_path, capsys,
                                                    key, value)
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert key in lines[0] and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("case", [
        # non-finite numbers: the JSON constants and a literal that overflows
        "csd.ridge=NaN", "csd.tol=NaN", "csd.lambda_sparsity=Infinity",
        "peaks.rel_threshold=NaN", "peaks.min_separation_deg=NaN",
        "peaks.min_separation_deg=-Infinity", "model.lambda_sparsity=NaN",
        "model.lambda_nonneg=1e999", "dataset.snr=NaN",
        # finite values out of range
        "csd.ridge=-1e-10", "csd.lambda_sparsity=-1", "csd.nonneg_threshold=-0.5",
        "peaks.rel_threshold=-0.1", "peaks.rel_threshold=1.5",
        "peaks.min_separation_deg=0", "peaks.min_separation_deg=90.5",
        "model.lambda_sparsity=-1e-4", "model.lambda_nonneg=-1",
        "model.plateau_factor=-1", "model.plateau_factor=0", "model.plateau_factor=1.5",
        # degrees and grid resolutions that the stage would refuse later, under another name
        "response.degree=15", "response.degree=-2", "csd.wm_degree=7", "csd.wm_degree=-2",
        "csd.constraint_grid_nside=3", "peaks.grid_nside=3", "peaks.grid_nside=128",
        "peaks.grid_nside=8",
    ])
    def test_config_value_out_of_range_exits_2(self, esd_run, csd_fodf, tmp_path, capsys,
                                               case):
        key, value = case.split("=")
        code, captured, out = run_with_config_value(esd_run, csd_fodf, tmp_path, capsys,
                                                    key, value)
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert key.split(".")[-1] in lines[0] and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_esd_train_rejects_val_table_mismatch(self, tmp_path, monkeypatch, capsys):
        # a 32-gradient validation set next to a 64-gradient training set
        def simulate(name, n_grad, split):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(json.dumps({"seed": 4, "dataset": {
                "shells": [3000.0], "gradients_per_shell": n_grad, "n_voxels": sum(split),
                "split": split, "snr": None, "fiber_count_probs": [1.0, 0.0, 0.0],
            }}))
            assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / name)) == 0

        simulate("g64", 64, [12, 0, 0])
        simulate("g32", 32, [0, 4, 0])
        train, val = tmp_path / "g64" / "train.sdv", tmp_path / "g32" / "val.sdv"
        rf = tmp_path / "wm.rf"
        assert run_cli("response", "--dataset", str(train), "--out", str(rf)) == 0

        def never(*args, **kwargs):
            raise AssertionError("computed before checking the validation table")

        monkeypatch.setattr(en, "network_inputs", never)
        ckpt = tmp_path / "model.ckpt"
        capsys.readouterr()
        code = run_cli("esd-train", "--train", str(train), "--val", str(val),
                       "--response", str(rf), "--out", str(ckpt))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert "gradient table" in lines[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not ckpt.exists()

    @pytest.mark.parametrize("corruption", ["cut_in_header", "cut_in_payload",
                                            "cut_to_6_bytes", "bad_header_byte",
                                            "negative_block_dim"])
    def test_corrupt_dataset_exits_1(self, sim_dir, tmp_path, corruption, capsys):
        raw = bytearray((sim_dir / "data" / "test.sdv").read_bytes())
        hlen = int(np.frombuffer(bytes(raw), "<u4", count=1, offset=8)[0])
        payload = 12 + hlen + (-(12 + hlen)) % 32
        # same header length: the signals block's voxel count turns negative
        negative = raw[12 : 12 + hlen].replace(b'["signals",[8,17]]', b'["signals",[-8,7]]')
        raw = {
            "cut_in_header": raw[: 12 + hlen // 2],
            "cut_in_payload": raw[: payload + 40],
            "cut_to_6_bytes": raw[:6],
            "bad_header_byte": raw[:17] + b"\xff" + raw[18:],
            "negative_block_dim": raw[:12] + negative + raw[12 + hlen :],
        }[corruption]
        assert corruption != "negative_block_dim" or b"[-8,7]" in raw
        path = tmp_path / "corrupt.sdv"
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        code = run_cli("response", "--dataset", str(path), "--out", str(tmp_path / "r.rf"))
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", ["sdv_shells", "sdv_voxel_count", "fodf_degree",
                                      "fodf_wm", "wrong_kind"])
    def test_incomplete_header_exits_1(self, sim_dir, csd_fodf, tmp_path, case, capsys):
        # one flipped byte turns a header key or block name the kind needs
        # into another, still decodable one
        sdv, response, peaks = sim_dir / "data" / "test.sdv", "response --dataset", "peaks --fodf"
        source, name, command = {
            "sdv_shells": (sdv, "shells", response),
            "sdv_voxel_count": (sdv, "voxel_count", response),
            "fodf_degree": (csd_fodf, "degree", peaks),
            "fodf_wm": (csd_fodf, "wm", peaks),
            "wrong_kind": (csd_fodf, None, response),
        }[case]
        raw = bytearray(source.read_bytes())
        if name is not None:
            at = raw.index(f'"{name}"'.encode()) + 1
            raw[at] ^= 0x20  # swap the case of the name's first letter
        path = tmp_path / source.name
        path.write_bytes(bytes(raw))
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(*command.split(), str(path), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io: ")
        assert "Traceback" not in captured.err and not out.exists()

    @pytest.mark.parametrize("case", [
        "fodf_degree_string", "fodf_degree_odd", "fodf_degree_negative", "fodf_wm_nan",
        "fodf_no_wm", "checkpoint_config_list", "checkpoint_digest", "checkpoint_bn_var",
        "checkpoint_no_format", "checkpoint_format_1", "checkpoint_no_digest",
        "dataset_fibers_not_unit", "dataset_no_shells",
        # blocks whose shapes do not fit the header or the model
        "response_1d", "response_rows", "response_width0", "fodf_converged", "fodf_wm_rows",
        "fodf_wm_width", "checkpoint_head_w", "checkpoint_bn", "dataset_fibers",
        "dataset_fiber_fractions", "dataset_tissue_fractions", "peaks_voxels", "peaks_columns",
    ])
    def test_bad_header_value_or_payload_exits_1(self, esd_run, csd_fodf, tmp_path, case,
                                                 capsys):
        test_sdv = esd_run["data"] / "test.sdv"
        peaks = tmp_path / "good.peaks"
        assert run_cli("peaks", "--fodf", str(csd_fodf), "--out", str(peaks)) == 0
        source, argv = {
            "fodf": (csd_fodf, ["peaks", "--fodf"]),
            "checkpoint": (esd_run["ckpt"],
                           ["esd-infer", "--dataset", str(test_sdv), "--checkpoint"]),
            "response": (esd_run["rf"], ["csd", "--dataset", str(test_sdv), "--response"]),
            "dataset": (test_sdv, ["response", "--dataset"]),
            "peaks": (peaks, ["evaluate", "--dataset", str(test_sdv), "--peaks"]),
        }[case.split("_")[0]]
        header, blocks = io_cli.read_container(source)
        if case == "fodf_degree_string":
            header["degree"] = str(header["degree"])
        elif case == "fodf_degree_odd":
            header["degree"] = 7  # no even-degree basis has it
        elif case == "fodf_degree_negative":
            header["degree"] = -2
        elif case == "fodf_wm_nan":
            blocks["wm"][1, 3] = np.nan
        elif case == "fodf_no_wm":  # peaks reads the wm coefficients
            header["tissues"] = ["gm"]
            blocks["gm"] = blocks.pop("wm")[:, :1]
        elif case == "checkpoint_config_list":
            header["config"] = [1]
        elif case == "checkpoint_digest":  # a finite, well-shaped, changed weight
            blocks["param/head_w"][0, 0, 0] *= 1e200
        elif case == "checkpoint_bn_var":  # digest matched, so the variance check decides
            blocks["bn_var/enc0_0"][0] = -1.0
            header["payload_sha256"] = io_cli._digest(blocks.values())
        elif case == "checkpoint_no_format":  # written before the WM head became a conv block
            del header["format"]
        elif case == "checkpoint_format_1":
            header["format"] = 1
        elif case == "checkpoint_no_digest":
            del header["payload_sha256"]
        elif case == "dataset_fibers_not_unit":
            blocks["fibers"] *= 2.0
        elif case == "dataset_no_shells":  # b=0 samples only
            header["shells"], header["directions"] = [], {}
            blocks["signals"] = blocks["signals"][:, : header["b0_count"]]
        else:
            name, cut = {
                "response_1d": ("wm", lambda a: a[0]),
                "response_rows": ("wm", lambda a: np.vstack([a, a])),
                "response_width0": ("wm", lambda a: a[:, :0]),
                "fodf_converged": ("converged", lambda a: a[:3]),
                "fodf_wm_rows": ("wm", lambda a: a[:3]),
                "fodf_wm_width": ("wm", lambda a: a[:, :-1]),
                "checkpoint_head_w": ("param/head_w", lambda a: a[:1]),
                "checkpoint_bn": ("bn_mean/enc0_0", lambda a: a[:1]),
                "dataset_fibers": ("fibers", lambda a: a[:, :1]),
                "dataset_fiber_fractions": ("fiber_fractions", lambda a: a[:, :2]),
                "dataset_tissue_fractions": ("tissue_fractions", lambda a: a[:, :1]),
                "peaks_voxels": ("peaks", lambda a: a[:3]),
                "peaks_columns": ("peaks", lambda a: a[:, :, :3]),
            }[case]
            blocks[name] = cut(blocks[name])
        path = tmp_path / source.name
        io_cli.write_container(path, header, list(blocks.items()))
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(*argv, str(path), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io: ")
        assert "Traceback" not in captured.err and not out.exists()

    def test_huge_fodf_degree_fails_before_building_its_basis(self, csd_fodf, tmp_path,
                                                              monkeypatch, capsys):
        # a degree-1000 basis holds 501501 (l, m) pairs; the wm block's
        # width disagrees with the degree before any is built
        header, blocks = io_cli.read_container(csd_fodf)
        header["degree"] = 1000
        path = tmp_path / "huge.fodf"
        io_cli.write_container(path, header, list(blocks.items()))
        built = []

        class RecordingBasis(sh.ShBasis):
            def __init__(self, l_max):
                built.append(l_max)
                super().__init__(l_max)

        monkeypatch.setattr(sh, "ShBasis", RecordingBasis)
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli("peaks", "--fodf", str(path), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io: ")
        assert "block 'wm'" in lines[0] and "501501" in lines[0]
        assert 1000 not in built and not out.exists()

    def test_stage_counters(self, esd_run, tmp_path, capsys):
        data, rf = esd_run["data"], esd_run["rf"]
        fodf, peaks = tmp_path / "c.fodf", tmp_path / "c.peaks"

        def summary():
            # every command prints one strict-JSON line, keys sorted, with elapsed_ms
            text = capsys.readouterr().out.splitlines()[-1]
            line = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c}"))
            assert text == json.dumps(line, sort_keys=True)
            assert line["elapsed_ms"] > 0
            return line

        capsys.readouterr()
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(json.dumps(SIM_CONFIG))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d")) == 0
        sim_line = summary()
        assert set(sim_line) == {"seed", "files", "redraws_per_voxel", "elapsed_ms"}
        assert sim_line["files"]["train"]["n_voxels"] == 28
        assert sim_line["redraws_per_voxel"] == 0.0  # single fibers meet both floors at once
        assert run_cli("response", "--dataset", str(data / "train.sdv"),
                       "--out", str(tmp_path / "r.rf")) == 0
        rf_line = summary()
        assert set(rf_line) == {"out", "tissues", "degree", "voxels", "elapsed_ms"}
        assert rf_line["tissues"] == ["wm"]
        assert rf_line["voxels"] == {"wm": 28, "gm": 0, "csf": 0}
        assert run_cli("esd-train", "--train", str(data / "train.sdv"),
                       "--val", str(data / "val.sdv"), "--response", str(rf),
                       "--out", str(tmp_path / "m.ckpt"), "--config", str(esd_run["cfg"])) == 0
        train_line = summary()
        assert set(train_line) == {"out", "best_epoch", "best_val_loss", "elapsed_ms"}
        assert 0 <= train_line["best_epoch"] < ESD_CONFIG["model"]["max_epochs"]
        assert run_cli("csd", "--dataset", str(data / "test.sdv"), "--response", str(rf),
                       "--out", str(fodf)) == 0
        csd_line = summary()
        assert set(csd_line) == {"out", "voxels", "converged", "nonconverged", "iterations",
                                 "elapsed_ms"}
        assert csd_line["voxels"] == 8
        assert csd_line["converged"] + csd_line["nonconverged"] == csd_line["voxels"]
        assert csd_line["iterations"] >= csd_line["voxels"]
        assert run_cli("peaks", "--fodf", str(fodf), "--out", str(peaks)) == 0
        peaks_line = summary()
        assert set(peaks_line) == {"out", "voxels", "peaks_per_voxel", "candidates_per_voxel",
                                   "elapsed_ms"}
        n_peaks = sum(len(p) for p in io_cli.read_peaks(peaks))
        assert peaks_line["peaks_per_voxel"] == n_peaks / peaks_line["voxels"]
        # every voxel of the test split has a fiber, so a local maximum
        assert peaks_line["candidates_per_voxel"] >= max(1.0, peaks_line["peaks_per_voxel"])
        out = tmp_path / "summary.json"
        assert run_cli("evaluate", "--peaks", str(peaks), "--dataset", str(data / "test.sdv"),
                       "--out", str(out)) == 0
        eval_line = summary()
        assert set(eval_line) == {*json.loads(out.read_text()), "elapsed_ms"}
        # esd-infer counts the voxels whose WM coefficients are not all zero;
        # a head whose batchnorm scale and shift are zero makes every voxel dead
        model, header = io_cli.read_checkpoint(esd_run["ckpt"])
        model.params["head_gamma"].values[...] = 0.0
        model.params["head_beta"].values[...] = 0.0
        dead = tmp_path / "dead.ckpt"
        io_cli.write_checkpoint(dead, model, en.TrainResult([], header["best_val_loss"],
                                                            header["epoch"]), header["config"])
        for ckpt in (esd_run["ckpt"], dead):
            out = tmp_path / "e.fodf"
            assert run_cli("esd-infer", "--checkpoint", str(ckpt),
                           "--dataset", str(data / "test.sdv"), "--out", str(out)) == 0
            infer_line = summary()
            assert set(infer_line) == {"out", "voxels", "live_frac", "elapsed_ms"}
            wm = io_cli.read_fodf(out).coeffs["wm"]
            assert infer_line["voxels"] == 8
            assert infer_line["live_frac"] == np.any(wm != 0, axis=1).mean()
        assert infer_line["live_frac"] == 0.0  # the zeroed head

    @pytest.mark.parametrize("command", ["response", "csd", "peaks", "evaluate_out",
                                         "evaluate_per_voxel", "esd-train", "esd-train_log",
                                         "esd-infer"])
    def test_missing_out_dir_fails_before_reading(self, esd_run, csd_fodf, tmp_path,
                                                  monkeypatch, capsys, command):
        def never(*args, **kwargs):
            raise AssertionError("read an input before checking the output path")

        monkeypatch.setattr(io_cli, "read_container", never)
        monkeypatch.setattr(io_cli, "load_config", never)
        data, cfg = esd_run["data"], ["--config", str(esd_run["cfg"])]
        sdv, fodf, rf = str(data / "test.sdv"), str(csd_fodf), str(esd_run["rf"])
        missing, written = str(tmp_path / "nodir" / "out"), tmp_path / "written"
        train = ["esd-train", "--train", str(data / "train.sdv"), "--val", str(data / "val.sdv"),
                 "--response", rf, *cfg]
        argv = {
            "response": ["response", "--dataset", sdv, "--out", missing, *cfg],
            "csd": ["csd", "--dataset", sdv, "--response", rf, "--out", missing, *cfg],
            "peaks": ["peaks", "--fodf", fodf, "--out", missing, *cfg],
            "evaluate_out": ["evaluate", "--fodf", fodf, "--dataset", sdv, "--out", missing,
                             *cfg],
            "evaluate_per_voxel": ["evaluate", "--fodf", fodf, "--dataset", sdv,
                                   "--out", str(written), "--per-voxel", missing, *cfg],
            "esd-train": [*train, "--out", missing],
            "esd-train_log": [*train, "--out", str(written), "--log", missing],
            "esd-infer": ["esd-infer", "--checkpoint", str(esd_run["ckpt"]), "--dataset", sdv,
                          "--out", missing],
        }[command]
        capsys.readouterr()
        code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: io: ")
        assert "No such file or directory" in lines[0] and missing in lines[0]
        assert captured.out == "" and not written.exists()

    def test_missing_file_exits_1(self, tmp_path):
        assert run_cli("csd", "--dataset", str(tmp_path / "nope.sdv"),
                       "--response", str(tmp_path / "nope.rf"),
                       "--out", str(tmp_path / "o.fodf")) == 1


@pytest.fixture(scope="module")
def fuzz_cases(esd_run, csd_fodf):
    """Valid containers, each with the CLI commands that read it.

    A command is an argv builder taking the corrupted file's path and an
    output path, which evaluate does not use.
    """
    sdv, rf, ckpt = str(esd_run["data"] / "test.sdv"), str(esd_run["rf"]), str(esd_run["ckpt"])
    fodf = str(csd_fodf)
    return {
        "dataset": (esd_run["data"] / "test.sdv", [
            lambda p, out: ["csd", "--dataset", p, "--response", rf, "--out", out],
            lambda p, out: ["evaluate", "--fodf", fodf, "--dataset", p],
            lambda p, out: ["esd-infer", "--checkpoint", ckpt, "--dataset", p, "--out", out],
        ]),
        "fodf": (csd_fodf, [
            lambda p, out: ["peaks", "--fodf", p, "--out", out],
            lambda p, out: ["evaluate", "--fodf", p, "--dataset", sdv],
        ]),
        "checkpoint": (esd_run["ckpt"], [
            lambda p, out: ["esd-infer", "--checkpoint", p, "--dataset", sdv, "--out", out],
        ]),
    }


class TestContainerFuzz:
    # a position is taken modulo the header's end or the file's length, so
    # half the corruptions land in the JSON header, which is a small share
    # of each file
    position = st.tuples(st.sampled_from(["header", "anywhere"]), st.integers(0, 2**20))
    corruption = st.one_of(
        st.tuples(st.just("flip"), position, st.integers(1, 255)),
        st.tuples(st.just("truncate"), position),
        st.tuples(st.just("insert"), position, st.binary(min_size=1, max_size=8)),
    )

    # derandomized: the same examples on every run, so tier-1 cannot flake
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["dataset", "fodf", "checkpoint"]), which=st.integers(0, 2),
           corruption=corruption)
    def test_corrupt_bytes_end_in_one_error_line(self, fuzz_cases, tmp_path_factory, kind,
                                                 which, corruption):
        source, commands = fuzz_cases[kind]
        raw = bytearray(source.read_bytes())
        hlen = int(np.frombuffer(bytes(raw), "<u4", count=1, offset=8)[0])
        (region, pos), *rest = corruption[1:]
        at = pos % (12 + hlen if region == "header" else len(raw))
        if corruption[0] == "flip":
            raw[at] ^= rest[0]
        elif corruption[0] == "truncate":
            del raw[at:]
        else:
            raw[at:at] = rest[0]
        work = tmp_path_factory.mktemp("fuzz")
        path, out = work / source.name, work / "out"
        path.write_bytes(bytes(raw))
        argv = commands[which % len(commands)](str(path), str(out))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = io_cli.main(argv)  # any exception is a traceback at the CLI
        lines = stderr.getvalue().splitlines()
        # a corruption inside a float payload or the trailing padding can leave
        # a valid file; the command then succeeds like on any other input
        if code == 0:
            assert lines == []
        else:
            assert code in (1, 2), (code, lines)
            assert len(lines) == 1 and lines[0].startswith(("error: io: ", "error: config: "))
            assert "Traceback" not in stderr.getvalue()


def test_entry_point_runs():
    # the child imports the same sphdecon as this process, installed or not
    src = os.path.dirname(os.path.dirname(io_cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sphdecon.io_cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_cli_imports_no_heavy_scipy_subpackage(esd_run, tmp_path):
    # at run time sphdecon needs numpy alone; scipy.sparse cost a CLI process
    # 0.23 s and 22 MB before its stage started. One child imports the CLI,
    # then runs csd, one epoch of esd-train and esd-infer, so that a scipy
    # import inside a function shows too.
    data, rf = esd_run["data"], str(esd_run["rf"])
    cfg = tmp_path / "one_epoch.cfg"
    cfg.write_text(json.dumps({**ESD_CONFIG, "model": {**ESD_CONFIG["model"], "max_epochs": 1}}))
    ckpt = tmp_path / "esd.ckpt"
    stages = [
        ["csd", "--dataset", str(data / "test.sdv"), "--response", rf,
         "--out", str(tmp_path / "csd.fodf")],
        ["esd-train", "--train", str(data / "train.sdv"), "--val", str(data / "val.sdv"),
         "--response", rf, "--out", str(ckpt), "--config", str(cfg)],
        ["esd-infer", "--checkpoint", str(ckpt), "--dataset", str(data / "test.sdv"),
         "--out", str(tmp_path / "esd.fodf")],
    ]
    script = (
        "import json, sys\n"
        "import sphdecon.io_cli\n"
        "loaded = [list(sys.modules)]\n"
        "codes = [sphdecon.io_cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded.append(list(sys.modules))\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = os.path.dirname(os.path.dirname(io_cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(stages)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0]
    for modules in loaded:
        assert not [name for name in modules if name.split(".")[0] == "scipy"]
