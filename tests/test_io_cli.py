import dataclasses
import importlib.util
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
        for b in batch.signals:
            assert np.array_equal(back.signals[b], batch.signals[b])
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
        assert strict(out.read_text()) == printed
        row = (tmp_path / "plots" / "scores.csv").read_text().strip().split("\n")[1]
        assert row.split(",")[2] == ""

    def test_esd_train_rejects_zero_epochs(self, sim_dir, tmp_path, capsys):
        data = sim_dir / "data"
        rf = tmp_path / "wm.rf"
        assert run_cli("response", "--dataset", str(data / "train.sdv"), "--out", str(rf)) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text(json.dumps({"model": {"max_epochs": 0}}))
        ckpt = tmp_path / "model.ckpt"
        capsys.readouterr()
        code = run_cli("esd-train", "--train", str(data / "train.sdv"),
                       "--val", str(data / "val.sdv"), "--response", str(rf),
                       "--out", str(ckpt), "--config", str(cfg))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert "max_epochs" in lines[0]
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

    def test_esd_missing_out_dir_fails_before_compute(self, esd_run, tmp_path,
                                                       monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("computed before checking the output path")

        monkeypatch.setattr(en, "train", never)
        monkeypatch.setattr(en, "infer", never)
        data = esd_run["data"]
        runs = [
            ("esd-train", "--train", str(data / "train.sdv"), "--val", str(data / "val.sdv"),
             "--response", str(esd_run["rf"]), "--config", str(esd_run["cfg"])),
            ("esd-infer", "--checkpoint", str(esd_run["ckpt"]),
             "--dataset", str(data / "test.sdv")),
        ]
        for argv in runs:
            capsys.readouterr()
            code = run_cli(*argv, "--out", str(tmp_path / "nodir" / "out"))
            lines = capsys.readouterr().err.splitlines()
            assert code == 1
            assert len(lines) == 1 and lines[0].startswith("error: io: ")
            assert "No such file or directory" in lines[0]

    def test_checkpoint_round_trip(self, esd_run, tmp_path):
        data = esd_run["data"]
        config = json.loads(esd_run["cfg"].read_text())
        model = en.EsdModel(io_cli.build_config(config, "model"), 1)
        en.train(model, io_cli.read_dataset(data / "train.sdv"),
                 io_cli.read_dataset(data / "val.sdv"), io_cli.read_response(esd_run["rf"]))
        expect = en.infer(model, io_cli.read_dataset(data / "test.sdv")).coeffs["wm"]
        assert np.abs(expect).max() > 0

        def infer(ckpt, name):
            out = tmp_path / name
            assert run_cli("esd-infer", "--checkpoint", str(ckpt),
                           "--dataset", str(data / "test.sdv"), "--out", str(out)) == 0
            return io_cli.read_fodf(out).coeffs["wm"]

        assert np.array_equal(infer(esd_run["ckpt"], "a.fodf"), expect)

        header, blocks = io_cli.read_container(esd_run["ckpt"])
        assert not any(name.startswith("adam_") for name in blocks)
        assert not any(key.startswith("adam_") for key in header)
        # older checkpoints also carry Adam moments; loading ignores them
        extra = list(blocks.items())
        for n in header["param_names"]:
            extra += [(f"adam_m/{n}", blocks[f"param/{n}"] * 0.5),
                      (f"adam_v/{n}", blocks[f"param/{n}"] ** 2)]
        old = tmp_path / "old.ckpt"
        io_cli.write_container(old, dict(header, adam_step=4), extra)
        assert np.array_equal(infer(old, "b.fodf"), expect)

    @pytest.mark.parametrize("flag", [False, True])
    def test_checkpoint_with_csd_input_flag(self, esd_run, tmp_path, capsys, flag):
        # checkpoints written before the CSD input channel was removed store
        # its flag in the model config
        data = esd_run["data"]
        header, blocks = io_cli.read_container(esd_run["ckpt"])
        config = dict(header["config"])
        config["model"] = dict(config["model"], use_csd_input=flag)
        old = tmp_path / "old.ckpt"
        io_cli.write_container(old, dict(header, config=config), list(blocks.items()))

        def infer(ckpt, name):
            out = tmp_path / name
            code = run_cli("esd-infer", "--checkpoint", str(ckpt),
                           "--dataset", str(data / "test.sdv"), "--out", str(out))
            return code, out

        capsys.readouterr()
        code, out = infer(old, "old.fodf")
        if flag:
            lines = capsys.readouterr().err.splitlines()
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error: config: ")
            assert not out.exists()
        else:
            assert code == 0
            assert out.read_bytes() == infer(esd_run["ckpt"], "plain.fodf")[1].read_bytes()

    @pytest.mark.parametrize("stored", ["top_level_workers", "model_workers"])
    def test_checkpoint_stored_config(self, esd_run, tmp_path, capsys, stored):
        # the top-level config of an older checkpoint may hold the removed
        # `workers` key, which loading ignores; its model section is checked
        data = esd_run["data"]
        header, blocks = io_cli.read_container(esd_run["ckpt"])
        config = dict(header["config"])
        if stored == "top_level_workers":
            config["workers"] = 2
        else:
            config["model"] = dict(config["model"], workers=2)
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
            assert "model.workers" in lines[0] and "Traceback" not in captured.err
            assert not out.exists()

    @pytest.mark.parametrize("case", [
        "model.lr=null", "model.lr=true", "csd.tol=null", "csd.ridge=null",
        "peaks.rel_threshold=null", "dataset.tensor.d_gm=null", 'model.channels=["4","6"]',
        'dataset.shells=["b3000"]', 'dataset.split=["28","4","8"]',
    ])
    def test_config_type_error_exits_2(self, esd_run, csd_fodf, tmp_path, capsys, case):
        key, value = case.split("=")
        config = json.loads(json.dumps({**SIM_CONFIG, **ESD_CONFIG}))
        *sections, name = key.split(".")
        node = config
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = json.loads(value)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(json.dumps(config))
        data, rf = esd_run["data"], str(esd_run["rf"])
        argv = {
            "dataset": ["simulate"],
            "model": ["esd-train", "--train", str(data / "train.sdv"),
                      "--val", str(data / "val.sdv"), "--response", rf],
            "csd": ["csd", "--dataset", str(data / "test.sdv"), "--response", rf],
            "peaks": ["peaks", "--fodf", str(csd_fodf)],
        }[sections[0]]
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(*argv, "--config", str(cfg), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
        assert key in lines[0] and "Traceback" not in captured.err
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
        "fodf_degree_string", "fodf_wm_nan", "checkpoint_config_list",
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
        elif case == "fodf_wm_nan":
            blocks["wm"][1, 3] = np.nan
        elif case == "checkpoint_config_list":
            header["config"] = [1]
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

    def test_stage_counters(self, esd_run, tmp_path, capsys):
        data, rf = esd_run["data"], esd_run["rf"]
        fodf, peaks = tmp_path / "c.fodf", tmp_path / "c.peaks"
        capsys.readouterr()
        assert run_cli("csd", "--dataset", str(data / "test.sdv"), "--response", str(rf),
                       "--out", str(fodf)) == 0
        csd_line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(csd_line) == {"out", "voxels", "converged", "nonconverged", "iterations",
                                 "elapsed_ms"}
        assert csd_line["voxels"] == 8
        assert csd_line["converged"] + csd_line["nonconverged"] == csd_line["voxels"]
        assert csd_line["iterations"] >= csd_line["voxels"]
        assert csd_line["elapsed_ms"] > 0
        assert run_cli("peaks", "--fodf", str(fodf), "--out", str(peaks)) == 0
        peaks_line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(peaks_line) == {"out", "voxels", "peaks_per_voxel", "elapsed_ms"}
        n_peaks = sum(len(p) for p in io_cli.read_peaks(peaks))
        assert peaks_line["peaks_per_voxel"] == n_peaks / peaks_line["voxels"]
        assert peaks_line["elapsed_ms"] > 0
        # esd-infer counts the voxels whose WM coefficients are not all zero;
        # a zero head makes every voxel dead
        header, blocks = io_cli.read_container(esd_run["ckpt"])
        blocks["param/head_w"][...] = 0.0
        dead = tmp_path / "dead.ckpt"
        io_cli.write_container(dead, header, list(blocks.items()))
        for ckpt in (esd_run["ckpt"], dead):
            out = tmp_path / "e.fodf"
            assert run_cli("esd-infer", "--checkpoint", str(ckpt),
                           "--dataset", str(data / "test.sdv"), "--out", str(out)) == 0
            infer_line = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert set(infer_line) == {"out", "voxels", "live_frac", "elapsed_ms"}
            wm = io_cli.read_fodf(out).coeffs["wm"]
            assert infer_line["voxels"] == 8
            assert infer_line["live_frac"] == np.any(wm != 0, axis=1).mean()
            assert infer_line["elapsed_ms"] > 0
        assert infer_line["live_frac"] == 0.0

    def test_missing_file_exits_1(self, tmp_path):
        assert run_cli("csd", "--dataset", str(tmp_path / "nope.sdv"),
                       "--response", str(tmp_path / "nope.rf"),
                       "--out", str(tmp_path / "o.fodf")) == 1


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
