import dataclasses
import json
import os
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


def run_cli(*argv):
    return io_cli.main(list(argv))


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


class TestFslGradients:
    def test_round_trip(self, tmp_path):
        batch = small_batch()
        bvals, bvecs = tmp_path / "bvals", tmp_path / "bvecs"
        io_cli.write_fsl_gradients(batch.gradients, bvals, bvecs)
        table = io_cli.read_fsl_gradients(bvals, bvecs)
        assert table.b0_count == batch.gradients.b0_count
        assert np.allclose(
            table.directions[3000.0], batch.gradients.directions[3000.0], atol=1e-15
        )

    def test_low_b_treated_as_b0(self, tmp_path):
        (tmp_path / "bvals").write_text("0 49 1000 1000\n")
        (tmp_path / "bvecs").write_text("0 0 1 0\n0 0 0 1\n1 1 0 0\n")
        table = io_cli.read_fsl_gradients(tmp_path / "bvals", tmp_path / "bvecs")
        assert table.b0_count == 2
        assert table.n(1000.0) == 2

    def test_mismatched_columns(self, tmp_path):
        (tmp_path / "bvals").write_text("0 1000\n")
        (tmp_path / "bvecs").write_text("0 0 1\n0 1 0\n1 0 0\n")
        with pytest.raises(io_cli.FormatError):
            io_cli.read_fsl_gradients(tmp_path / "bvals", tmp_path / "bvecs")


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

    def test_schema_matches_dataclasses(self):
        # every schema key reaches a dataclass field, and every field a
        # user may set has a schema key
        def names(cls, *drop):
            return {f.name for f in dataclasses.fields(cls)} - set(drop)

        schema = io_cli._SCHEMA
        assert set(schema["model"]) == names(en.EsdConfig, "seed", "head_gain")
        assert set(schema["csd"]) == names(ccsd.CsdConfig)
        assert set(schema["dataset"]) == names(sm.SimConfig, "seed")
        assert set(schema["dataset"]["tensor"]) == names(sm.TensorParams)

    @settings(max_examples=40, deadline=None)
    @given(st.text(min_size=1, max_size=12))
    def test_fuzzed_keys(self, key):
        config = {key: 1}
        if key in io_cli._SCHEMA and io_cli._SCHEMA[key] is int:
            io_cli.validate_config(config)
        else:
            with pytest.raises(io_cli.ConfigError):
                io_cli.validate_config(config)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    config = {
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
    cfg = out / "sim.cfg"
    cfg.write_text(json.dumps(config))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out / "data")) == 0
    return out


@pytest.fixture(scope="module")
def esd_run(sim_dir):
    """A small network trained by esd-train on the simulated data."""
    data = sim_dir / "data"
    rf = sim_dir / "esd.rf"
    assert run_cli("response", "--dataset", str(data / "train.sdv"), "--out", str(rf)) == 0
    cfg = sim_dir / "esd.cfg"
    cfg.write_text(json.dumps({"seed": 9, "model": {
        "nside_in": 4, "depth": 2, "channels": [4, 6], "fodf_degree": 8,
        "max_epochs": 2, "batch_size": 14, "lr": 0.001,
    }}))
    ckpt = sim_dir / "esd.ckpt"
    assert run_cli("esd-train", "--train", str(data / "train.sdv"),
                   "--val", str(data / "val.sdv"), "--response", str(rf),
                   "--out", str(ckpt), "--config", str(cfg)) == 0
    return {"data": data, "rf": rf, "cfg": cfg, "ckpt": ckpt}


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
        model = en.EsdModel(io_cli._model_config(config), 1)
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
