"""The benchmark's workloads: what each run simulates and which CLI stages it times.

A workload fixes the acquisition, the split sizes and the ordered list of
timed stages. The seed passed on the command line becomes the config
``seed``, so the same seed always yields the same datasets. Every stage is
a ``sphdecon`` CLI call; ``stage_argv`` spells out its arguments.
"""

import os
from dataclasses import dataclass

_SSST = {"shells": [3000.0], "gradients_per_shell": 64, "snr": 30, "tissues": 1}
_MSMT = {"shells": [1000.0, 2000.0, 3000.0], "gradients_per_shell": 32, "snr": 30,
         "tissues": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    acquisition: dict
    splits: dict  # size name -> (train, val, test) voxel counts
    stages: tuple  # timed stages, in order
    model: dict
    # csd_success_rate must reach this on the full-size test split; set
    # below the lowest rate seen over seeds 1-10 (see perfbench/README.md)
    success_floor: float | None

    def config(self, seed: int, size: str) -> dict:
        train, val, test = self.splits[size]
        dataset = dict(self.acquisition, n_voxels=train + val + test,
                       split=[train, val, test])
        config = {"seed": seed, "dataset": dataset}
        if self.model:
            config["model"] = dict(self.model)
        return config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ssst_csd",
            why="classical path: 1 shell x 64 gradients, CSD then peaks then evaluate on "
                "300 test voxels; exercises classical_csd and peaks_metrics, no ESD layer",
            acquisition=_SSST,
            splits={"full": (200, 0, 300), "smoke": (200, 0, 16)},
            stages=("csd", "peaks", "evaluate"),
            model={},
            success_floor=0.52,
        ),
        Workload(
            name="msmt_csd",
            why="3 shells x 32 gradients, 3 tissues: wider CSD system with iso bound pins, "
                "plus KL; the response step needs 5000 train voxels, so set-up is heavy",
            acquisition=_MSMT,
            splits={"full": (5000, 0, 200), "smoke": (5000, 0, 16)},
            stages=("csd", "peaks", "evaluate_kl"),
            model={"tissues": 3},
            success_floor=0.35,
        ),
        Workload(
            name="esd_ssst",
            why="ESD on the ssst acquisition: train 3 Adam steps (batch 32, default lr) "
                "plus validation, then infer 32 voxels; exercises autodiff and _kernels",
            acquisition=_SSST,
            splits={"full": (96, 16, 32), "smoke": (64, 8, 8)},
            stages=("esd-train", "esd-infer"),
            model={"max_epochs": 1},
            success_floor=None,
        ),
    )
}

SETUP_STAGES = ("simulate", "response")


def paths(data_dir: str) -> dict:
    """File names shared by the stages of one run."""
    def join(name):
        return os.path.join(data_dir, name)

    return {
        "config": join("config.json"),
        "data": data_dir,
        "train": join("train.sdv"),
        "val": join("val.sdv"),
        "test": join("test.sdv"),
        "response": join("response.rf"),
        "csd_fodf": join("test_csd.fodf"),
        "csd_peaks": join("test_csd.peaks"),
        "summary": join("csd_summary.json"),
        "checkpoint": join("esd.ckpt"),
        "train_log": join("esd.log"),
        "esd_fodf": join("test_esd.fodf"),
    }


def stage_argv(stage: str, p: dict) -> list:
    """The sphdecon CLI arguments of one stage."""
    cfg = ["--config", p["config"]]
    return {
        "simulate": ["simulate", *cfg, "--out", p["data"]],
        "response": ["response", "--dataset", p["train"], "--out", p["response"], *cfg],
        "csd": ["csd", "--dataset", p["test"], "--response", p["response"],
                "--out", p["csd_fodf"], *cfg],
        "peaks": ["peaks", "--fodf", p["csd_fodf"], "--out", p["csd_peaks"], *cfg],
        "evaluate": ["evaluate", "--peaks", p["csd_peaks"], "--dataset", p["test"],
                     "--out", p["summary"], *cfg],
        # KL needs the fODF itself, so evaluate re-derives peaks from it
        "evaluate_kl": ["evaluate", "--fodf", p["csd_fodf"], "--dataset", p["test"],
                        "--response", p["response"], "--out", p["summary"], *cfg],
        "esd-train": ["esd-train", "--train", p["train"], "--val", p["val"],
                      "--response", p["response"], "--out", p["checkpoint"],
                      "--log", p["train_log"], *cfg],
        "esd-infer": ["esd-infer", "--checkpoint", p["checkpoint"], "--dataset", p["test"],
                      "--out", p["esd_fodf"]],
    }[stage]
