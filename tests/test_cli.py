"""Command-line workflow: synth -> train -> score -> eval, plus config rules."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llrseg.anomalymix import DatasetConfig
from llrseg.cli import InferenceConfig, RunConfig, derive_seed, main
from llrseg.datamodel import BUNDLE_FORMAT_VERSION
from llrseg.errors import LlrsegError
from llrseg.inlier import HEAD_KINDS, InlierConfig
from llrseg.uem import LlrConfig


SMALL_RUN = {
    "seed": 3,
    "dataset": {
        "num_classes": 3, "feature_dim": 8, "height": 24, "width": 24,
        "bank_size": 4, "train_bank": 2, "splits": [2, 2, 1],
    },
    "inlier": {"decoder_hidden": 48, "decoder_dim": 12, "epochs": 2,
               "gmm_components": 2},
    "uem": {"epochs": 2, "projection_dim": 12, "proj_hidden": 8,
            "gmm_components": 2},
    "inference": {"window": 24, "stride": 12},
}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "dataset") == derive_seed(0, "dataset")

    def test_labels_do_not_collide(self):
        seeds = {derive_seed(0, label) for label in ("dataset", "inlier", "uem")}
        assert len(seeds) == 3

    def test_root_seed_matters(self):
        assert derive_seed(0, "dataset") != derive_seed(1, "dataset")


class TestRunConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(LlrsegError):
            RunConfig.from_dict({"sede": 3})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(LlrsegError):
            RunConfig.from_dict({"dataset": {"hieght": 32}})

    def test_threads_key_rejected(self):
        with pytest.raises(LlrsegError, match="threads"):
            RunConfig.from_dict({"seed": 0, "threads": 1})

    @pytest.mark.parametrize("section", ["dataset", "inlier", "uem"])
    def test_section_seed_rejected(self, section, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 0, section: {"seed": 5}}))
        assert main(["synth", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{section}.seed" in err and "root seed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("train_bank", [0, 8])
    def test_train_bank_that_leaves_a_split_no_bank_exits_1(self, train_bank, tmp_path,
                                                          capsys):
        """Of the default 8 bank members, train_uem scenes draw outliers from
        the first train_bank and eval scenes from the rest."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 0, "dataset": {"train_bank": train_bank}}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: LlrsegError: config section dataset: train_bank")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, rule", [
        ("num_classes", 0, "num_classes must be in [1, 255], got 0"),
        ("num_classes", 256, "num_classes must be in [1, 255], got 256"),
        ("feature_dim", 0, "feature_dim must be >= 1, got 0"),
        ("height", 0, "height must be >= 1, got 0"),
        ("width", -3, "width must be >= 1, got -3"),
        ("bank_size", 0, "bank_size must be >= 1, got 0"),
        ("count_range", [3, 1], "count_range must be (low, high) with 0 <= low <= high, "
                                "got (3, 1)"),
        ("count_range", [-2, -1], "count_range must be (low, high) with 0 <= low <= high, "
                                  "got (-2, -1)"),
        ("min_area", -1.0, "min_area and max_area must satisfy 0 < min_area <= max_area "
                           "<= 1, got -1.0 and 0.1"),
        ("min_area", 0.5, "min_area and max_area must satisfy 0 < min_area <= max_area "
                          "<= 1, got 0.5 and 0.1"),
        ("max_area", 1.5, "min_area and max_area must satisfy 0 < min_area <= max_area "
                          "<= 1, got 0.01 and 1.5"),
        ("min_area", float("nan"), "min_area and max_area must satisfy 0 < min_area <= "
                                   "max_area <= 1, got nan and 0.1"),
        ("splits", [-1, 2, 1], "splits must be scene counts >= 0, got (-1, 2, 1)"),
        ("splits", [4, 4, -3], "splits must be scene counts >= 0, got (4, 4, -3)"),
        ("separation", float("nan"), "separation must be finite and >= 0, got nan"),
        ("separation", float("inf"), "separation must be finite and >= 0, got inf"),
        ("separation", -3.0, "separation must be finite and >= 0, got -3.0"),
    ])
    def test_layout_synth_cannot_make_exits_1(self, tmp_path, capsys, key, value, rule):
        """Caught before any scene: no classes, or a minimum area above the
        maximum, died in NumPy with a traceback, a reversed count range
        pasted its first bound without notice, a negative split count wrote
        no scene of that split, and a NaN separation failed every bank draw."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 0, "dataset": {key: value}}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: LlrsegError: config section dataset: {rule}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("window", 0), ("stride", -3)])
    def test_tiling_no_plan_can_use_exits_1(self, tmp_path, capsys, key, value):
        """Caught by every command that reads the config, not first by
        `score` after it has loaded the bundle."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 0, "inference": {key: value}}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: LlrsegError: config section inference: "
                       f"{key} must be >= 1, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, value", [("uem", 3), ("inlier", 0)])
    def test_fewer_em_pixels_than_components_exits_1(self, tmp_path, capsys, section, value):
        """Sinkhorn needs a pixel per component: such a value used to pass
        the config and fail in training with a message about Sinkhorn's
        internals."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 0,
                                        section: {"gmm_max_pixels_per_class": value}}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: LlrsegError: config section {section}: "
                       f"gmm_max_pixels_per_class must be >= 5, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, key, value", [
        (DatasetConfig(), "height", 0), (InlierConfig(), "head_kind", "linear"),
        (LlrConfig(), "batch_size", 0), (InferenceConfig(), "window", 0),
        (RunConfig(), "seed", 1)])
    def test_a_config_is_a_value(self, config, key, value):
        """A config checks its fields at construction, so none may change
        after it: a changed config is built with `dataclasses.replace`."""
        kept = getattr(config, key)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, key, value)
        assert getattr(config, key) == kept

    def test_resolved_has_no_section_seeds(self):
        resolved = RunConfig.from_dict(SMALL_RUN).resolved()
        assert resolved["seed"] == 3
        for section in ("dataset", "inlier", "uem"):
            assert "seed" not in resolved[section]

    def test_round_trip_through_resolved(self):
        cfg = RunConfig.from_dict(SMALL_RUN)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.resolved())))
        assert again.resolved() == cfg.resolved()


def assert_bundles_rejected(d: dict, bundles: Path, capsys, message: str) -> None:
    """`score` on bundles/stage2 and `train-uem` on bundles/stage1 exit 1
    with `message` and write no output."""
    code = main(["score", "--config", str(d["cfg"]),
                 "--stage2", str(bundles / "stage2"), "--out", str(bundles / "o"),
                 str(d["eval_scene"] / "features.fmap")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not list((bundles / "o").glob("*.smap"))
    code = main(["train-uem", "--config", str(d["cfg"]),
                 "--dataset", str(d["data"]), "--stage1", str(bundles / "stage1"),
                 "--out", str(bundles / "o2")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (bundles / "o2" / "stage2").exists()


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """Run the full command sequence once and return all output paths."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(SMALL_RUN))
    data = root / "data"
    s1 = root / "stage1"
    s2 = root / "stage2"
    scored = root / "scored"

    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["train-inlier", "--config", str(cfg_path),
                 "--dataset", str(data), "--out", str(s1)]) == 0
    assert main(["train-uem", "--config", str(cfg_path),
                 "--dataset", str(data), "--stage1", str(s1 / "stage1"),
                 "--out", str(s2)]) == 0

    eval_scene = data / "scenes" / "0004"
    for scorer in ("llr", "id", "ood"):
        assert main(["score", "--config", str(cfg_path),
                     "--stage2", str(s2 / "stage2"), "--scorer", scorer,
                     "--out", str(scored), str(eval_scene / "features.fmap")]) == 0
    return {"root": root, "cfg": cfg_path, "data": data, "s1": s1,
            "s2": s2, "scored": scored, "eval_scene": eval_scene}


def assert_training_config_exits_1(d, tmp_path, capsys, section, key, value, rule):
    """The training command of `section` exits 1 on `key: value`, before
    writing anything, with `{key} {rule}, got {value!r}`."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**SMALL_RUN, section: {**SMALL_RUN[section], key: value}}))
    out = tmp_path / "o"
    if section == "inlier":
        command = ["train-inlier", "--dataset", str(d["data"])]
    else:
        command = ["train-uem", "--dataset", str(d["data"]),
                   "--stage1", str(d["s1"] / "stage1")]
    code = main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: LlrsegError: config section {section}: "
                   f"{key} {rule}, got {value!r}\n")
    assert not out.exists()


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dirs):
        d = pipeline_dirs
        assert (d["data"] / "manifest.json").exists()
        assert (d["s1"] / "stage1" / "manifest.json").exists()
        assert (d["s1"] / "inlier_report.json").exists()
        assert (d["s2"] / "stage2" / "manifest.json").exists()
        for scorer in ("llr", "id", "ood"):
            assert (d["scored"] / f"features.{scorer}.smap").exists()

    def test_config_echoed(self, pipeline_dirs):
        echoed = json.loads((pipeline_dirs["data"] / "config.json").read_text())
        assert echoed["dataset"]["height"] == 24
        assert "inlier" in echoed and "uem" in echoed

    def test_eval_reports_metrics(self, pipeline_dirs):
        d = pipeline_dirs
        out = d["root"] / "eval"
        assert main(["eval", "--config", str(d["cfg"]), "--out", str(out),
                     "--scores", str(d["scored"] / "features.llr.smap"),
                     "--labels", str(d["eval_scene"] / "outliers.lmap")]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        for key in ("auroc", "ap", "fpr95", "counts"):
            assert key in report
        assert 0.0 <= report["ap"] <= 1.0

    def test_score_preview_written(self, pipeline_dirs):
        d = pipeline_dirs
        out = d["root"] / "preview"
        assert main(["score", "--config", str(d["cfg"]),
                     "--stage2", str(d["s2"] / "stage2"), "--preview",
                     "--out", str(out),
                     str(d["eval_scene"] / "features.fmap")]) == 0
        pgm = (out / "features.llr.pgm").read_bytes()
        assert pgm.startswith(b"P5\n24 24\n255\n")

    def test_frames_scored_in_one_call_equal_frames_scored_alone(self, pipeline_dirs,
                                                                  tmp_path):
        """`score` keeps nothing from one frame to the next: three eval
        frames scored by one call write the bytes that one call each writes."""
        d = pipeline_dirs
        run = {**SMALL_RUN, "dataset": {**SMALL_RUN["dataset"], "splits": [2, 2, 3]}}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        frames = []
        for i, scene in enumerate(s for s in manifest["scenes"] if s["split"] == "eval"):
            frames.append(tmp_path / f"frame{i}.fmap")
            frames[-1].write_bytes(
                (tmp_path / "data" / scene["path"] / "features.fmap").read_bytes())
        assert len(frames) == 3
        score = ["score", "--config", str(d["cfg"]), "--stage2", str(d["s2"] / "stage2")]
        assert main([*score, "--out", str(tmp_path / "together"), *map(str, frames)]) == 0
        for frame in frames:
            assert main([*score, "--out", str(tmp_path / "alone"), str(frame)]) == 0
        for frame in frames:
            name = f"{frame.stem}.llr.smap"
            assert ((tmp_path / "together" / name).read_bytes()
                    == (tmp_path / "alone" / name).read_bytes())

    def test_tampered_stage1_exits_nonzero(self, pipeline_dirs, tmp_path):
        d = pipeline_dirs
        import shutil
        tampered = tmp_path / "stage1"
        shutil.copytree(d["s1"] / "stage1", tampered)
        target = tampered / "decoder.0.weight.fmap"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0x01
        target.write_bytes(bytes(blob))
        code = main(["train-uem", "--config", str(d["cfg"]),
                     "--dataset", str(d["data"]), "--stage1", str(tampered),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_eval_rejects_unpaired_scores(self, pipeline_dirs, tmp_path, capsys):
        d = pipeline_dirs
        smap = str(d["scored"] / "features.llr.smap")
        code = main(["eval", "--config", str(d["cfg"]), "--out", str(tmp_path),
                     "--scores", smap, smap,
                     "--labels", str(d["eval_scene"] / "outliers.lmap")])
        assert code == 1
        assert "2 vs 1" in capsys.readouterr().err
        assert not (tmp_path / "eval_report.json").exists()

    def test_eval_rejects_unpaired_pred_gt(self, pipeline_dirs, tmp_path, capsys):
        d = pipeline_dirs
        labels = str(d["data"] / "scenes" / "0000" / "labels.lmap")
        code = main(["eval", "--config", str(d["cfg"]), "--out", str(tmp_path),
                     "--scores", str(d["scored"] / "features.llr.smap"),
                     "--labels", str(d["eval_scene"] / "outliers.lmap"),
                     "--pred", labels, "--gt", labels, labels])
        assert code == 1
        assert "1 vs 2" in capsys.readouterr().err
        assert not (tmp_path / "eval_report.json").exists()

    def test_score_rejects_colliding_outputs(self, pipeline_dirs, tmp_path, capsys):
        d = pipeline_dirs
        out = tmp_path / "scores"
        code = main(["score", "--config", str(d["cfg"]),
                     "--stage2", str(d["s2"] / "stage2"), "--out", str(out),
                     str(d["data"] / "scenes" / "0000" / "features.fmap"),
                     str(d["data"] / "scenes" / "0001" / "features.fmap")])
        assert code == 1
        assert "same output file" in capsys.readouterr().err
        assert not out.exists()

    def test_train_inlier_rejects_scenes_of_other_channel_counts(self, tmp_path, capsys):
        from llrseg.datamodel import FeatureMap, save_feature_map

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {**SMALL_RUN, "dataset": {**SMALL_RUN["dataset"], "splits": [3, 0, 0]}}))
        data = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        save_feature_map(FeatureMap(np.zeros((18, 24, 24))),
                         data / "scenes" / "0001" / "features.fmap")
        out = tmp_path / "s1"
        assert main(["train-inlier", "--config", str(cfg), "--dataset", str(data),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DimMismatch: scene 1 has 18 channels, scene 0 has 8")
        assert "Traceback" not in err
        assert not (out / "stage1").exists()

    def test_score_rejects_window_zero(self, pipeline_dirs, tmp_path, capsys):
        d = pipeline_dirs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**SMALL_RUN, "inference": {"window": 0}}))
        out = tmp_path / "scores"
        code = main(["score", "--config", str(cfg), "--stage2", str(d["s2"] / "stage2"),
                     "--out", str(out), str(d["eval_scene"] / "features.fmap")])
        assert code == 1
        assert "window must be >= 1" in capsys.readouterr().err
        assert not list(out.glob("*.smap"))

    @pytest.mark.parametrize("command, section, value", [
        ("score", {"inference": {"window": "8"}}, "'8'"),
        ("score", {"inference": {"window": [8]}}, "[8]"),
        ("train-inlier", {"inlier": {"epochs": "2"}}, "'2'"),
        ("train-uem", {"uem": {"epochs": 2.5}}, "2.5"),
        ("synth", {"dataset": {"splits": [1, 1]}}, "[1, 1]"),
    ])
    def test_config_value_of_wrong_type_exits_1(self, pipeline_dirs, tmp_path, capsys,
                                                command, section, value):
        d = pipeline_dirs
        (name, override), = section.items()
        (key, _), = override.items()
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**SMALL_RUN, name: {**SMALL_RUN[name], **override}}))
        inputs = {"synth": [],
                  "train-inlier": ["--dataset", str(d["data"])],
                  "train-uem": ["--dataset", str(d["data"]),
                                "--stage1", str(d["s1"] / "stage1")],
                  "score": ["--stage2", str(d["s2"] / "stage2"),
                            str(d["eval_scene"] / "features.fmap")]}
        out = tmp_path / "o"
        code = main([command, "--config", str(cfg), "--out", str(out), *inputs[command]])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: LlrsegError: config key {name}.{key} must be" in err
        assert err.rstrip().endswith(f"not {value}")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, least", [
        ("inlier", "batch_size", 0, 1),
        ("inlier", "batch_size", -5, 1),
        ("uem", "batch_size", 0, 1),
        ("inlier", "epochs", -1, 0),
        ("uem", "epochs", -2, 0),
        ("inlier", "gmm_components", 0, 1),
        ("uem", "gmm_components", 0, 1),
        ("inlier", "gmm_sinkhorn_iters", -1, 0),
        ("uem", "gmm_sinkhorn_iters", -3, 0),
        ("inlier", "decoder_hidden", 0, 1),
        ("inlier", "decoder_dim", 0, 1),
        ("uem", "proj_hidden", 0, 1),
        ("uem", "projection_dim", -1, 1),
    ])
    def test_training_value_no_loop_can_run_exits_1(self, pipeline_dirs, tmp_path, capsys,
                                                    section, key, value, least):
        assert_training_config_exits_1(pipeline_dirs, tmp_path, capsys, section, key,
                                       value, f"must be >= {least}")

    @pytest.mark.parametrize("section, key, value, rule", [
        ("inlier", "gmm_epsilon", float("nan"), "must be finite and > 0"),
        ("uem", "gmm_epsilon", float("nan"), "must be finite and > 0"),
        ("uem", "gmm_epsilon", float("inf"), "must be finite and > 0"),
        ("uem", "gmm_epsilon", 0.0, "must be finite and > 0"),
        ("inlier", "gmm_epsilon", -0.1, "must be finite and > 0"),
        ("uem", "gmm_momentum", 3.0, "must be in [0, 1]"),
        ("inlier", "gmm_momentum", -0.5, "must be in [0, 1]"),
        ("uem", "gmm_momentum", float("nan"), "must be in [0, 1]"),
    ])
    def test_em_value_no_fit_can_use_exits_1(self, pipeline_dirs, tmp_path, capsys,
                                             section, key, value, rule):
        """Caught before training: a NaN epsilon used to train and then fail
        mid-fit, and a momentum above 1 extrapolated EM without notice."""
        assert_training_config_exits_1(pipeline_dirs, tmp_path, capsys, section, key,
                                       value, rule)

    @pytest.mark.parametrize("section, key, value, rule", [
        ("inlier", "lr", float("nan"), "must be finite and > 0"),
        ("uem", "lr", float("nan"), "must be finite and > 0"),
        ("uem", "lr", float("inf"), "must be finite and > 0"),
        ("inlier", "lr", -1.0, "must be finite and > 0"),
        ("uem", "lr", 0.0, "must be finite and > 0"),
        ("uem", "alpha", float("nan"), "must be finite and >= 0"),
        ("uem", "beta", float("nan"), "must be finite and >= 0"),
        ("uem", "alpha", float("inf"), "must be finite and >= 0"),
        ("uem", "beta", -0.5, "must be finite and >= 0"),
    ])
    def test_rate_or_loss_weight_no_fit_can_use_exits_1(self, pipeline_dirs, tmp_path,
                                                        capsys, section, key, value, rule):
        """Caught before training: a NaN or infinite rate failed mid-fit with a
        traceback, a negative one trained by gradient ascent, and a NaN loss
        weight dropped its term without notice."""
        assert_training_config_exits_1(pipeline_dirs, tmp_path, capsys, section, key,
                                       value, rule)

    @pytest.mark.parametrize("section", ["inlier", "uem"])
    def test_unknown_head_kind_exits_1(self, pipeline_dirs, tmp_path, capsys, section):
        """Caught at config load: an unknown stage-1 kind used to fail only
        after `config.json` was written, and an unknown stage-2 kind passed
        train-inlier."""
        assert_training_config_exits_1(pipeline_dirs, tmp_path, capsys, section,
                                       "head_kind", "linear", f"must be one of {HEAD_KINDS}")
        out = tmp_path / "o"
        assert main(["train-inlier", "--config", str(tmp_path / "run.json"), "--out",
                     str(out), "--dataset", str(pipeline_dirs["data"])]) == 1
        assert "head_kind must be one of" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_not_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"seed": 1,')
        out = tmp_path / "o"
        code = main(["synth", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: LlrsegError: config file {cfg} is not valid JSON")
        assert not out.exists()

    def test_score_rejects_resigned_stage1_tensor(self, pipeline_dirs, tmp_path, capsys):
        from llrseg.datamodel import ModelBundle

        d = pipeline_dirs
        stage2 = ModelBundle.load(d["s2"] / "stage2")
        tensors = dict(stage2.tensors)
        tensors["decoder.0.weight"] = tensors["decoder.0.weight"] + 1.0
        # save() signs the rewritten tensor afresh; frozen_digests keep the old one
        ModelBundle(manifest=stage2.manifest, tensors=tensors).save(tmp_path / "stage2")
        out = tmp_path / "scores"
        code = main(["score", "--config", str(d["cfg"]), "--stage2", str(tmp_path / "stage2"),
                     "--out", str(out), str(d["eval_scene"] / "features.fmap")])
        assert code == 2
        assert "frozen tensor 'decoder.0.weight' digest mismatch" in capsys.readouterr().err
        assert not list(out.glob("*.smap"))

    def test_per_component_bundles_rejected(self, pipeline_dirs, tmp_path, capsys):
        from llrseg.datamodel import ModelBundle
        from test_bundle import save_per_component

        d = pipeline_dirs
        for stage, name in (("s1", "stage1"), ("s2", "stage2")):
            save_per_component(ModelBundle.load(d[stage] / name), tmp_path / name)
        assert_bundles_rejected(d, tmp_path, capsys,
                                f"expected format version {BUNDLE_FORMAT_VERSION}")

    def test_bundles_with_a_stray_entry_rejected(self, pipeline_dirs, tmp_path, capsys):
        from llrseg.datamodel import ModelBundle

        d = pipeline_dirs
        for stage, name in (("s1", "stage1"), ("s2", "stage2")):
            bundle = ModelBundle.load(d[stage] / name)
            ModelBundle(manifest=bundle.manifest,
                        tensors={**bundle.tensors, "extra.weight": np.ones(3)}
                        ).save(tmp_path / name)
        assert_bundles_rejected(d, tmp_path, capsys, "stray bundle entry 'extra.weight'")

    def test_id_scorer_rejects_a_stray_uem_entry(self, pipeline_dirs, tmp_path, capsys):
        """`score --scorer id` reads no UEM tensor, yet builds the UEM, so a
        stray `uem.head.weight` beside the generative head's `uem.head.means`
        fails it as it fails `llr`."""
        from llrseg.datamodel import ModelBundle

        d = pipeline_dirs
        bundle = ModelBundle.load(d["s2"] / "stage2")
        assert "uem.head.means" in bundle.tensors
        ModelBundle(manifest=bundle.manifest,
                    tensors={**bundle.tensors, "uem.head.weight": np.ones((2, 12))}
                    ).save(tmp_path / "stage2")
        code = main(["score", "--config", str(d["cfg"]), "--scorer", "id",
                     "--stage2", str(tmp_path / "stage2"), "--out", str(tmp_path / "o"),
                     str(d["eval_scene"] / "features.fmap")])
        assert code == 1
        assert "stray tensor 'uem.head.weight'" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*.smap"))

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_format_bundles_rejected(self, pipeline_dirs, tmp_path, capsys, version):
        import shutil
        import test_bundle

        d = pipeline_dirs
        for stage, name in (("s1", "stage1"), ("s2", "stage2")):
            shutil.copytree(d[stage] / name, tmp_path / name)
            test_bundle.edit_manifest(tmp_path / name,
                                      getattr(test_bundle, f"as_format_{version}"))
        assert_bundles_rejected(d, tmp_path, capsys, f"has format version {version}, "
                                "expected format version 4; retrain it with this version")

    @pytest.mark.parametrize("version, key", [
        (4, "stage"), (2, "stage"), (2, "feature_dim"), (2, "num_classes")])
    def test_train_uem_rejects_trimmed_stage1_manifest(self, pipeline_dirs, tmp_path,
                                                       capsys, version, key):
        """A stage-1 manifest that lacks a key is a BadBundle before any
        training. Format 4 keeps no dimension, so the dimension keys are cut
        from a format-2 manifest, which the version check rejects."""
        import shutil
        from test_bundle import as_format_2, edit_manifest

        d = pipeline_dirs
        stage1 = tmp_path / "stage1"
        shutil.copytree(d["s1"] / "stage1", stage1)
        if version == 2:
            edit_manifest(stage1, as_format_2)
        edit_manifest(stage1, lambda m: m.pop(key))
        out = tmp_path / "o"
        code = main(["train-uem", "--config", str(d["cfg"]), "--dataset", str(d["data"]),
                     "--stage1", str(stage1), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: BadBundle" in err and "Traceback" not in err
        assert not (out / "stage2").exists() and not (out / "uem_report.json").exists()

    def test_training_reports(self, pipeline_dirs, tmp_path):
        d = pipeline_dirs
        inlier = json.loads((d["s1"] / "inlier_report.json").read_text())
        uem = json.loads((d["s2"] / "uem_report.json").read_text())
        for report, section in ((inlier, "inlier"), (uem, "uem")):
            losses = report["loss_history"]
            assert len(losses) == SMALL_RUN[section]["epochs"]
            assert all(np.isfinite(losses))
            assert isinstance(report["em_counters"], dict)
        again = tmp_path / "stage2"
        assert main(["train-uem", "--config", str(d["cfg"]), "--dataset", str(d["data"]),
                     "--stage1", str(d["s1"] / "stage1"), "--out", str(again)]) == 0
        assert ((again / "uem_report.json").read_bytes()
                == (d["s2"] / "uem_report.json").read_bytes())

    def test_eval_miou_takes_class_count_from_config(self, pipeline_dirs, tmp_path):
        from llrseg.datamodel import LabelMap, save_label_map

        d = pipeline_dirs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 0, "dataset": {"num_classes": 8}}))
        save_label_map(LabelMap(np.array([[0, 0], [7, 7]], dtype=np.uint8)),
                       tmp_path / "gt.lmap")
        save_label_map(LabelMap(np.zeros((2, 2), dtype=np.uint8)), tmp_path / "pred.lmap")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--scores", str(d["scored"] / "features.llr.smap"),
                     "--labels", str(d["eval_scene"] / "outliers.lmap"),
                     "--pred", str(tmp_path / "pred.lmap"),
                     "--gt", str(tmp_path / "gt.lmap")]) == 0
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert report["miou"] == 0.25  # class 0 IoU 0.5, class 7 IoU 0

    def test_eval_miou_rejects_label_past_class_count(self, pipeline_dirs, tmp_path,
                                                      capsys):
        from llrseg.datamodel import LabelMap, save_label_map

        d = pipeline_dirs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 0, "dataset": {"num_classes": 5}}))
        save_label_map(LabelMap(np.array([[5, 6], [7, 5]], dtype=np.uint8)),
                       tmp_path / "gt.lmap")
        save_label_map(LabelMap(np.zeros((2, 2), dtype=np.uint8)), tmp_path / "pred.lmap")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--scores", str(d["scored"] / "features.llr.smap"),
                     "--labels", str(d["eval_scene"] / "outliers.lmap"),
                     "--pred", str(tmp_path / "pred.lmap"),
                     "--gt", str(tmp_path / "gt.lmap")]) == 1
        assert "IllegalLabel: illegal label 5 at position 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval_report.json").exists()

    def test_score_rejects_two_layer_projection(self, pipeline_dirs, tmp_path, capsys):
        import shutil

        d = pipeline_dirs
        stage2 = tmp_path / "stage2"
        shutil.copytree(d["s2"] / "stage2", stage2)
        manifest = json.loads((stage2 / "manifest.json").read_text())
        for name in ("uem.proj.2.weight", "uem.proj.2.bias"):
            manifest["tensors"].pop(name)
        (stage2 / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "scores"
        code = main(["score", "--config", str(d["cfg"]), "--stage2", str(stage2),
                     "--out", str(out), str(d["eval_scene"] / "features.fmap")])
        assert code == 1
        assert "BadBundle: stage-2 model: the projection has 2 layers" in capsys.readouterr().err
        assert not list(out.glob("*.smap"))

    @pytest.mark.parametrize("command", ["score", "train-inlier", "eval"])
    def test_missing_input_file_exits_1(self, pipeline_dirs, tmp_path, capsys, command):
        d = pipeline_dirs
        missing = str(tmp_path / "missing")
        argv = {
            "score": ["--stage2", str(d["s2"] / "stage2"), missing + ".fmap"],
            "train-inlier": ["--dataset", missing],
            "eval": ["--scores", missing + ".smap",
                     "--labels", str(d["eval_scene"] / "outliers.lmap")],
        }[command]
        code = main([command, "--config", str(d["cfg"]), "--out", str(tmp_path / "out"),
                     *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError") and missing in err

    def test_rerun_synth_is_byte_identical(self, pipeline_dirs, tmp_path):
        d = pipeline_dirs
        again = tmp_path / "data2"
        assert main(["synth", "--config", str(d["cfg"]),
                     "--out", str(again)]) == 0
        a = (d["data"] / "scenes" / "0000" / "features.fmap").read_bytes()
        b = (again / "scenes" / "0000" / "features.fmap").read_bytes()
        assert a == b

    def test_echoed_config_reruns_synth_identically(self, pipeline_dirs, tmp_path):
        d = pipeline_dirs
        again = tmp_path / "data2"
        assert main(["synth", "--config", str(d["data"] / "config.json"),
                     "--out", str(again)]) == 0
        scenes = sorted(p.relative_to(d["data"])
                        for p in (d["data"] / "scenes").rglob("*") if p.is_file())
        assert scenes
        for rel in scenes:
            assert (d["data"] / rel).read_bytes() == (again / rel).read_bytes()
        assert ((d["data"] / "config.json").read_bytes()
                == (again / "config.json").read_bytes())


def test_selfcheck_command_passes():
    assert main(["selfcheck"]) == 0


@pytest.mark.parametrize("option", [["--out", "x"], ["--seed", "1"],
                                    ["--config", "run.json"]])
def test_selfcheck_takes_no_options(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_python_m_llrseg_runs_from_source_tree(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "llrseg", "selfcheck"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "[PASS] stitching-equivalence" in done.stdout
