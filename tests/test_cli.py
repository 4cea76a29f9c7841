"""Command-line workflow: synth -> train -> score -> eval, plus config rules."""
import json

import numpy as np
import pytest

from llrseg.cli import RunConfig, derive_seed, main
from llrseg.errors import LlrsegError


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

    def test_resolved_has_no_section_seeds(self):
        resolved = RunConfig.from_dict(SMALL_RUN).resolved()
        assert resolved["seed"] == 3
        for section in ("dataset", "inlier", "uem"):
            assert "seed" not in resolved[section]

    def test_round_trip_through_resolved(self):
        cfg = RunConfig.from_dict(SMALL_RUN)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.resolved())))
        assert again.resolved() == cfg.resolved()


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

    def test_per_component_bundles_rejected(self, pipeline_dirs, tmp_path, capsys):
        from llrseg.datamodel import ModelBundle
        from test_bundle import save_per_component

        d = pipeline_dirs
        for stage, name in (("s1", "stage1"), ("s2", "stage2")):
            save_per_component(ModelBundle.load(d[stage] / name), tmp_path / name)
        code = main(["score", "--config", str(d["cfg"]),
                     "--stage2", str(tmp_path / "stage2"), "--out", str(tmp_path / "o"),
                     str(d["eval_scene"] / "features.fmap")])
        assert code == 1
        assert "expected format version 2" in capsys.readouterr().err
        code = main(["train-uem", "--config", str(d["cfg"]),
                     "--dataset", str(d["data"]), "--stage1", str(tmp_path / "stage1"),
                     "--out", str(tmp_path / "o2")])
        assert code == 1
        assert "expected format version 2" in capsys.readouterr().err

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
