"""The three workloads: their inputs, set-up, one measured pass, and the
checks on every output.

Every llrseg command goes through the public entry point `llrseg.cli.main`,
in-process, one call at a time. Inputs are generated by `synth` from the
run's root seed; the CLI derives every sub-seed itself.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from llrseg import cli
from llrseg.datamodel import (
    IGNORE,
    ModelBundle,
    load_feature_map,
    load_outlier_map,
    load_score_map,
)
from llrseg.errors import LlrsegError
from llrseg.inference import score_image, tile_plan
from llrseg.inlier import inlier_from_bundle, max_inlier_logit
from llrseg.metrics import ScoredPixels, average_precision, fpr_at_tpr
from llrseg.uem import llr_score, uem_forward, uem_from_bundle

# The SMAP of one frame must equal, to this absolute tolerance, the LLR
# composed from whole-frame terms without going through llrseg.inference.
COMPOSITION_ATOL = 1e-12


class StepFailed(Exception):
    """A command or check failed so the rest of the pass cannot run."""


class Ops:
    """Counts checked operations; each failed one is kept with a reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    def absorb(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def run_cli(ops: Ops, argv: list) -> float:
    """One in-process `llrseg` command. Returns its wall time; a non-zero
    exit code is a failed operation and stops the pass."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # the benchmark must report, not crash
            code = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if not ops.check(f"llrseg {argv[0]} exits 0", code == 0,
                     f"exit {code!r}; stderr: {err.getvalue().strip()[-300:]}"):
        raise StepFailed(argv[0])
    return elapsed


def write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return path


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_bundle(ops: Ops, path: Path) -> ModelBundle:
    try:
        bundle = ModelBundle.load(path, verify=True)
    except (OSError, ValueError, KeyError, LlrsegError) as exc:
        ops.check(f"bundle {path.name} reloads with verify=True", False, repr(exc))
        raise StepFailed(str(path)) from exc
    ops.check(f"bundle {path.name} reloads with verify=True", True)
    return bundle


def check_smaps(ops: Ops, out_dir: Path, inputs: list[Path]) -> list[Path]:
    """Each input must yield exactly one finite SMAP of its own H x W."""
    written = sorted(out_dir.glob("*.smap"))
    paths = []
    for feat in inputs:
        path = out_dir / f"{feat.stem}.llr.smap"
        what = f"one finite SMAP of the input's size for {feat.name}"
        try:
            f = load_feature_map(feat)
            smap = load_score_map(path)  # rejects non-finite payloads
        except (OSError, LlrsegError) as exc:
            ops.check(what, False, repr(exc))
            raise StepFailed(str(path)) from exc
        ok = smap.scores.shape == (f.height, f.width) and len(written) == len(inputs)
        if not ops.check(what, ok, f"shape {smap.scores.shape} vs {(f.height, f.width)}, "
                                   f"{len(written)} SMAPs for {len(inputs)} inputs"):
            raise StepFailed(str(path))
        paths.append(path)
    return paths


def run_eval(ops: Ops, config: Path, out: Path, smaps: list[Path],
             labels: list[Path]) -> tuple[float, dict]:
    """Time `eval`; its positives + negatives must cover every non-ignored
    pixel passed in (`eval` pairs --scores and --labels with zip)."""
    elapsed = run_cli(ops, ["eval", "--config", config, "--out", out,
                            "--scores", *smaps, "--labels", *labels])
    report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
    expected = sum(int((load_outlier_map(p).labels != IGNORE).sum()) for p in labels)
    counted = report["counts"]["positives"] + report["counts"]["negatives"]
    if not ops.check("eval counts every non-ignored pixel", counted == expected,
                     f"{counted} counted, {expected} passed in"):
        raise StepFailed("eval")
    return elapsed, report


def pass_fingerprint(stage2: ModelBundle, smaps: list[Path]) -> str:
    """SHA-256 over the stage-2 manifest's tensor digests and the SMAPs."""
    h = hashlib.sha256()
    for name, meta in sorted(stage2.manifest["tensors"].items()):
        h.update(f"{name}:{meta['digest']}\n".encode())
    for path in smaps:
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class PassResult:
    """Timings and outputs of one measured pass."""
    dataset: int                 # index of the panel dataset it ran on
    times: dict                  # seconds per timed command group
    score_s: float               # the part of eval_s spent in `score`
    pixels: int                  # frame pixels scored
    report: dict                 # eval_report.json
    fingerprint: str
    stage2: Path
    config: Path
    frames: list = field(default_factory=list)  # (features, labels, smap)

    @property
    def measured_s(self) -> float:
        return sum(self.times.values())


def _scene_paths(dataset: Path, split: str) -> list[Path]:
    manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
    return [dataset / s["path"] for s in manifest["scenes"] if s["split"] == split]


class TrainWorkload:
    """A panel of datasets, each from its own root seed. Set-up: `synth`
    for every dataset. Measured pass: train-inlier -> train-uem -> score
    (llr) on each eval scene -> eval, on the next dataset of the panel.

    Training cost depends on the data (up to 2.3x between seeds for the
    generative stage 1), so a run averages over as many datasets as fit."""

    setup_repeats = 5

    def __init__(self, overrides: dict, panel: int):
        self.overrides = overrides
        self.max_passes = panel

    def prepare(self, ops: Ops, seed: int, out: Path) -> dict:
        start = time.perf_counter()
        for j in range(self.max_passes):
            root_seed = cli.derive_seed(seed, f"perfbench.pipeline.{j}")
            config = write_config(out / f"{j:02d}" / "run.json",
                                  {"seed": root_seed, **self.overrides})
            run_cli(ops, ["synth", "--config", config, "--out", out / f"{j:02d}" / "data"])
        return {"setup_s": time.perf_counter() - start}

    def measure_pass(self, ops: Ops, inputs: Path, out: Path, dataset: int) -> PassResult:
        config = inputs / f"{dataset:02d}" / "run.json"
        data = inputs / f"{dataset:02d}" / "data"
        times = {}
        times["train_inlier_s"] = run_cli(ops, [
            "train-inlier", "--config", config, "--dataset", data,
            "--out", out / "stage1"])
        check_bundle(ops, out / "stage1" / "stage1")
        times["train_uem_s"] = run_cli(ops, [
            "train-uem", "--config", config, "--dataset", data,
            "--stage1", out / "stage1" / "stage1", "--out", out / "stage2"])
        stage2 = check_bundle(ops, out / "stage2" / "stage2")
        # one invocation and one --out per scene: every eval input is named
        # features.fmap, and `score` names outputs after the input stem
        scenes = _scene_paths(data, "eval")
        score_s, smaps, pixels = 0.0, [], 0
        for i, scene in enumerate(scenes):
            feat = scene / "features.fmap"
            score_s += run_cli(ops, [
                "score", "--config", config, "--stage2", out / "stage2" / "stage2",
                "--scorer", "llr", "--out", out / f"scores-{i:02d}", feat])
            smaps += check_smaps(ops, out / f"scores-{i:02d}", [feat])
            pixels += int(np.prod(load_feature_map(feat).data.shape[1:]))
        labels = [scene / "outliers.lmap" for scene in scenes]
        eval_s, report = run_eval(ops, config, out / "eval", smaps, labels)
        times["eval_s"] = score_s + eval_s
        frames = list(zip([s / "features.fmap" for s in scenes], labels, smaps))
        return PassResult(dataset=dataset, times=times, score_s=score_s, pixels=pixels,
                          report=report, fingerprint=pass_fingerprint(stage2, smaps),
                          stage2=out / "stage2" / "stage2", config=config,
                          frames=frames)


class ScoreTilesWorkload:
    """Set-up: a generative stage-2 bundle trained on a short schedule, and
    128x128 frames from the same scene spec, each saved under its own name.
    Measured pass: one `score --scorer llr` over all frames with the default
    tile plan (window 64, stride 32: 9 tiles per frame), then `eval`. Every
    pass scores the same frames; scoring cost barely depends on the data."""

    setup_repeats = 3
    max_passes = 100
    frames = 3
    # the epoch count does not change the cost of scoring
    train_overrides = {"dataset": {"splits": [2, 2, 0]},
                       "inlier": {"epochs": 1}, "uem": {"epochs": 1}}
    frame_overrides = {"dataset": {"height": 128, "width": 128,
                                   "splits": [0, 0, frames]}}

    def prepare(self, ops: Ops, seed: int, out: Path) -> dict:
        # the dataset sub-seed, hence the scene spec, depends only on the
        # root seed, so training scenes and frames share class means and bank
        train_cfg = write_config(out / "train.json", {"seed": seed, **self.train_overrides})
        frame_cfg = write_config(out / "run.json", {"seed": seed, **self.frame_overrides})
        start = time.perf_counter()
        run_cli(ops, ["synth", "--config", train_cfg, "--out", out / "data"])
        run_cli(ops, ["synth", "--config", frame_cfg, "--out", out / "frames"])
        train_inlier_s = run_cli(ops, [
            "train-inlier", "--config", train_cfg, "--dataset", out / "data",
            "--out", out / "stage1"])
        train_uem_s = run_cli(ops, [
            "train-uem", "--config", train_cfg, "--dataset", out / "data",
            "--stage1", out / "stage1" / "stage1", "--out", out / "stage2"])
        inputs = out / "inputs"
        inputs.mkdir()
        for i, scene in enumerate(_scene_paths(out / "frames", "eval")):
            shutil.copyfile(scene / "features.fmap", inputs / f"frame-{i:03d}.fmap")
            shutil.copyfile(scene / "outliers.lmap", inputs / f"frame-{i:03d}.lmap")
        elapsed = time.perf_counter() - start
        check_bundle(ops, out / "stage1" / "stage1")
        check_bundle(ops, out / "stage2" / "stage2")
        return {"setup_s": elapsed, "train_inlier_s": train_inlier_s,
                "train_uem_s": train_uem_s}

    def measure_pass(self, ops: Ops, inputs: Path, out: Path, dataset: int) -> PassResult:
        config = inputs / "run.json"
        stage2_dir = inputs / "stage2" / "stage2"
        feats = sorted((inputs / "inputs").glob("frame-*.fmap"))
        labels = [f.with_suffix(".lmap") for f in feats]
        score_s = run_cli(ops, ["score", "--config", config, "--stage2", stage2_dir,
                                "--scorer", "llr", "--out", out / "scores", *feats])
        smaps = check_smaps(ops, out / "scores", feats)
        eval_s, report = run_eval(ops, config, out / "eval", smaps, labels)
        stage2 = ModelBundle.load(stage2_dir, verify=False)
        pixels = sum(int(np.prod(load_feature_map(f).data.shape[1:])) for f in feats)
        return PassResult(dataset=0, times={"eval_s": score_s + eval_s}, score_s=score_s,
                          pixels=pixels, report=report,
                          fingerprint=pass_fingerprint(stage2, smaps),
                          stage2=stage2_dir, config=config,
                          frames=list(zip(feats, labels, smaps)))


_DISCRIMINATIVE = {"inlier": {"head_kind": "discriminative"},
                   "uem": {"head_kind": "discriminative"}}

WORKLOADS = {
    # generative heads (the defaults) on small datasets: a default-size
    # generative pipeline takes ~20 s, too long to average over datasets
    "train-gen": TrainWorkload(
        {"dataset": {"height": 32, "width": 32, "splits": [2, 2, 1]}}, panel=24),
    # the default DatasetConfig; its cost varies little between datasets
    "train-disc": TrainWorkload(_DISCRIMINATIVE, panel=8),
    "score-tiles": ScoreTilesWorkload(),
}


def whole_frame_terms(stage2: ModelBundle, feat: Path):
    """(features, log p_in, log p_out, max_k F_k) of a whole frame, computed
    from the models directly, not through llrseg.inference."""
    f = load_feature_map(feat)
    inlier = inlier_from_bundle(stage2)
    inlier.frozen = True
    log_in, log_out = uem_forward(uem_from_bundle(stage2), f)
    return f, log_in, log_out, max_inlier_logit(inlier, f)


def check_composition(ops: Ops, result: PassResult) -> None:
    """The first frame's tiled score must match the whole-frame LLR, and its
    SMAP must be that score rounded to float32."""
    stage2 = ModelBundle.load(result.stage2, verify=True)
    feat, _, smap_path = result.frames[0]
    f, log_in, log_out, max_logit = whole_frame_terms(stage2, feat)
    reference = llr_score(log_out, log_in, max_logit).scores
    inf = cli.RunConfig.load(result.config).inference
    tiled = score_image(stage2, f, tile_plan(f.height, f.width, inf.window, inf.stride),
                        scorer="llr").scores
    err = float(np.abs(tiled - reference).max())
    ops.check("tiled LLR matches the whole-frame composition",
              err <= COMPOSITION_ATOL, f"max abs diff {err:.3e}")
    stored = load_score_map(smap_path).scores
    ops.check("SMAP holds the tiled LLR as float32",
              np.array_equal(stored, tiled.astype(np.float32).astype(np.float64)))


def quality_diagnostics(result: PassResult) -> dict:
    """AP / FPR95 of the LLR, ID and OoD scores over the evaluated frames,
    from whole-frame terms. Reported, never gated."""
    stage2 = ModelBundle.load(result.stage2, verify=True)
    scores = {"llr": [], "id": [], "ood": []}
    labels = []
    for feat, lab, _ in result.frames:
        _, log_in, log_out, max_logit = whole_frame_terms(stage2, feat)
        keep = load_outlier_map(lab).labels != IGNORE
        scores["llr"].append((log_out - log_in - max_logit)[keep])
        scores["id"].append(-max_logit[keep])
        scores["ood"].append(log_out[keep])
        labels.append(load_outlier_map(lab).labels[keep])
    y = np.concatenate(labels)
    pixels = {k: ScoredPixels(np.concatenate(v), y) for k, v in scores.items()}
    ap = {k: average_precision(sp) for k, sp in pixels.items()}
    return {
        "metrics.ap_id": ap["id"],
        "metrics.ap_ood": ap["ood"],
        "metrics.fpr95_id": fpr_at_tpr(pixels["id"]),
        "metrics.ap_margin_llr_id": ap["llr"] - ap["id"],
        "metrics.ap_margin_llr_ood": ap["llr"] - ap["ood"],
        "inlier.heldout_miou": float(stage2.manifest["heldout_miou"]),
    }
