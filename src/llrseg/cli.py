"""Command-line front-end: synth | train-inlier | train-uem | score | eval
| selfcheck.

Every command is deterministic per (config, inputs, seed) and echoes its
fully resolved configuration into the output directory. Sub-seeds are
derived by hashing the root seed together with a module label so streams
never collide.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .anomalymix import DatasetConfig, load_split, make_dataset
from .datamodel import (
    ModelBundle,
    ScoreMap,
    load_feature_map,
    load_label_map,
    load_outlier_map,
    load_score_map,
    save_score_map,
)
from .errors import FreezeViolation, LlrsegError
from .inference import SCORERS, score_image, tile_plan
from .inlier import InlierConfig, train_inlier
from .metrics import ScoredPixels, evaluation_report, miou
from .uem import LlrConfig, train_uem, verify_freeze
from .selfcheck import run_selfcheck


def derive_seed(root_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of a config field's default: a float
    also takes an int, no number a bool, a tuple a list as long whose items fit."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_fits(v, d) for v, d in zip(value, default)))
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def _check_fits(where: str, value, default) -> None:
    if not _fits(value, default):
        expected = (f"a list of {len(default)} values like {list(default)}"
                    if isinstance(default, tuple) else f"of type {type(default).__name__}")
        raise LlrsegError(f"config key {where} must be {expected}, not {value!r}")


@dataclass
class InferenceConfig:
    window: int = 64
    stride: int = 32


@dataclass
class RunConfig:
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    inlier: InlierConfig = field(default_factory=InlierConfig)
    uem: LlrConfig = field(default_factory=LlrConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        def build(dc_type, section: dict, where: str):
            if not isinstance(section, dict):
                raise LlrsegError(f"config section {where} must be an object, "
                                  f"not {section!r}")
            if "seed" in section:
                raise LlrsegError(f"config key {where}.seed is not allowed: every "
                                  "sub-seed derives from the root seed; set that")
            unknown = set(section) - {f.name for f in fields(dc_type)}
            if unknown:
                raise LlrsegError(f"unknown config keys in {where}: {sorted(unknown)}")
            defaults = dc_type()
            for key, value in section.items():
                _check_fits(f"{where}.{key}", value, getattr(defaults, key))
            try:
                return dc_type(**{key: tuple(value) if isinstance(value, list) else value
                                  for key, value in section.items()})
            except ValueError as exc:
                raise LlrsegError(f"config section {where}: {exc}") from None

        if not isinstance(raw, dict):
            raise LlrsegError(f"a run configuration is an object, not {raw!r}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise LlrsegError(f"unknown top-level config keys: {sorted(unknown)}")
        _check_fits("seed", raw.get("seed", 0), 0)
        cfg = cls(seed=raw.get("seed", 0))
        for f in fields(cls)[1:]:  # the sections; each one's type is its factory
            if f.name in raw:
                setattr(cfg, f.name, build(f.default_factory, raw[f.name], f.name))
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise LlrsegError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    def resolved(self) -> dict:
        """The configuration as `from_dict` accepts it: without the sub-seeds,
        which derive from the root seed."""
        return {"seed": self.seed, **{
            f.name: {k: v for k, v in asdict(getattr(self, f.name)).items() if k != "seed"}
            for f in fields(self)[1:]}}


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.dataset.seed = derive_seed(cfg.seed, "dataset")
    cfg.inlier.seed = derive_seed(cfg.seed, "inlier")
    cfg.uem.seed = derive_seed(cfg.seed, "uem")
    return cfg


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(cfg.resolved(), indent=2, sort_keys=True), encoding="utf-8")


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    _echo_config(cfg, out)
    manifest = make_dataset(cfg.dataset, out)
    print(f"wrote {len(manifest['scenes'])} scenes to {out}")
    return 0


def cmd_train_inlier(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    _echo_config(cfg, out)
    triples = load_split(args.dataset, "train_inlier")
    dataset = [(f, l) for f, l, _ in triples]
    result = train_inlier(dataset, cfg.dataset.num_classes, cfg.inlier)
    result.bundle.save(out / "stage1")
    report = {"heldout_miou": result.miou, "loss_history": result.loss_history,
              "warnings": result.warnings, "em_counters": result.em_counters}
    (out / "inlier_report.json").write_text(json.dumps(report, indent=2),
                                            encoding="utf-8")
    print(f"stage-1 bundle saved; held-out mIoU = {result.miou:.4f}")
    return 0


def cmd_train_uem(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    _echo_config(cfg, out)
    # loaded unverified on purpose: train_uem owns the freeze contract and
    # reports tampering as a FreezeViolation
    stage1 = ModelBundle.load(args.stage1, verify=False)
    triples = load_split(args.dataset, "train_uem")
    dataset = [(f, o) for f, _, o in triples]
    result = train_uem(stage1, dataset, cfg.uem)
    result.bundle.save(out / "stage2")
    report = {"loss_history": result.loss_history, "em_counters": result.em_counters}
    (out / "uem_report.json").write_text(json.dumps(report, indent=2),
                                         encoding="utf-8")
    print("freeze contract verified: all stage-1 digests unchanged")
    print(f"stage-2 bundle saved to {out / 'stage2'}")
    return 0


def _write_preview(smap: ScoreMap, path: Path) -> None:
    s = smap.scores
    span = s.max() - s.min()
    norm = np.zeros_like(s) if span == 0 else (s - s.min()) / span
    img = (norm * 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    path.write_bytes(header + img.tobytes())


def cmd_score(args) -> int:
    # outputs are named after the input stem, so equal stems would overwrite
    stems: dict[str, list] = {}
    for fpath in args.features:
        stems.setdefault(Path(fpath).stem, []).append(fpath)
    clashes = [paths for paths in stems.values() if len(paths) > 1]
    if clashes:
        raise LlrsegError(
            f"inputs would write the same output file: {clashes}; "
            "score them with one --out each")
    cfg = _load_config(args)
    out = Path(args.out)
    _echo_config(cfg, out)
    stage2 = ModelBundle.load(args.stage2)
    verify_freeze(stage2)
    for fpath in args.features:
        f = load_feature_map(fpath)
        plan = tile_plan(f.height, f.width, cfg.inference.window,
                         cfg.inference.stride)
        smap = score_image(stage2, f, plan, scorer=args.scorer)
        name = Path(fpath).stem
        save_score_map(smap, out / f"{name}.{args.scorer}.smap")
        if args.preview:
            _write_preview(smap, out / f"{name}.{args.scorer}.pgm")
        print(f"scored {fpath} -> {out / f'{name}.{args.scorer}.smap'}")
    return 0


def _check_paired(what: str, a: list, b: list) -> None:
    if len(a) != len(b):
        raise LlrsegError(f"{what}: {len(a)} vs {len(b)} files; they pair one to one")


def cmd_eval(args) -> int:
    _check_paired("--scores / --labels", args.scores, args.labels)
    _check_paired("--pred / --gt", args.pred or [], args.gt or [])
    cfg = _load_config(args)
    out = Path(args.out)
    _echo_config(cfg, out)
    scores, labels = [], []
    for spath, lpath in zip(args.scores, args.labels):
        smap = load_score_map(spath)
        omap = load_outlier_map(lpath)
        sp = ScoredPixels.from_maps(smap, omap)
        scores.append(sp.scores)
        labels.append(sp.labels)
    sp = ScoredPixels(scores=np.concatenate(scores), labels=np.concatenate(labels))
    report = evaluation_report(sp)
    if args.pred:
        values = [miou(load_label_map(p), load_label_map(g), cfg.dataset.num_classes)
                  for p, g in zip(args.pred, args.gt)]
        report["miou"] = float(np.mean(values))
    (out / "eval_report.json").write_text(json.dumps(report, indent=2),
                                          encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


def cmd_selfcheck(args) -> int:
    return 0 if run_selfcheck() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llrseg",
        description="Likelihood-ratio out-of-distribution segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train-inlier", help="train the stage-1 segmentor")
    common(p)
    p.add_argument("--dataset", required=True)
    p.set_defaults(fn=cmd_train_inlier)

    p = sub.add_parser("train-uem", help="train the stage-2 UEM")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--stage1", required=True, help="stage-1 bundle directory")
    p.set_defaults(fn=cmd_train_uem)

    p = sub.add_parser("score", help="score feature maps")
    common(p)
    p.add_argument("--stage2", required=True, help="stage-2 bundle directory")
    p.add_argument("--scorer", choices=SCORERS, default="llr")
    p.add_argument("--preview", action="store_true",
                   help="also write an 8-bit min-max normalized PGM preview")
    p.add_argument("features", nargs="+", help="input .fmap files")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("eval", help="evaluate score maps")
    common(p)
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--labels", nargs="+", required=True,
                   help="binary outlier maps matching --scores")
    p.add_argument("--pred", nargs="*", default=None,
                   help="optional predicted label maps for mIoU")
    p.add_argument("--gt", nargs="*", default=None,
                   help="optional ground-truth label maps for mIoU")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("selfcheck", help="run the verification battery")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FreezeViolation as exc:
        print(f"FreezeViolation: {exc}", file=sys.stderr)
        return 2
    except (LlrsegError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
