"""Shared fixtures: a small end-to-end pipeline trained once per session."""
import numpy as np
import pytest

from llrseg.anomalymix import DatasetConfig, load_split, make_dataset
from llrseg.inlier import InlierConfig, train_inlier
from llrseg.uem import LlrConfig, train_uem


SMALL_DATASET = DatasetConfig(
    num_classes=3,
    feature_dim=8,
    height=32,
    width=32,
    bank_size=4,
    train_bank=3,
    splits=(2, 2, 1),
    seed=7,
)

SMALL_INLIER = InlierConfig(
    decoder_hidden=64,
    decoder_dim=16,
    epochs=2,
    gmm_components=3,
    seed=7,
)

SMALL_UEM = LlrConfig(
    epochs=2,
    projection_dim=16,
    proj_hidden=12,
    gmm_components=3,
    seed=7,
)


@pytest.fixture(scope="session")
def small_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    make_dataset(SMALL_DATASET, out)
    return out


@pytest.fixture(scope="session")
def small_stage1(small_dataset_dir):
    triples = load_split(small_dataset_dir, "train_inlier")
    dataset = [(f, l) for f, l, _ in triples]
    return train_inlier(dataset, SMALL_DATASET.num_classes, SMALL_INLIER)


@pytest.fixture(scope="session")
def small_stage2(small_stage1, small_dataset_dir):
    triples = load_split(small_dataset_dir, "train_uem")
    dataset = [(f, o) for f, _, o in triples]
    return train_uem(small_stage1.bundle, dataset, SMALL_UEM).bundle
