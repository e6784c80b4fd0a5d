"""The standard pretrained tiny_conv artifact, trained once and cached.

Every harness (Table I, examples, protocol benches) needs the same
trained model; this module trains it on first use with the paper's
recipe and caches the serialized OMGM bytes plus float weights under the
feature cache directory.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

import numpy as np

from repro.audio.features import FingerprintExtractor
from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands
from repro.tflm.model import Model
from repro.tflm.serialize import deserialize_model, serialize_model
from repro.train.data import default_cache_dir, features_to_float, load_split_features

# Loading the cached artifact needs none of the training stack, so it
# is imported where a network is built or trained.
if TYPE_CHECKING:
    from repro.train.network import TrainableNetwork

__all__ = ["TRAIN_PER_CLASS", "TRAIN_EPOCHS", "standard_model",
           "standard_network", "train_standard_network"]

TRAIN_PER_CLASS = 150
TRAIN_EPOCHS = 30


def _paths(cache_dir: str) -> tuple[str, str, str]:
    import hashlib

    from repro.audio.speech_commands import SpeechCommandsConfig

    # Key the artifact on everything that influences the trained model,
    # so recalibrating the dataset invalidates stale artifacts.
    key = hashlib.sha256("|".join([
        repr(SpeechCommandsConfig()), str(TRAIN_PER_CLASS),
        str(TRAIN_EPOCHS), "v1",
    ]).encode()).hexdigest()[:16]
    base = os.path.join(cache_dir, f"tiny-conv-standard-{key}")
    return base + ".omgm", base + "-weights.npz", base + "-meta.json"


def train_standard_network(dataset: SyntheticSpeechCommands | None = None,
                           extractor: FingerprintExtractor | None = None,
                           verbose: bool = False
                           ) -> tuple[TrainableNetwork, Model, dict]:
    """Train the paper's recipe from scratch; returns (net, int8 model,
    metadata dict with validation accuracy)."""
    from repro.train.convert import convert_tiny_conv_int8
    from repro.train.network import build_tiny_conv
    from repro.train.trainer import TrainConfig, train_network

    dataset = dataset or SyntheticSpeechCommands()
    extractor = extractor or FingerprintExtractor()
    x_train_u8, y_train = load_split_features(
        dataset, extractor, "training", TRAIN_PER_CLASS)
    x_val_u8, y_val = load_split_features(
        dataset, extractor, "validation", 20)
    x_train = features_to_float(x_train_u8)
    x_val = features_to_float(x_val_u8)
    network = build_tiny_conv()
    history = train_network(
        network, x_train, y_train,
        TrainConfig(epochs=TRAIN_EPOCHS, lr_decay_epochs=20, verbose=verbose),
        x_val, y_val)
    model = convert_tiny_conv_int8(network, x_train[:256],
                                   labels=tuple(LABELS))
    meta = {
        "val_accuracy": history.final_val_accuracy,
        "epochs": TRAIN_EPOCHS,
        "per_class": TRAIN_PER_CLASS,
        "parameters": network.parameter_count(),
    }
    return network, model, meta


def standard_model(cache_dir: str | None = None,
                   verbose: bool = False) -> tuple[Model, dict]:
    """Load (or train-and-cache) the standard int8 model."""
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    model_path, _, meta_path = _paths(cache_dir)
    if os.path.exists(model_path) and os.path.exists(meta_path):
        with open(model_path, "rb") as handle:
            model = deserialize_model(handle.read())
        with open(meta_path) as handle:
            return model, json.load(handle)
    network, model, meta = train_standard_network(verbose=verbose)
    with open(model_path, "wb") as handle:
        handle.write(serialize_model(model))
    _, weights_path, _ = _paths(cache_dir)
    _save_network(network, weights_path)
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)
    return model, meta


def standard_network(cache_dir: str | None = None) -> TrainableNetwork:
    """The float network matching :func:`standard_model`."""
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    _, weights_path, _ = _paths(cache_dir)
    if not os.path.exists(weights_path):
        standard_model(cache_dir)  # trains and saves weights
    return _load_network(weights_path)


def _save_network(network: TrainableNetwork, path: str) -> None:
    arrays = {}
    for index, layer in enumerate(network.layers):
        for key, value in layer.params().items():
            arrays[f"{index}:{key}"] = value
    np.savez(path, **arrays)


def _load_network(path: str) -> TrainableNetwork:
    from repro.train.network import build_tiny_conv

    network = build_tiny_conv()
    loaded = np.load(path)
    for slot, array in loaded.items():
        index_text, key = slot.split(":")
        params = network.layers[int(index_text)].params()
        params[key][...] = array
    return network
