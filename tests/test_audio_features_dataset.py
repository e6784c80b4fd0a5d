"""Fingerprint extraction and the synthetic Speech Commands dataset."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.audio.dsp import NUM_BINS
from repro.audio.features import FeatureConfig, FingerprintExtractor, frame_view
from repro.audio.speech_commands import (
    CORE_WORDS,
    LABELS,
    UNKNOWN_WORDS,
    PlaybackSource,
    SpeechCommandsConfig,
    SyntheticSpeechCommands,
    label_index,
)
from repro.errors import AudioError


@pytest.fixture(scope="module")
def extractor():
    return FingerprintExtractor()


@pytest.fixture(scope="module")
def dataset():
    return SyntheticSpeechCommands()


# --- feature geometry (the paper's recipe) --------------------------------

def test_paper_feature_geometry(extractor):
    config = extractor.config
    assert config.window_samples == 480      # 30 ms @ 16 kHz
    assert config.shift_samples == 320       # 20 ms @ 16 kHz
    assert config.num_frames == 49
    assert config.features_per_frame == 43   # ceil(256 / 6)
    assert extractor.output_shape == (49, 43)


def test_fingerprint_shape_and_dtype(extractor, dataset):
    clip = dataset.render("yes", 0)
    fingerprint = extractor.extract(clip.samples)
    assert fingerprint.shape == (49, 43)
    assert fingerprint.dtype == np.uint8


def test_extract_deterministic(extractor, dataset):
    clip = dataset.render("go", 1)
    assert np.array_equal(extractor.extract(clip.samples),
                          extractor.extract(clip.samples))


def test_extract_pads_short_clip(extractor):
    short = np.ones(8000, dtype=np.int16) * 500
    fingerprint = extractor.extract(short)
    assert fingerprint.shape == (49, 43)


def test_extract_truncates_long_clip(extractor):
    long_clip = np.ones(20000, dtype=np.int16) * 500
    truncated = extractor.extract(long_clip)
    exact = extractor.extract(long_clip[:16000])
    assert np.array_equal(truncated, exact)


def test_extract_rejects_wrong_dtype(extractor):
    with pytest.raises(AudioError):
        extractor.extract(np.zeros(16000, dtype=np.float64))


def test_frame_features_rejects_wrong_length(extractor):
    with pytest.raises(AudioError):
        extractor.frame_features(np.zeros(100, dtype=np.int16))


def test_frame_features_matches_extract(extractor, dataset):
    clip = dataset.render("up", 2)
    fingerprint = extractor.extract(clip.samples)
    first_frame = extractor.frame_features(clip.samples[:480])
    assert np.array_equal(fingerprint[0], first_frame)


def test_float_and_fixed_features_are_close(dataset):
    fixed = FingerprintExtractor(use_fixed_point=True)
    floating = FingerprintExtractor(use_fixed_point=False)
    clip = dataset.render("left", 0)
    a = fixed.extract(clip.samples).astype(int)
    b = floating.extract(clip.samples).astype(int)
    assert np.abs(a - b).mean() < 3.0


def test_custom_feature_config():
    config = FeatureConfig(window_ms=20, shift_ms=10)
    extractor = FingerprintExtractor(config)
    assert extractor.output_shape == (99, 43)
    fingerprint = extractor.extract(np.zeros(16000, dtype=np.int16))
    assert fingerprint.shape == (99, 43)


@pytest.mark.parametrize("geometry, message", [
    ({"window_ms": 40}, "window of 640 samples, need 2..512"),
    ({"window_ms": 0}, "window of 0 samples, need 2..512"),
    ({"shift_ms": 0}, "shift of 0 samples, need >= 1"),
    ({"clip_duration_ms": 10}, "clip of 160 samples is shorter than"),
    ({"average_bins": 0}, "average_bins 0, need >= 1"),
], ids=["window-too-long", "window-too-short", "zero-shift", "clip-too-short",
        "zero-average-bins"])
def test_feature_config_refuses_geometry_the_front_end_cannot_run(
        geometry, message):
    with pytest.raises(AudioError, match=message):
        FeatureConfig(**geometry)


def test_feature_config_runs_at_the_edges_it_accepts():
    config = FeatureConfig(window_ms=32, clip_duration_ms=32, average_bins=1)
    assert config.window_samples == config.clip_samples == 512
    fingerprint = FingerprintExtractor(config).extract(
        np.full(512, 900, dtype=np.int16))
    assert fingerprint.shape == (1, NUM_BINS)


def _sequential_average(power: np.ndarray, k: int) -> np.ndarray:
    """The zero-padded group mean, summed left to right in Python."""
    rows = []
    for row in power.tolist():
        padded = row + [0.0] * ((-len(row)) % k)
        groups = []
        for start in range(0, len(padded), k):
            total = 0.0
            for value in padded[start:start + k]:
                total += value
            groups.append(total / k)
        rows.append(groups)
    return np.array(rows)


@pytest.mark.parametrize("k", range(1, 9))
def test_compress_matches_the_zero_padded_mean(k):
    rng = np.random.default_rng(k)
    extractor = FingerprintExtractor(FeatureConfig(average_bins=k))
    pad = (-NUM_BINS) % k
    # Integer powers below 2^40, as the fixed-point path makes them:
    # every sum is exact, so numpy's mean is the reference in any order.
    whole = rng.integers(0, 2 ** 40, size=(7, NUM_BINS)).astype(np.float64)
    # Fractional powers of mixed magnitude, as the float path makes them.
    fractional = rng.random((7, NUM_BINS)) * rng.choice(
        [1e-3, 1.0, 1e6, 1e12], size=(7, NUM_BINS))
    for power in (whole, fractional):
        power[rng.random(power.shape) < 0.2] = 0.0
        padded = np.concatenate([power, np.zeros((7, pad))], axis=1)
        mean = padded.reshape(7, -1, k).mean(axis=2)
        sequential = _sequential_average(power, k)
        assert np.array_equal(extractor._average(power), sequential)
        if power is whole:
            assert np.array_equal(sequential, mean)
        want = np.clip(FingerprintExtractor._LOG_GAIN
                       * np.log1p(sequential / 64.0), 0, 255).astype(np.uint8)
        assert np.array_equal(extractor._compress(power), want)


def test_extract_frames_a_non_contiguous_clip(extractor):
    wide = np.random.default_rng(11).integers(
        -20000, 20000, size=32000).astype(np.int16)
    clip = wide[::2]
    assert not clip.flags.c_contiguous
    assert np.array_equal(extractor.extract(clip),
                          extractor.extract(np.ascontiguousarray(clip)))


@pytest.mark.parametrize("geometry", [{}, {"window_ms": 20, "shift_ms": 10},
                                      {"window_ms": 32, "shift_ms": 7}])
def test_frame_view_is_a_read_only_view_of_each_frame(geometry):
    config = FeatureConfig(**geometry)
    samples = np.arange(2 * 16000, dtype=np.int32).astype(np.int16)[::2]
    frames = frame_view(samples, config, config.num_frames)
    window, shift = config.window_samples, config.shift_samples
    assert frames.shape == (config.num_frames, window)
    assert not frames.flags.writeable
    assert np.shares_memory(frames, samples)
    for index in (0, 1, config.num_frames - 1):
        assert np.array_equal(frames[index],
                              samples[index * shift:index * shift + window])


def test_frame_view_refuses_frames_past_its_samples():
    config = FeatureConfig()
    samples = np.zeros(config.clip_samples, dtype=np.int16)
    with pytest.raises(AudioError, match="50 frames do not fit 16000"):
        frame_view(samples, config, config.num_frames + 1)
    with pytest.raises(AudioError):
        frame_view(samples[:config.window_samples - 1], config, 1)
    with pytest.raises(AudioError):
        frame_view(samples, config, 0)


# --- dataset --------------------------------------------------------------

def test_labels_are_the_paper_12_classes():
    assert LABELS[:2] == ["silence", "unknown"]
    assert set(CORE_WORDS) == {"yes", "no", "up", "down", "left", "right",
                               "on", "off", "stop", "go"}
    assert len(LABELS) == 12
    assert len(UNKNOWN_WORDS) == 20
    assert not set(UNKNOWN_WORDS) & set(CORE_WORDS)


def test_label_index():
    assert label_index("silence") == 0
    assert label_index("go") == 11
    with pytest.raises(AudioError):
        label_index("banana")


def test_render_is_deterministic(dataset):
    a = dataset.render("yes", 7)
    b = dataset.render("yes", 7)
    assert np.array_equal(a.samples, b.samples)
    assert a.utterance_id == b.utterance_id


def test_render_differs_across_indices_and_words(dataset):
    assert not np.array_equal(dataset.render("yes", 0).samples,
                              dataset.render("yes", 1).samples)
    assert not np.array_equal(dataset.render("yes", 0).samples,
                              dataset.render("no", 0).samples)


def test_render_clip_properties(dataset):
    clip = dataset.render("stop", 3)
    assert clip.samples.shape == (16000,)
    assert clip.samples.dtype == np.int16
    assert clip.label == "stop"
    assert clip.word == "stop"
    assert clip.label_idx == label_index("stop")


def test_silence_has_lower_energy_than_speech(dataset):
    silence = dataset.render("silence", 0)
    speech = dataset.render("yes", 0)
    assert (np.abs(silence.samples.astype(float)).mean()
            < np.abs(speech.samples.astype(float)).mean())


def test_unknown_uses_distractor_words(dataset):
    words = {dataset.render("unknown", i).word for i in range(20)}
    assert words <= set(UNKNOWN_WORDS)
    assert len(words) > 3  # draws from many distractors


def test_render_imports_no_scipy():
    """Rendering a clip needs numpy only: scipy.signal alone would add
    about 78 MB to every process that synthesizes speech."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys\n"
            "from repro.audio.speech_commands import SyntheticSpeechCommands\n"
            "SyntheticSpeechCommands().render('yes', 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def test_render_rejects_unknown_label(dataset):
    with pytest.raises(AudioError):
        dataset.render("banana", 0)


def test_seed_changes_audio():
    a = SyntheticSpeechCommands(SpeechCommandsConfig(seed=1))
    b = SyntheticSpeechCommands(SpeechCommandsConfig(seed=2))
    assert not np.array_equal(a.render("yes", 0).samples,
                              b.render("yes", 0).samples)


def test_which_set_is_stable_partition(dataset):
    for utterance_id in ["yes/00001", "no/00042", "go/00007"]:
        assignments = {dataset.which_set(utterance_id) for _ in range(3)}
        assert len(assignments) == 1
    buckets = {dataset.which_set(f"yes/{i:05d}") for i in range(60)}
    assert buckets == {"training", "validation", "testing"}


def test_split_sizes_and_purity(dataset):
    split = dataset.split("validation", per_class=3)
    assert len(split) == 3 * len(LABELS)
    for utterance in split:
        assert dataset.which_set(utterance.utterance_id) == "validation"


def test_splits_are_disjoint(dataset):
    train_ids = {u.utterance_id for u in dataset.split("training", 5)}
    test_ids = {u.utterance_id for u in dataset.split("testing", 5)}
    assert not train_ids & test_ids


def test_split_rejects_unknown_name(dataset):
    with pytest.raises(AudioError):
        dataset.split("holdout", 1)


def test_paper_test_subset_composition(dataset):
    subset = dataset.paper_test_subset(per_class=10)
    assert len(subset) == 100
    labels = {u.label for u in subset}
    assert labels == set(CORE_WORDS)
    assert "silence" not in labels and "unknown" not in labels


# --- playback source -----------------------------------------------------

def test_playback_source_empty_returns_silence():
    source = PlaybackSource()
    assert np.array_equal(source.record(100),
                          np.zeros(100, dtype=np.int16))
