"""Synthetic Speech Commands dataset (substitution for Warden'18).

The real dataset (105 k one-second WAVE clips of 30 words, paper §VI)
cannot ship with an offline reproduction, so this module synthesizes
keyword utterances with the acoustic structure that makes the real task
learnable but non-trivial:

* each word is a sequence of 2-4 "phones", each a stack of 2-3 formant
  tones with word-specific center frequencies and trajectories;
* speakers vary pitch (vocal-tract scale), speaking rate, timing offset,
  and loudness;
* clips carry additive babble noise, and the "unknown" class draws from
  18 distractor words, "silence" from pure noise.

Difficulty is calibrated (formant jitter + noise floor) so the paper's
tiny_conv recipe lands in the published ~75 % accuracy band after int8
quantization, preserving the *shape* of Table I.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AudioError


def _stable_hash(text: str) -> int:
    """Process-independent 31-bit hash (``hash()`` is salted per run)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF

__all__ = [
    "CORE_WORDS", "UNKNOWN_WORDS", "LABELS", "label_index",
    "SpeechCommandsConfig", "SyntheticSpeechCommands", "Utterance",
    "PlaybackSource",
]

# The 12-class problem of paper §VI.
CORE_WORDS = ["yes", "no", "up", "down", "left", "right",
              "on", "off", "stop", "go"]
LABELS = ["silence", "unknown"] + CORE_WORDS

# Distractor words (the remaining 20 of the dataset's 30 words).
UNKNOWN_WORDS = [
    "bed", "bird", "cat", "dog", "eight", "five", "four", "happy",
    "house", "marvin", "nine", "one", "seven", "sheila", "six",
    "three", "tree", "two", "wow", "zero",
]


def label_index(label: str) -> int:
    """Index of ``label`` in the 12-class output layout."""
    try:
        return LABELS.index(label)
    except ValueError:
        raise AudioError(f"unknown label {label!r}") from None


# Per-word phone patterns: list of (f1, f2, sweep) center frequencies in
# Hz and a linear sweep factor.  Values are loosely vowel/consonant
# inspired; what matters is that each word has a distinct time-frequency
# trajectory.
def _word_phones(word: str, rng: np.random.Generator) -> list[tuple[float, float, float]]:
    # Deterministic per-word base pattern derived from the word's bytes.
    word_seed = int.from_bytes(word.encode(), "big") % (2 ** 32)
    word_rng = np.random.default_rng(word_seed)
    num_phones = 2 + word_seed % 3
    phones = []
    for _ in range(num_phones):
        f1 = float(word_rng.uniform(250, 900))
        f2 = float(word_rng.uniform(1100, 3200))
        sweep = float(word_rng.uniform(-0.35, 0.35))
        phones.append((f1, f2, sweep))
    return phones


@dataclass(frozen=True)
class SpeechCommandsConfig:
    """Generation parameters; defaults reproduce the paper's setting."""

    sample_rate: int = 16000
    clip_samples: int = 16000
    # Acoustic difficulty knobs.  Calibrated so the paper's tiny_conv
    # recipe lands on Table I's 75 % test accuracy after int8
    # quantization (sweep recorded in EXPERIMENTS.md).
    noise_rms: float = 900.0
    formant_jitter: float = 0.28
    amplitude_range: tuple[float, float] = (1800.0, 7000.0)
    seed: int = 3407


@dataclass(frozen=True)
class Utterance:
    """One labelled clip."""

    samples: np.ndarray = field(repr=False)
    label: str
    word: str
    utterance_id: str

    @property
    def label_idx(self) -> int:
        return label_index(self.label)


class SyntheticSpeechCommands:
    """Deterministic generator with stable train/val/test partitions.

    Mirrors the real dataset's convention of hashing the utterance id to
    pick the split, so an utterance never migrates between splits as the
    requested set size changes.
    """

    def __init__(self, config: SpeechCommandsConfig | None = None) -> None:
        self.config = config or SpeechCommandsConfig()

    # --- signal synthesis ---------------------------------------------------

    @staticmethod
    def speaker_traits(speaker_id: str) -> tuple[float, float]:
        """Stable (vocal_scale, rate) characteristics of one speaker.

        The vocal-tract scale shifts every formant of every word the
        speaker utters — the cue speaker-verification embeddings pick up.
        """
        rng = np.random.default_rng(_stable_hash(f"speaker|{speaker_id}"))
        vocal_scale = float(rng.uniform(0.72, 1.32))
        rate = float(rng.uniform(0.85, 1.15))
        return vocal_scale, rate

    def _synthesize_word(self, word: str, rng: np.random.Generator,
                         speaker: str | None = None) -> np.ndarray:
        cfg = self.config
        phones = _word_phones(word, rng)
        if speaker is None:
            # Anonymous speaker: fresh variability per utterance.
            vocal_scale = rng.uniform(1 - cfg.formant_jitter,
                                      1 + cfg.formant_jitter)
            rate = rng.uniform(0.8, 1.2)
        else:
            base_scale, base_rate = self.speaker_traits(speaker)
            # Small within-speaker variation on top of the fixed traits.
            vocal_scale = base_scale * rng.uniform(0.97, 1.03)
            rate = base_rate * rng.uniform(0.95, 1.05)
        amplitude = rng.uniform(*cfg.amplitude_range)
        word_len = int(cfg.clip_samples * 0.55 * rate)
        word_len = min(word_len, cfg.clip_samples - 1600)
        start = rng.integers(800, cfg.clip_samples - word_len - 400)

        t = np.arange(word_len) / cfg.sample_rate
        phone_len = word_len // len(phones)
        signal = np.zeros(word_len)
        for i, (f1, f2, sweep) in enumerate(phones):
            lo = i * phone_len
            hi = word_len if i == len(phones) - 1 else lo + phone_len
            seg_t = t[lo:hi] - t[lo]
            seg_len = hi - lo
            envelope = np.hanning(seg_len)
            for base, weight in ((f1, 1.0), (f2, 0.6), (f2 * 1.9, 0.25)):
                freq = base * vocal_scale * (
                    1.0 + sweep * seg_t * cfg.sample_rate / max(seg_len, 1) / cfg.sample_rate
                )
                freq = freq * (1.0 + rng.normal(0, 0.01))
                phase = 2 * np.pi * np.cumsum(freq) / cfg.sample_rate
                signal[lo:hi] += weight * envelope * np.sin(phase + rng.uniform(0, 2 * np.pi))
        clip = np.zeros(cfg.clip_samples)
        clip[start:start + word_len] = amplitude * signal / (np.abs(signal).max() + 1e-9)
        return clip

    def _babble_noise(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        white = rng.standard_normal(cfg.clip_samples)
        # Crude pink-ish shaping: one-pole lowpass mixed with white.
        # y[n] = (1 - alpha) * x[n] + alpha * y[n - 1], rounded step for
        # step like lfilter([1 - alpha], [1, -alpha], x), whose package
        # would add ~78 MB of RSS to every process that renders a clip.
        alpha = 0.92
        shaped = np.fromiter(
            itertools.accumulate(((1 - alpha) * white).tolist(),
                                 lambda acc, x: alpha * acc + x),
            dtype=np.float64, count=len(white))
        shaped = shaped / (np.abs(shaped).std() + 1e-9)
        mixed = 0.7 * shaped + 0.3 * white
        return cfg.noise_rms * mixed / (mixed.std() + 1e-9)

    def render(self, label: str, utterance_index: int,
               speaker: str | None = None) -> Utterance:
        """Deterministically synthesize utterance #i of a label.

        With ``speaker`` set, the utterance carries that speaker's fixed
        vocal characteristics (see :meth:`speaker_traits`).
        """
        cfg = self.config
        if label not in LABELS:
            raise AudioError(f"unknown label {label!r}")
        utterance_id = f"{label}/{utterance_index:05d}"
        if speaker is not None:
            utterance_id = f"{speaker}:{utterance_id}"
        rng = np.random.default_rng(
            _stable_hash(f"{cfg.seed}|{utterance_id}"))
        noise = self._babble_noise(rng)
        if label == "silence":
            clip = noise * rng.uniform(0.4, 1.4)
            word = "_silence_"
        else:
            if label == "unknown":
                word = UNKNOWN_WORDS[int(rng.integers(len(UNKNOWN_WORDS)))]
            else:
                word = label
            clip = self._synthesize_word(word, rng, speaker) + noise
        samples = np.clip(clip, -32767, 32767).astype(np.int16)
        return Utterance(samples=samples, label=label, word=word,
                         utterance_id=utterance_id)

    # --- splits ---------------------------------------------------------

    @staticmethod
    def which_set(utterance_id: str) -> str:
        """Stable 80/10/10 split by hashing the utterance id."""
        bucket = _stable_hash(f"split|{utterance_id}") % 100
        if bucket < 80:
            return "training"
        if bucket < 90:
            return "validation"
        return "testing"

    def split(self, split_name: str, per_class: int) -> list[Utterance]:
        """Generate ``per_class`` utterances per label for one split.

        Utterance ids are enumerated per label and filtered by
        :meth:`which_set`, so splits are disjoint by construction.
        """
        if split_name not in ("training", "validation", "testing"):
            raise AudioError(f"unknown split {split_name!r}")
        out = []
        for label in LABELS:
            found = 0
            index = 0
            while found < per_class:
                utterance_id = f"{label}/{index:05d}"
                if self.which_set(utterance_id) == split_name:
                    out.append(self.render(label, index))
                    found += 1
                index += 1
                if index > per_class * 40 + 1000:
                    raise AudioError("split enumeration ran away")
        return out

    def paper_test_subset(self, per_class: int = 10) -> list[Utterance]:
        """The evaluation subset of §VI: 10 test examples per class,
        *excluding* the two rejection classes silence and unknown."""
        subset = [u for u in self.split("testing", per_class)
                  if u.label not in ("silence", "unknown")]
        return subset


class PlaybackSource:
    """Microphone source that plays queued clips, then silence."""

    def __init__(self, sample_rate: int = 16000) -> None:
        self.sample_rate = sample_rate
        self._queue: list[np.ndarray] = []

    def queue_clip(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=np.int16)
        self._queue.append(samples)

    def record(self, num_samples: int) -> np.ndarray:
        out = np.zeros(num_samples, dtype=np.int16)
        filled = 0
        while filled < num_samples and self._queue:
            head = self._queue[0]
            take = min(len(head), num_samples - filled)
            out[filled:filled + take] = head[:take]
            if take == len(head):
                self._queue.pop(0)
            else:
                self._queue[0] = head[take:]
            filled += take
        return out
