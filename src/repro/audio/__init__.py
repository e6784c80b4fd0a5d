"""Audio substrate: WAVE I/O, fixed-point DSP, fingerprint features,
and the synthetic Speech Commands dataset."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "dsp": ["FFT_SIZE", "NUM_BINS", "fixed_point_fft", "hann_window_q15",
            "power_spectrum_fixed", "power_spectrum_float"],
    "features": ["FeatureConfig", "FingerprintExtractor"],
    "speech_commands": ["CORE_WORDS", "LABELS", "UNKNOWN_WORDS",
                        "PlaybackSource", "SpeechCommandsConfig",
                        "SyntheticSpeechCommands", "Utterance",
                        "label_index"],
    "streaming": ["CommandRecognizer", "Detection", "RecognizerConfig",
                  "StreamingFeatureExtractor"],
    "wave_io": ["decode_wave", "encode_wave", "read_wave", "write_wave"],
})
