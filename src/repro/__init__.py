"""OFFLINE MODEL GUARD (OMG) — full functional reproduction.

Reproduces "Offline Model Guard: Secure and Private ML on Mobile
Devices" (Bayerl et al., DATE 2020): privacy-preserving keyword
recognition inside a SANCTUARY user-space enclave on a simulated ARM
HiKey 960, with from-scratch AES/RSA, a TFLM-like int8 inference engine,
and the full three-phase provisioning protocol.

Quickstart::

    from repro import quickstart_session
    session, dataset, extractor = quickstart_session()
    clip = dataset.render("yes", 3)
    result = session.recognize_via_microphone(clip.samples)
    print(result.label)

Package map: :mod:`repro.crypto` (primitives), :mod:`repro.hw`
(simulated SoC), :mod:`repro.trustzone` and :mod:`repro.sanctuary`
(TEE stack), :mod:`repro.tflm` (inference engine), :mod:`repro.train`
(training + conversion), :mod:`repro.audio` (DSP + dataset),
:mod:`repro.core` (the OMG protocol), :mod:`repro.attacks`,
:mod:`repro.baselines`, :mod:`repro.eval`.
"""

__version__ = "1.0.0"

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "core.omg": ["KeywordSpotterApp", "OmgSession"],
    "core.parties": ["User", "Vendor"],
    "trustzone.worlds": ["make_platform"],
})
__all__ += ["__version__", "quickstart_session"]


def quickstart_session(seed: bytes = b"quickstart", key_bits: int = 1024):
    """Build a ready-to-use OMG deployment with the pretrained model.

    Returns ``(session, dataset, extractor)`` where the session has
    already completed the preparation and initialization phases.
    """
    from repro.audio import FingerprintExtractor, SyntheticSpeechCommands
    from repro.core import KeywordSpotterApp, OmgSession, User, Vendor
    from repro.eval.pretrained import standard_model
    from repro.trustzone import make_platform

    model, _ = standard_model()
    platform = make_platform(seed=seed, key_bits=key_bits)
    vendor = Vendor("ml-vendor", model, key_bits=key_bits)
    session = OmgSession(platform, vendor, User(), KeywordSpotterApp())
    session.prepare()
    session.initialize()
    return session, SyntheticSpeechCommands(), FingerprintExtractor()
