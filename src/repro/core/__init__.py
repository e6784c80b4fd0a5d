"""OMG core: the paper's primary contribution.

The three-phase protocol (preparation / initialization / operation) of
paper §V, with real crypto, a real enclave runtime underneath, and a
recorded transcript for the Fig. 2 benchmark.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "channels": ["ChannelEndpoint", "SecureChannel"],
    "license": ["LicensePolicy", "LicenseState"],
    "omg": ["KeywordSpotterApp", "OmgSession", "RecognitionResult"],
    "parties": ["User", "Vendor", "WrappedKey"],
    "protocol": ["FIG2_STEPS", "Phase", "ProtocolStep", "ProtocolTranscript",
                 "StepIo"],
    "provisioning": ["EncryptedModel", "decrypt_model", "encrypt_model",
                     "flash_path_for"],
    "speaker": ["SpeakerVerifier", "VerificationResult", "equal_error_rate"],
    "speaker_app": ["SpeakerVerifierApp"],
})
