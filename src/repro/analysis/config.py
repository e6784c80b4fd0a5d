"""Repo-specific configuration consumed by the checkers.

Everything the rules treat as "secret", "forbidden", or "a layer" is
declared here rather than hard-coded in rule logic, so adding a rule or
extending one is a config edit plus ~50 lines of visitor code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --- layering ---------------------------------------------------------------

# Import DAG rank per top-level subpackage of ``repro`` (low imports
# nothing above it).  A module may import strictly lower ranks or its
# own package.  ``analysis`` is self-contained by design: the checker
# must be runnable on a broken tree, so it may import only itself.
LAYER_RANKS: dict[str, int] = {
    "errors": 0,
    "hookslot": 0,
    "lazy": 0,
    "faults": 1,
    "obs": 1,
    "sanitizers": 1,
    "crypto": 2,
    "hw": 3,
    "tflm": 4,
    "audio": 4,
    "trustzone": 5,
    "sanctuary": 6,
    "train": 6,
    "core": 7,
    "attacks": 8,
    "baselines": 8,
    "fleet": 8,
    "serve": 8,
    "eval": 9,
    "cli": 10,
    "analysis": 10,
}
ROOT_RANK = 11  # the ``repro`` package root re-exports the top layers
SELF_CONTAINED = frozenset({"analysis"})

# --- determinism ------------------------------------------------------------

# Wall clocks and OS entropy make fault/chaos transcripts unreplayable.
FORBIDDEN_CALLS: dict[str, str] = {
    "time.time": "use the platform VirtualClock (soc.clock.now_ms)",
    "time.time_ns": "use the platform VirtualClock (soc.clock.now_ms)",
    "time.monotonic": "use the platform VirtualClock (soc.clock.now_ms)",
    "time.monotonic_ns": "use the platform VirtualClock (soc.clock.now_ms)",
    "time.perf_counter": "use the platform VirtualClock; wall-clock "
                         "benchmarks need an explicit waiver",
    "time.perf_counter_ns": "use the platform VirtualClock; wall-clock "
                            "benchmarks need an explicit waiver",
    "datetime.datetime.now": "derive timestamps from soc.clock.now_ms",
    "datetime.datetime.utcnow": "derive timestamps from soc.clock.now_ms",
    "datetime.datetime.today": "derive timestamps from soc.clock.now_ms",
    "datetime.date.today": "derive timestamps from soc.clock.now_ms",
    "os.urandom": "use repro.crypto.rng.HmacDrbg(seed)",
    "os.getrandom": "use repro.crypto.rng.HmacDrbg(seed)",
    "uuid.uuid1": "derive identifiers from a seeded HmacDrbg",
    "uuid.uuid4": "derive identifiers from a seeded HmacDrbg",
}

# Modules whose mere import signals hidden global entropy / wall-clock
# state.  ``random`` is the stdlib's implicitly-seeded global Mersenne
# Twister; ``secrets`` wraps os.urandom.
FORBIDDEN_MODULES: dict[str, str] = {
    "random": "use numpy.random.default_rng(seed) or "
              "repro.crypto.rng.HmacDrbg",
    "secrets": "use repro.crypto.rng.HmacDrbg(seed)",
}

# Constructors that take an optional seed and fall back to OS entropy
# when called without one — the call site must pass it explicitly.
SEEDED_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
})

# numpy's module-level RNG functions share one hidden global state.
NUMPY_GLOBAL_RNG = frozenset({
    "bytes", "choice", "normal", "permutation", "rand", "randint",
    "randn", "random", "random_sample", "seed", "shuffle", "standard_normal",
    "uniform",
})

# --- secret taint -----------------------------------------------------------

# Parameters with these names are secret at function entry (AES keys in
# crypto/aes.py and keycache.py, license keys in core/parties.py /
# core/provisioning.py, plaintext model bytes, sealing keys).
SECRET_PARAMS = frozenset({
    "key", "aes_key", "sealing_key", "master_secret", "license_key",
    "secret", "private_key", "model_bytes", "plaintext", "key_schedule",
    "schedule",
})

# Calls whose *result* is secret: key derivation, decryption (output is
# plaintext model/key material), deterministic key generation, and the
# trusted-path audio capture (user privacy, paper property S2).
SECRET_CALLS = frozenset({
    "decrypt_model", "decrypt_oaep", "derive_model_key",
    "deterministic_keypair", "gcm_decrypt", "generate_keypair",
    "key_schedule", "record_audio", "sealing_key_for",
})

# Attribute reads that are secret regardless of the object they hang
# off: long-lived key material held by parties/contexts.
SECRET_ATTRIBUTES = frozenset({
    "_master_secret", "_model_bytes", "private_key", "sealing_key",
    "signing_key",
})

# Attribute reads that are public *geometry* even on secret objects:
# lengths, shapes and declared bit-widths carry no key material, and
# treating them as tainted forced waivers on honest error messages.
PUBLIC_ATTRIBUTES = frozenset({
    # geometry / sizes
    "dtype", "num_bits", "shape", "size",
    # identifiers and classification output (the system's public API
    # surface: recognized label + timing the caller observes anyway)
    "inference_ms", "label", "name",
    # the SoC's virtual clock, which telemetry stamps every span with
    "clock",
})

# Calls that *declassify*: their result is safe even with secret
# arguments (sizes/types, ciphertext, signatures, digests).
DECLASSIFIERS = frozenset({
    "architecture_summary", "bool", "encrypt_model", "encrypt_oaep",
    "fingerprint", "gcm_encrypt", "hkdf", "hkdf_expand", "hkdf_extract",
    "hmac_sha256", "id", "isinstance", "len", "measure", "redact", "seal",
    "seal_at", "sha256", "sign", "stats", "type",
})

# Logging-style method names (flagged when the receiver looks like a
# logger); the repo has no logging framework, but code that grows one
# must not feed it secrets.
LOG_METHODS = frozenset({
    "critical", "debug", "error", "exception", "info", "log", "warning",
})

# Untrusted persistence sinks: anything written here is, by the threat
# model, attacker-readable (flash via OS services, host files).
UNTRUSTED_WRITE_CALLS = frozenset({"store_untrusted", "write_wave"})
UNTRUSTED_WRITE_RECEIVERS = frozenset({"flash"})  # e.g. soc.flash.store

# Telemetry sinks (repro.obs): everything stored in a span or metric is
# exported to normal-world artifacts (Chrome traces, Prometheus text),
# so secret-tainted values must be summarized through ``redact``/``len``
# first.  A call is a telemetry sink when its method name is below AND
# its receiver's dotted path mentions one of the receiver words (a
# ``span``/``tracer``/``metrics``/... object or the ``repro.obs``
# module itself).
TELEMETRY_SINK_METHODS = frozenset({
    "add_event", "inc", "observe", "record_span", "set", "set_attribute",
    "set_attributes", "span", "start_span",
})
TELEMETRY_SINK_RECEIVERS = frozenset({
    "counter", "gauge", "histogram", "meter", "metrics", "obs", "span",
    "telemetry", "tracer",
})

# --- constant-time discipline -----------------------------------------------

# Packages held to the constant-time rule: branching, loop bounds, and
# table indices may not depend on secret data (the cache-timing sinks
# the repro.attacks L1/L2 probes exploit).
CONSTTIME_PACKAGES = frozenset({"crypto"})

# Extra attribute names that are secret *for timing purposes* inside
# crypto code: expanded AES key schedules (both scalar and vectorized)
# and the GHASH multiply-by-H tables derived from H = E_k(0^128) (the
# one product table the scalar kernel and the reference path share,
# the batched sweep's gather planes for H and H^_FOLD_LANES).
CONSTTIME_SECRET_ATTRIBUTES = frozenset({
    "_dk", "_dk_np", "_ek", "_ek_np",
    "_fold_planes", "_planes", "_table",
})

# Table-lookup kernels exempted by qualified name: the table-lookup
# AES is the paper's *subject* (the L1/L2 probes attack exactly these
# lookups), not an oversight, and table-driven GHASH indexes its
# H-derived tables by secret-dependent state bytes the same way.  Every
# entry here must stay justified in ARCHITECTURE.md's waiver-policy
# table.
CONSTTIME_ALLOWLIST = frozenset({
    "repro.crypto.aes.AES._expand_key",
    "repro.crypto.aes.AES._invert_key_schedule",
    "repro.crypto.aes.AES._transform_blocks",
    "repro.crypto.aes.AES.decrypt_block",
    "repro.crypto.aes.AES.encrypt_block",
    "repro.crypto.modes._TableGhash._ghash_scalar",
    "repro.crypto.modes._frame_ghash",
})

# --- zeroization ------------------------------------------------------------

# Registering a fresh secret-bearing region (first argument is a local,
# not an already-owned ``self.<attr>``) creates a scrub obligation.
ZEROIZE_ACQUIRE = frozenset({"lock_region_to_core"})

# Calls that discharge the obligation, directly or via the call graph
# (``panic`` -> ``teardown`` -> ``scrub``).
ZEROIZE_RELEASE = frozenset({"panic", "scrub", "teardown", "unlock_region"})


@dataclass(frozen=True)
class AnalysisConfig:
    """One immutable bundle of the tables above (tests swap pieces)."""

    layer_ranks: dict[str, int] = field(
        default_factory=lambda: dict(LAYER_RANKS))
    root_rank: int = ROOT_RANK
    self_contained: frozenset = SELF_CONTAINED
    forbidden_calls: dict = field(
        default_factory=lambda: dict(FORBIDDEN_CALLS))
    forbidden_modules: dict = field(
        default_factory=lambda: dict(FORBIDDEN_MODULES))
    seeded_constructors: frozenset = SEEDED_CONSTRUCTORS
    numpy_global_rng: frozenset = NUMPY_GLOBAL_RNG
    secret_params: frozenset = SECRET_PARAMS
    secret_calls: frozenset = SECRET_CALLS
    secret_attributes: frozenset = SECRET_ATTRIBUTES
    public_attributes: frozenset = PUBLIC_ATTRIBUTES
    declassifiers: frozenset = DECLASSIFIERS
    consttime_packages: frozenset = CONSTTIME_PACKAGES
    consttime_secret_attributes: frozenset = CONSTTIME_SECRET_ATTRIBUTES
    consttime_allowlist: frozenset = CONSTTIME_ALLOWLIST
    log_methods: frozenset = LOG_METHODS
    untrusted_write_calls: frozenset = UNTRUSTED_WRITE_CALLS
    untrusted_write_receivers: frozenset = UNTRUSTED_WRITE_RECEIVERS
    telemetry_sink_methods: frozenset = TELEMETRY_SINK_METHODS
    telemetry_sink_receivers: frozenset = TELEMETRY_SINK_RECEIVERS
    zeroize_acquire: frozenset = ZEROIZE_ACQUIRE
    zeroize_release: frozenset = ZEROIZE_RELEASE


DEFAULT_CONFIG = AnalysisConfig()
