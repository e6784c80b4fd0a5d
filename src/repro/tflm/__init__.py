"""TensorFlow-Lite-for-Microcontrollers-like inference engine.

Static graphs (:mod:`~repro.tflm.model`), int8 quantization matching the
TFLite reference semantics (:mod:`~repro.tflm.quantize`), reference
kernels (:mod:`~repro.tflm.ops`), a binary artifact format
(:mod:`~repro.tflm.serialize`), arena planning (:mod:`~repro.tflm.arena`)
and an interpreter with a calibrated timing model
(:mod:`~repro.tflm.interpreter`).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "arena": ["ArenaPlan", "plan_arena"],
    "interpreter": ["Interpreter", "InvokeStats"],
    "model": ["Model", "ModelMetadata"],
    "ops": ["REGISTRY", "Op", "OpCost"],
    "quantize": ["choose_activation_qparams", "choose_weight_qparams",
                 "multiply_by_quantized_multiplier", "quantize_multiplier",
                 "requantize_int32"],
    "serialize": ["deserialize_model", "serialize_model"],
    "tensor": ["QuantParams", "TensorSpec"],
})
