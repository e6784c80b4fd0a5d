"""Training substrate: numpy backprop, optimizers, the tiny_conv
recipe, dataset feature caching, and TFLM conversion."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "convert": ["convert_tiny_conv_float", "convert_tiny_conv_int8",
                "fingerprint_to_int8"],
    "data": ["default_cache_dir", "features_to_float", "load_split_features"],
    "layers": ["ConvLayer", "DenseLayer", "DropoutLayer", "FlattenLayer",
               "Layer", "MaxPoolLayer", "ReluLayer", "softmax_cross_entropy"],
    "network": ["TrainableNetwork", "build_tiny_conv"],
    "optimizer": ["Adam", "Optimizer", "SgdMomentum"],
    "personalize": ["PersonalizationConfig", "adapt_classifier",
                    "feature_submodel"],
    "watermark": ["WatermarkKey", "bit_error_rate", "embed_watermark",
                  "extract_watermark", "verify_ownership"],
    "zoo": ["ZOO", "build_architecture", "convert_network_int8"],
    "trainer": ["TrainConfig", "TrainHistory", "train_network"],
})
