"""attnatr: attention blocks on a small ResNet-18 for SAR target recognition.

The package is self-contained: a float64 autodiff tensor core, the layers a
ResNet-18 needs, SE / ECA / CBAM attention blocks, Grad-CAM saliency maps,
Phoenix-chip and synthetic-dataset IO, and an accuracy/robustness harness.
"""

from .tensor import Tensor, no_grad, relu, sigmoid, concat
from .layers import (BatchNorm2d, Conv1d, Conv2d, Linear, SgdOptimizer,
                     conv1d_same, conv2d, global_pool, linear, pool2d,
                     softmax_cross_entropy)
from .attention import CbamBlock, EcaBlock, SeBlock, eca_kernel_size, make_attention
from .backbone import ModelConfig, ResNet, build_resnet18, desk_config
from .explain import SaliencyMap, gradcam_map, overlay_heatmap
from .data import (Dataset, SarImage, SynthConfig, load_dataset,
                   parse_mstar_phoenix, synth_dataset, synth_sample, write_image)
from .harness import (PerturbSpec, TrialReport, format_report, perturb_gaussian,
                      run_protocol, top1_accuracy, train_model)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"

__all__ = [
    "Tensor", "no_grad", "relu", "sigmoid", "concat",
    "BatchNorm2d", "Conv1d", "Conv2d", "Linear", "SgdOptimizer",
    "conv1d_same", "conv2d", "global_pool", "linear", "pool2d",
    "softmax_cross_entropy",
    "CbamBlock", "EcaBlock", "SeBlock", "eca_kernel_size", "make_attention",
    "ModelConfig", "ResNet", "build_resnet18", "desk_config",
    "SaliencyMap", "gradcam_map", "overlay_heatmap",
    "Dataset", "SarImage", "SynthConfig", "load_dataset",
    "parse_mstar_phoenix", "synth_dataset", "synth_sample", "write_image",
    "PerturbSpec", "TrialReport", "format_report", "perturb_gaussian",
    "run_protocol", "top1_accuracy", "train_model",
    "SplitMix64", "derive_seed",
]
