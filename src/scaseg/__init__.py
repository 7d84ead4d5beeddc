"""Successive cross-attention segmentation decoder with a minimal autodiff
core, analytic cost model, and desk-scale training harness."""

from .config import (DecoderConfig, EncoderConfig, FullConfig, TrainConfig,
                     load_config)
from .costmodel import CostReport, ablation_table, cost_report
from .data import PALETTE, SyntheticSample, gen_synthetic_dataset
from .decoder import (AggregatedSemanticsExtractor, Decoder, ResizedFeatures,
                      ScaStage, SegModel, SegmentationHead, SelfOnConcatExtractor,
                      SemanticCombiner, resize_pyramid)
from .encoder import Encoder, FeaturePyramid
from .errors import (ConfigError, DataError, NumericalError, ShapeError,
                     UsageError)
from .gradcheck import gradient_check
from .layers import (BatchNorm2d, Conv2d, ConvBN, LayerNorm, Linear, MixFFN,
                     MultiHeadAttention)
from .rng import RandomSource
from .serialization import (load_checkpoint, load_tensor, save_checkpoint,
                            save_tensor)
from .tensor import (Tensor, bilinear_resize, concat, conv2d, log_softmax,
                     matmul, softmax)
from .train import AdamW, cross_entropy, evaluate, miou, poly_lr, train_loop

__version__ = "0.1.0"
