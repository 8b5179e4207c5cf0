"""Deep-neural-network substrate (pure numpy, from scratch).

Feedforward acoustic-model DNNs with flat-parameter-vector semantics,
backprop gradients, Pearlmutter/Schraudolph Gauss–Newton products, the
paper's two training criteria (cross-entropy and sequence MMI), Glorot
initialization, and the serial SGD baseline.
"""

from repro.nn.activations import (
    IDENTITY,
    RELU,
    SIGMOID,
    TANH,
    Activation,
    get_activation,
    log_softmax,
    softmax,
)
from repro.nn.gauss_newton import GaussNewtonOperator, fd_gauss_newton_vec, fd_gradient
from repro.nn.init import glorot_uniform, initialize_layer, scaled_gaussian
from repro.nn.losses import (
    CrossEntropyLoss,
    Loss,
    SequenceBatchTargets,
    SequenceMMILoss,
    SquaredErrorLoss,
    UtteranceSpan,
    frame_error_count,
)
from repro.nn.lbfgs import LBFGSConfig, LBFGSResult, lbfgs_minimize, lbfgs_train
from repro.nn.network import DNN, ForwardCache
from repro.nn.parallel_sgd import (
    CommCostComparison,
    parameter_averaging_sgd,
    sync_sgd_comm_cost,
    synchronous_minibatch_sgd,
)
from repro.nn.pretrain import PretrainConfig, pretrain_layerwise
from repro.nn.sgd import SGDConfig, SGDResult, sgd_train

__all__ = [
    "IDENTITY",
    "RELU",
    "SIGMOID",
    "TANH",
    "Activation",
    "get_activation",
    "log_softmax",
    "softmax",
    "GaussNewtonOperator",
    "fd_gauss_newton_vec",
    "fd_gradient",
    "glorot_uniform",
    "initialize_layer",
    "scaled_gaussian",
    "CrossEntropyLoss",
    "Loss",
    "SequenceBatchTargets",
    "SequenceMMILoss",
    "SquaredErrorLoss",
    "UtteranceSpan",
    "frame_error_count",
    "DNN",
    "ForwardCache",
    "SGDConfig",
    "SGDResult",
    "sgd_train",
    "LBFGSConfig",
    "LBFGSResult",
    "lbfgs_minimize",
    "lbfgs_train",
    "CommCostComparison",
    "parameter_averaging_sgd",
    "sync_sgd_comm_cost",
    "synchronous_minibatch_sgd",
    "PretrainConfig",
    "pretrain_layerwise",
]
