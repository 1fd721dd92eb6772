"""Quiver moduli coordinates and neural-network semantics.

Submodules: `quiver` (combinatorics), `rep` (representations and the hidden
gauge action), `moduli` (orbit coordinates, rank and stability tests),
`thincat` (thin tensor structure), `network` (forward semantics and the
knowledge map), `grad` (losses and reverse-mode gradients), `relu` (momentum
values and balancing), `cli` (command line).
"""

from .quiver import Arrow, Quiver, Path, framing_data, validate
from .rep import (
    DoubleFramedTriple,
    Representation,
    act,
    deframe,
    doubleframe_variant,
    join,
    split,
)
from .moduli import (
    ModuliPoint,
    is_semistable,
    is_simple,
    moduli_dimension,
    project,
    simple_rep_exists,
    verify_resolution_point,
)
from .thincat import ThinRep, check_morphism, inverse, is_invertible, tensor, unit
from .network import NeuralNetwork, forward, knowledge_map, network_matrix, psi_hat
from .grad import GradientRep, backprop, gradient_transform, train
from .relu import balance, level_set_membership, momentum

__all__ = [
    "Arrow",
    "Quiver",
    "Path",
    "framing_data",
    "validate",
    "DoubleFramedTriple",
    "Representation",
    "act",
    "deframe",
    "doubleframe_variant",
    "join",
    "split",
    "ModuliPoint",
    "is_semistable",
    "is_simple",
    "moduli_dimension",
    "project",
    "simple_rep_exists",
    "verify_resolution_point",
    "ThinRep",
    "check_morphism",
    "inverse",
    "is_invertible",
    "tensor",
    "unit",
    "NeuralNetwork",
    "forward",
    "knowledge_map",
    "network_matrix",
    "psi_hat",
    "GradientRep",
    "backprop",
    "gradient_transform",
    "train",
    "balance",
    "level_set_membership",
    "momentum",
]

__version__ = "0.1.0"
