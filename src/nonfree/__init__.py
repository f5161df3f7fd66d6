"""Explicit non-free tensors: constructions, moment maps, Kempf-Ness flows,
and machine-checkable non-freeness certificates."""

__version__ = "0.1.0"

from .certify import (
    NonFreenessReport,
    ObstructionWitness,
    certify_family,
    certify_named,
    stabilizer_blocks,
    two_column_obstruction,
)
from .construct import build_W, build_family_tensor, gram_defects, s0_tensor
from .family import FamilyData, family_data, gamma_support, halfspace_check
from .flow import FlowResult, NessCertificate, flow, ness_minimality
from .moment import HermTriple, WeylPoint, infinitesimal_action, moment_map, spec_point
from .named import mu_diagonals, named_tensor, ness_form, scaling_triple
from .polytope import HalfspaceCert, HullRefutation, hull_refute, outer_halfspace
from .reduction import ReductionResult, extract_Wa, reduce_to_s0
from .supports import FreeSupportWitness, downward_closure, is_free_support
from .tensor import GroupTriple, SupportSet, Tensor3, apply, support

__all__ = [name for name in dir() if not name.startswith("_")]
