"""quadop: exact calculator for binary quadratic operads.

Presentations, Koszul duals, the Dong criterion, Manin white and black
products, di/tri replication, dendriform-style splitting, and a windowed
formal-distribution laboratory, all over exact rationals.
"""

from quadop.core.catalog import catalog, catalog_names, resolve
from quadop.core.free3 import GeneratorSpace, act, s3_closure
from quadop.core.operad import QuadOperad, change_basis, load_operad_file, make_operad
from quadop.core.parser import parse_relation, pretty_print
from quadop.dong import DongReport, dong_verdict
from quadop.errors import InputError, InternalCheckError, QuadopError
from quadop.koszul import dual_operad, verify_jacobi_duality
from quadop.linalg import SubspaceQ
from quadop.locality import LocalityInstance, ResidueSpec, build_instance
from quadop.manin import (
    black_product,
    replicate,
    split,
    verify_black_tensor,
    white_product,
)

__all__ = [
    "DongReport",
    "GeneratorSpace",
    "InputError",
    "InternalCheckError",
    "LocalityInstance",
    "QuadOperad",
    "QuadopError",
    "ResidueSpec",
    "SubspaceQ",
    "act",
    "black_product",
    "build_instance",
    "catalog",
    "catalog_names",
    "change_basis",
    "dong_verdict",
    "dual_operad",
    "load_operad_file",
    "make_operad",
    "parse_relation",
    "pretty_print",
    "replicate",
    "resolve",
    "s3_closure",
    "split",
    "verify_black_tensor",
    "verify_jacobi_duality",
    "white_product",
]

__version__ = "0.1.0"
