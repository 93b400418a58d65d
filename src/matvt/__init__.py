"""Matrix-variate normal and t estimation, sampling and classification."""

from .datamodel import (
    Ar1Matrix,
    CsMatrix,
    MatrixStack,
    MeanStructure,
    MxvnParams,
    MxvtParams,
    ScatterStructure,
    StructureSpec,
    normalize_identifiability,
    read_matstack,
    write_matstack,
)
from .distributions import (
    make_rng,
    mxvn_logpdf,
    mxvt_logpdf,
    sample_mxvn,
    sample_mxvt,
    sample_wishart,
)
from .errors import DataFormatError, EstimationError, SingularUpdateError
from .mxvn import FitConfig, FitResult, mxvn_fit
from .mxvt import EcmeConfig, mxvt_fit
from .classify import ClassifierModel, evaluate, loocv, predict, scores, train

__all__ = [
    "Ar1Matrix",
    "CsMatrix",
    "MatrixStack",
    "MeanStructure",
    "MxvnParams",
    "MxvtParams",
    "ScatterStructure",
    "StructureSpec",
    "normalize_identifiability",
    "read_matstack",
    "write_matstack",
    "make_rng",
    "mxvn_logpdf",
    "mxvt_logpdf",
    "sample_mxvn",
    "sample_mxvt",
    "sample_wishart",
    "DataFormatError",
    "EstimationError",
    "SingularUpdateError",
    "FitConfig",
    "FitResult",
    "mxvn_fit",
    "EcmeConfig",
    "mxvt_fit",
    "ClassifierModel",
    "train",
    "scores",
    "predict",
    "evaluate",
    "loocv",
]
