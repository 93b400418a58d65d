"""JSON documents for fit results and classifier models.

Matrices are stored as nested lists of Python floats, which round-trip
bit-for-bit through ``json``.  Documents are dumped with sorted keys so
identical inputs produce byte-identical files.
"""

import json
from contextlib import contextmanager

import numpy as np

from .classify import ClassifierModel
from .datamodel import (
    MeanStructure,
    MxvnParams,
    MxvtParams,
    ScatterStructure,
    StructureSpec,
)
from .errors import DataFormatError


def _mat(a):
    return np.asarray(a, dtype=float).tolist()


def _structure_doc(structure):
    return {
        "mean": structure.mean.value,
        "row_scatter": structure.row_scatter.value,
        "col_scatter": structure.col_scatter.value,
    }


def _structure_from(doc):
    return StructureSpec(
        mean=MeanStructure(doc["mean"]),
        row_scatter=ScatterStructure(doc["row_scatter"]),
        col_scatter=ScatterStructure(doc["col_scatter"]),
    )


def _params_doc(params):
    doc = {"M": _mat(params.M), "Sigma": _mat(params.Sigma), "Omega": _mat(params.Omega)}
    if isinstance(params, MxvtParams):
        doc["nu"] = float(params.nu)
    return doc


def _params_from(doc):
    if "nu" in doc:
        return MxvtParams(
            nu=doc["nu"],
            M=np.array(doc["M"]),
            Sigma=np.array(doc["Sigma"]),
            Omega=np.array(doc["Omega"]),
        )
    return MxvnParams(
        M=np.array(doc["M"]), Sigma=np.array(doc["Sigma"]), Omega=np.array(doc["Omega"])
    )


def fit_result_doc(result, family, structure):
    """Serializable document for a single-distribution fit."""
    return {
        "kind": "fit",
        "family": family,
        "structure": _structure_doc(structure),
        "params": _params_doc(result.params),
        "log_lik": float(result.log_lik),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "nu_at_bound": bool(result.nu_at_bound),
        "log_lik_trace": [float(v) for v in result.log_lik_trace],
    }


def dump(doc, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def model_doc(model):
    """Serializable document for a classifier model."""
    return {
        "kind": "classifier",
        "family": model.family,
        "nu_mode": model.nu_mode,
        "pooled": bool(model.pooled),
        "structure": _structure_doc(model.structure),
        "class_labels": [int(c) for c in model.class_labels],
        "priors": [float(v) for v in model.priors],
        "groups": [_params_doc(g) for g in model.groups],
        "train_log_lik": float(model.train_log_lik),
        "param_count": int(model.param_count),
        "bic": float(model.bic),
    }


@contextmanager
def _reading(doc, kind):
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise DataFormatError(f"not a {kind} model document")
    try:
        yield
    except KeyError as exc:
        raise DataFormatError(f"{kind} model document has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise DataFormatError(f"{kind} model document has a wrong-type value: {exc}") from None


def model_from_doc(doc):
    with _reading(doc, "classifier"):
        return ClassifierModel(
            family=doc["family"],
            groups=[_params_from(g) for g in doc["groups"]],
            priors=np.array(doc["priors"]),
            structure=_structure_from(doc["structure"]),
            pooled=doc["pooled"],
            class_labels=list(doc["class_labels"]),
            train_log_lik=doc["train_log_lik"],
            param_count=doc["param_count"],
            bic=doc["bic"],
            nu_mode=doc["nu_mode"],
        )


def params_from_fit_doc(doc):
    with _reading(doc, "fit"):
        return _params_from(doc["params"])
