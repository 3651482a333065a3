"""JSON forms for the public objects and a minimal schema validator.

Rational values serialize as strings like ``"5/12"`` (or ``"1"``); floats
stay JSON numbers.  Parsers accept both; the object built from a document
that mixes them holds floats.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from importlib import resources

from .dependence import DependenceGraph, dependence_graph_from_edges
from .estimation import ClassDistribution, FitReport
from .graphs import class_from_key, dyad_label, dyads
from .mobius import JointTable, MobiusVector


def encode_value(v):
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    return float(v)


def decode_value(v):
    if isinstance(v, (str, int)):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"{v!r} has a zero denominator") from None
    return float(v)


# --- class moments -------------------------------------------------------------


def mobius_to_json(mv: MobiusVector) -> dict:
    return {
        "n": mv.n,
        "z": [
            {"class": u.key(), "z": encode_value(v)} for u, v in mv.in_order()
        ],
    }


def _check(obj, schema: str) -> None:
    """Raise ValueError naming the first violation when ``obj`` is not a
    valid document of the shipped ``schema``."""
    errors = validate_against_schema(obj, load_schema(schema))
    if errors:
        raise ValueError(f"not a {schema} document: {errors[0]}")


def mobius_from_json(obj: dict) -> MobiusVector:
    _check(obj, "zvector")
    z = {}
    for item in obj["z"]:
        u = class_from_key(item["class"])
        if u in z:
            raise ValueError(f"class {u.key()} given twice, again as {item['class']!r}")
        z[u] = decode_value(item["z"])
    return MobiusVector(obj["n"], z)


# --- joint tables ---------------------------------------------------------------


def joint_to_json(jt: JointTable) -> dict:
    return {"n": jt.n, "probs": [encode_value(p) for p in jt.probs]}


def joint_from_json(obj: dict) -> JointTable:
    _check(obj, "joint")
    return JointTable(obj["n"], tuple(decode_value(p) for p in obj["probs"]))


# --- dependence graphs -----------------------------------------------------------


def depgraph_to_json(dep: DependenceGraph) -> dict:
    labels = [dyad_label(d) for d in dyads(dep.n)]
    return {
        "n": dep.n,
        "kind": dep.kind,
        "edges": [[labels[a], labels[b]] for a, b in dep.edge_pairs()],
    }


def depgraph_from_json(obj: dict) -> DependenceGraph:
    _check(obj, "depgraph")
    return dependence_graph_from_edges(
        obj["n"], obj["kind"], [tuple(e) for e in obj["edges"]]
    )


# --- distributions and fit reports ------------------------------------------------


def class_distribution_to_json(cd: ClassDistribution) -> dict:
    return {
        "n": cd.n,
        "q": {u.key(): encode_value(v) for u, v in cd.in_order() if v},
    }


def fit_report_to_json(fr: FitReport) -> dict:
    out = {
        "family": fr.family,
        "status": fr.status,
        "loglik": fr.log_likelihood if math.isfinite(fr.log_likelihood) else None,
        "constraint_residual": fr.constraint_residual,
        "iterations": fr.iterations,
        "z": None,
        "q": None,
    }
    if fr.log_likelihood_upper is not None:
        out["loglik_upper"] = fr.log_likelihood_upper
    if fr.z is not None:
        out["z"] = {u.key(): encode_value(v) for u, v in fr.z.in_order()}
    if fr.q is not None:
        out["q"] = class_distribution_to_json(fr.q)["q"]
    if fr.nu is not None:
        out["nu"] = dict(fr.nu)
    return out


def extend_report_to_json(rep) -> dict:
    out = {
        "feasible": rep.feasible,
        "m": rep.m,
        "method": rep.method,
        "certificate": None,
        "infeasibility_margin": None,
        "worst_constraint": rep.worst_constraint,
    }
    if rep.certificate is not None:
        out["certificate"] = class_distribution_to_json(rep.certificate)
    if rep.infeasibility_margin is not None:
        out["infeasibility_margin"] = encode_value(rep.infeasibility_margin)
    return out


# --- schema shipping and validation ------------------------------------------------


def load_schema(name: str) -> dict:
    text = (
        resources.files("exchnet").joinpath(f"schemas/{name}.json").read_text()
    )
    return json.loads(text)


def validate_against_schema(obj, schema) -> list:
    """Structural validation: type, required, properties, items, enum.

    Returns a list of violation strings (empty when valid).  Supports the
    subset of JSON Schema the shipped schemas use.
    """
    errors: list = []

    def walk(value, sch, path):
        t = sch.get("type")
        if t:
            ok = {
                "object": lambda v: isinstance(v, dict),
                "array": lambda v: isinstance(v, list),
                "string": lambda v: isinstance(v, str),
                "number": lambda v: isinstance(v, (int, float))
                and not isinstance(v, bool),
                "integer": lambda v: isinstance(v, int)
                and not isinstance(v, bool),
                "boolean": lambda v: isinstance(v, bool),
                "null": lambda v: v is None,
            }
            types = t if isinstance(t, list) else [t]
            if not any(ok[tt](value) for tt in types):
                errors.append(f"{path}: expected {t}, got {type(value).__name__}")
                return
        if "enum" in sch and value not in sch["enum"]:
            errors.append(f"{path}: {value!r} not in enum")
        if isinstance(value, dict):
            for req in sch.get("required", []):
                if req not in value:
                    errors.append(f"{path}: missing required key {req!r}")
            props = sch.get("properties", {})
            for k, v in value.items():
                if k in props:
                    walk(v, props[k], f"{path}.{k}")
        if isinstance(value, list) and "items" in sch:
            for i, v in enumerate(value):
                walk(v, sch["items"], f"{path}[{i}]")

    walk(obj, schema, "$")
    return errors


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
