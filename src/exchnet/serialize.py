"""JSON forms for the public objects and a minimal schema validator.

Rational values serialize as strings like ``"5/12"`` (or ``"1"``); floats
stay JSON numbers.  Parsers accept both; the object built from a document
that mixes them holds floats.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .dependence import DependenceGraph, dependence_graph_from_edges
from .estimation import FitReport
from .graphs import class_from_key, dyad_label, dyads
from .mobius import ClassDistribution, JointTable, MobiusVector


def encode_value(v):
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    return float(v)


# Tokens such as "1e-300" may carry an exponent up to this magnitude (the
# int digit limit): ``Fraction`` builds 10**|exponent| before any refusal.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def _past_exponent_cap(v: str) -> bool:
    """Whether ``Fraction`` reads v with an exponent past MAX_EXPONENT in
    magnitude: told by reading v with the exponent's digits zeroed, which
    keeps its syntax and builds no large power."""
    m = _EXPONENT.search(v)
    try:  # an exponent past int's digit limit is refused by Fraction at once
        if m is None or abs(int(m[1])) <= MAX_EXPONENT:
            return False
        Fraction(v[: m.start(1)] + re.sub(r"\d", "0", m[1]) + v[m.end(1) :])
    except ValueError:
        return False
    return True


def decode_value(v):
    """A Fraction from a string or int (refused beyond float range or past
    the exponent cap), else a float; "p" and "p/q" strings of ASCII digits
    skip ``Fraction``'s regex."""
    if isinstance(v, (str, int)):
        p, slash, q = v.partition("/") if isinstance(v, str) else ("", "", "")
        fast = (p + q).isascii() and p.isdigit() and (q.isdigit() or not slash)
        short = str(v) if len(str(v)) <= 24 else f"{str(v)[:20]}..."
        if not fast and isinstance(v, str) and _past_exponent_cap(v):
            raise ValueError(
                f"value {short} has an exponent past {MAX_EXPONENT} in magnitude"
            )
        try:
            x = Fraction(int(p), int(q) if slash else 1) if fast else Fraction(v)
            float(x)
        except ZeroDivisionError:
            raise ValueError(f"{v!r} has a zero denominator") from None
        except OverflowError:
            raise ValueError(f"value {short} is beyond float range") from None
        return x
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
    errors = validate_against_schema(obj, _shipped_schema(schema))
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
        "q": {u.key(): encode_value(v) for u, v in cd.q.items() if v},
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


# each shipped schema is read once, into a cache that no caller can reach
_shipped_schema = lru_cache(maxsize=8)(load_schema)


# JSON Schema type name -> test of a parsed JSON value
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_against_schema(obj, schema) -> list:
    """Structural validation: type, required, properties, items, enum.

    Returns a list of violation strings (empty when valid).  Supports the
    subset of JSON Schema the shipped schemas use.
    """
    errors: list = []

    def where(path) -> str:
        # "$" or (parent, step format, key or index): spelled out on a violation
        return path if path == "$" else where(path[0]) + path[1].format(path[2])

    def walk(value, sch, path):
        t = sch.get("type")
        if t:
            types = t if isinstance(t, list) else [t]
            if not any(_JSON_TYPES[tt](value) for tt in types):
                errors.append(f"{where(path)}: expected {t}, got {type(value).__name__}")
                return
        if "enum" in sch and value not in sch["enum"]:
            errors.append(f"{where(path)}: {value!r} not in enum")
        if isinstance(value, dict):
            for req in sch.get("required", []):
                if req not in value:
                    errors.append(f"{where(path)}: missing required key {req!r}")
            props = sch.get("properties", {})
            for k, v in value.items():
                if k in props:
                    walk(v, props[k], (path, ".{}", k))
        if isinstance(value, list) and "items" in sch:
            for i, v in enumerate(value):
                walk(v, sch["items"], (path, "[{}]", i))

    walk(obj, schema, "$")
    return errors


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
