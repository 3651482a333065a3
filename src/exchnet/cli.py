"""Command-line front end.

Exit codes: 0 success, 1 argument or battery failure, 2 invalid parameters,
3 size-cap breach.  Every stochastic subcommand requires a seed and derives
per-sample child seeds as ``seed * 0x9E3779B97F4A7C15 + index`` (mod 2**63),
so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import battery as battery_mod
from .counting import sigma_vector
from .dependence import (
    classify_skeleton,
    global_markov_check,
    skeleton,
)
from .estimation import (
    ErgmSpec,
    FAMILIES,
    degree_collision_classes,
    dissociated_mle,
    ergm_eval,
    ergm_fit,
    ergm_stats,
    exch_mle,
)
from .extendability import dissociated_extendable_check, extendable_check
from .genmodels import (
    MAX_SAMPLE_NODES,
    BetaSpec,
    Graphon,
    MixingSpec,
    beta_sample,
    graphon_sample,
    graphon_z,
    marginal_beta_sample,
    parse_graphon_name,
    parse_graphon_text,
)
from .graphs import (
    LabeledNetwork,
    SizeCapError,
    class_from_key,
    degree_distribution,
    dyad_label,
    dyads,
    format_edge_list,
    num_dyads,
    parse_edge_list,
)
from .serialize import (
    depgraph_from_json,
    depgraph_to_json,
    dump_json,
    extend_report_to_json,
    fit_report_to_json,
    joint_from_json,
    mobius_from_json,
    mobius_to_json,
)

SEED_MIX = 0x9E3779B97F4A7C15


def child_seed(seed: int, index: int) -> int:
    return (seed * SEED_MIX + index) % (1 << 63)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built on the first ``main`` call and reused:
    parsing leaves no state on it."""
    p = _Parser(prog="exchnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stats", help="subgraph counts and family statistics")
    sp.add_argument("edgelist", type=Path)

    sp = sub.add_parser("mle", help="exchangeable MLE of the class moments")
    sp.add_argument("edgelist", type=Path)
    sp.add_argument("--float", dest="as_float", action="store_true")

    sp = sub.add_parser("mle-dissociated", help="dissociated MLE")
    sp.add_argument("edgelist", type=Path)

    sp = sub.add_parser("fit", help="fit a statistic family")
    sp.add_argument("family", choices=sorted(FAMILIES))
    sp.add_argument("edgelist", type=Path)

    sp = sub.add_parser("eval", help="probability under given parameters")
    sp.add_argument("family", choices=sorted(FAMILIES))
    sp.add_argument("nu_json", type=Path)
    sp.add_argument("edgelist", type=Path)

    sp = sub.add_parser("markov", help="global Markov check of a joint table")
    sp.add_argument("joint_json", type=Path)
    sp.add_argument("dep_json", type=Path)

    sp = sub.add_parser("skeleton", help="dependence skeleton of a joint table")
    sp.add_argument("joint_json", type=Path)

    sp = sub.add_parser("extend", help="extendability feasibility")
    sp.add_argument("z_json", type=Path, nargs="?")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dissociated", action="store_true")

    sp = sub.add_parser("sample", help="seeded network samples as edge lists")
    sp.add_argument("model", choices=list(_SAMPLE_OPTIONS))
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--beta", type=str, help="comma-separated node propensities")
    sp.add_argument(
        "--mixing",
        type=str,
        help="point:b | two-point:ba,bb,w | gaussian:mu,sigma",
    )
    sp.add_argument("--phi", type=str, help="const:eta | product:logistic:mu,sigma | grid file")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)

    sp = sub.add_parser("graphon-z", help="kernel moment of a class")
    sp.add_argument("phi", type=str)
    sp.add_argument("cls", type=str, help='class key such as "1-2,2-3"')
    sp.add_argument("--method", choices=["quadrature", "mc"], default="quadrature")
    sp.add_argument("--r", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)

    sp = sub.add_parser("collisions", help="degree-distribution collisions")
    sp.add_argument("--n", type=int, required=True)

    sub.add_parser("paper-examples", help="run the golden example battery")

    for sp in sub.choices.values():
        sp.add_argument("--out", type=Path)
    return p


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _read_network(path: Path) -> LabeledNetwork:
    return parse_edge_list(path.read_text())


def _parse_mixing(spec: str) -> MixingSpec:
    kind, _, rest = spec.partition(":")
    if kind == "point":
        return MixingSpec.point_mass(float(rest))
    if kind == "two-point":
        ba, bb, w = (float(t) for t in rest.split(","))
        return MixingSpec.two_point(ba, bb, w)
    if kind == "gaussian":
        mu, sigma = (float(t) for t in rest.split(","))
        return MixingSpec.gaussian(mu, sigma)
    raise ValueError(f"unknown mixing spec {spec!r}")


def _parse_phi(spec: str) -> Graphon:
    if spec.startswith(("const:", "product:")):
        return parse_graphon_name(spec)
    return parse_graphon_text(Path(spec).read_text())


# Each handler returns what the command prints: a JSON document, or text
# for ``sample`` and ``paper-examples``; ``main`` alone writes it.


def _cmd_stats(args) -> dict:
    x = _read_network(args.edgelist)
    sigma_map = {u.key(): s for u, s in sigma_vector(x).items()}
    families = {}
    for family in sorted(FAMILIES):
        spec = ErgmSpec(family, x.n)
        families[family] = {
            "names": spec.stat_names(),
            "values": list(ergm_stats(spec, x)),
        }
    return {
        "n": x.n,
        "edges": [list(e) for e in x.sorted_edges()],
        "degree_distribution": list(degree_distribution(x).counts),
        "sigma": sigma_map,
        "families": families,
    }


def _cmd_mle(args) -> dict:
    mv = exch_mle(_read_network(args.edgelist))
    return mobius_to_json(mv.to_float() if args.as_float else mv)


def _cmd_mle_dissociated(args) -> dict:
    x = _read_network(args.edgelist)
    return fit_report_to_json(dissociated_mle(x))


def _cmd_fit(args) -> dict:
    x = _read_network(args.edgelist)
    return fit_report_to_json(ergm_fit(ErgmSpec(args.family, x.n), x))


def _cmd_eval(args) -> dict:
    x = _read_network(args.edgelist)
    doc = json.loads(args.nu_json.read_text())
    nu = doc.get("nu") if isinstance(doc, dict) else None
    values = list(nu.values()) if isinstance(nu, dict) else nu
    # bool is an int subclass, so JSON true and false are refused by type
    if not isinstance(values, list) or not all(
        type(v) in (int, float) for v in values
    ):
        raise ValueError('parameter file needs "nu", an object or array of numbers')
    return {"probability": ergm_eval(ErgmSpec(args.family, x.n), nu, x)}


def _cmd_markov(args) -> dict:
    jt = joint_from_json(json.loads(args.joint_json.read_text()))
    dep = depgraph_from_json(json.loads(args.dep_json.read_text()))
    res = global_markov_check(jt, dep)
    ce = None
    if res.counterexample:
        labels = [dyad_label(d) for d in dyads(jt.n)]

        def names(mask):
            return [labels[k] for k in range(len(labels)) if mask >> k & 1]

        a, b, s = res.counterexample
        ce = {"A": names(a), "B": names(b), "S": names(s)}
    return {"markov": res.holds, "counterexample": ce}


def _cmd_skeleton(args) -> dict:
    jt = joint_from_json(json.loads(args.joint_json.read_text()))
    sk = skeleton(jt)
    return {**depgraph_to_json(sk), "classification": classify_skeleton(sk)}


def _cmd_extend(args) -> dict:
    if args.z_json is None:
        raise ValueError("extend needs a moment file")
    mv = mobius_from_json(json.loads(args.z_json.read_text()))
    check = dissociated_extendable_check if args.dissociated else extendable_check
    return extend_report_to_json(check(mv, args.m))


# The options each model reads besides --seed and --count.
_SAMPLE_OPTIONS = {
    "er": ("n", "p"),
    "beta": ("beta",),
    "marginal-beta": ("n", "mixing"),
    "graphon": ("n", "phi"),
}


def _cmd_sample(args) -> str:
    """Checks the arguments and builds the model once, then draws."""
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    reads = _SAMPLE_OPTIONS[args.model]
    for name in dict.fromkeys(sum(_SAMPLE_OPTIONS.values(), ())):
        value = getattr(args, name)
        if name in reads and value in (None, ""):
            raise ValueError(f"{args.model} sampling needs --{name}")
        if name not in reads and value is not None:
            raise ValueError(f"{args.model} sampling does not read --{name}")
    if "n" in reads and args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.model == "beta":
        spec = BetaSpec(tuple(float(t) for t in args.beta.split(",")))
        draw = functools.partial(beta_sample, spec)
    elif args.model == "marginal-beta":
        draw = functools.partial(marginal_beta_sample, args.n, _parse_mixing(args.mixing))
    else:
        phi = Graphon.constant(args.p) if args.model == "er" else _parse_phi(args.phi)
        draw = functools.partial(graphon_sample, phi, args.n)
    # the samples are joined before any is written, so their dyads (at least
    # one per sample) are bounded by one sample at the node cap, past which
    # the sampler itself refuses
    n, cap = args.n or len(args.beta.split(",")), num_dyads(MAX_SAMPLE_NODES)
    if args.count > 1 and max(num_dyads(n), 1) * args.count > cap:
        raise SizeCapError(f"sampling supports n(n-1)/2 * count <= {cap}")
    return "\n".join(
        f"# sample {k}\n" + format_edge_list(draw(child_seed(args.seed, k)))
        for k in range(args.count)
    )


# The options each graphon-z method reads; graphon_z gets those given.
_MOMENT_OPTIONS = {"quadrature": ("r",), "mc": ("samples", "seed")}


def _cmd_graphon_z(args) -> dict:
    phi = _parse_phi(args.phi)
    u = class_from_key(args.cls)
    given = {
        name: getattr(args, name)
        for name in ("r", "samples", "seed")
        if getattr(args, name) is not None
    }
    unread = [name for name in given if name not in _MOMENT_OPTIONS[args.method]]
    if unread:
        raise ValueError(f"--method {args.method} does not read --{unread[0]}")
    if args.method == "mc" and args.seed is None:
        raise ValueError("Monte Carlo moments need --seed")
    est = graphon_z(phi, u, method=args.method, **given)
    return {
        "class": u.key(),
        "value": est.value,
        "error": est.error,
        "method": est.method,
    }


def _cmd_collisions(args) -> dict:
    groups = degree_collision_classes(args.n)
    return {
        "n": args.n,
        "groups": [
            {
                "degree_counts": list(
                    degree_distribution(g[0].padded(args.n)).counts
                ),
                "classes": [u.key() for u in g],
            }
            for g in groups
        ],
    }


def _cmd_battery(args) -> tuple:
    """The report text and the exit code: 1 when an item fails."""
    items = battery_mod.run_battery()
    lines = [
        f"{'PASS' if item.ok else 'FAIL'}  {item.name}"
        + (f"  ({item.detail})" if item.detail else "")
        for item in items
    ]
    passed = sum(item.ok for item in items)
    lines.append(f"{passed}/{len(items)} examples passed")
    return "\n".join(lines) + "\n", int(passed < len(items))


_HANDLERS = {
    "stats": _cmd_stats,
    "mle": _cmd_mle,
    "mle-dissociated": _cmd_mle_dissociated,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "markov": _cmd_markov,
    "skeleton": _cmd_skeleton,
    "extend": _cmd_extend,
    "sample": _cmd_sample,
    "graphon-z": _cmd_graphon_z,
    "collisions": _cmd_collisions,
    "paper-examples": _cmd_battery,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        result = _HANDLERS[args.command](args)
        result, code = result if isinstance(result, tuple) else (result, 0)
        _emit(result if isinstance(result, str) else dump_json(result), args.out)
        return code
    except SizeCapError as err:
        sys.stderr.write(f"size cap: {err}\n")
        return 3
    except ValueError as err:
        sys.stderr.write(f"invalid parameters: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"io error: {err}\n")
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
