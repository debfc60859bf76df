"""Command-line front end.

Subcommands: ``alpha``, ``invariants``, ``construct``, ``classify``,
``enumerate``, ``verify``, ``bounds``.  Graph input comes from a positional
path, ``-i PATH``, or standard input (``-`` or no argument), in graph6
(default, one graph per line) or edge-list text.  Structured output goes to
stdout; diagnostics to stderr.

Exit codes: 0 on success, 1 when a verification target reports failure,
2 on usage errors, unreadable input, or infeasible parameters.

Floats are printed with 12 significant digits, and identical argv (seeds
included) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .enumeration import all_connected_graphs, all_trees, with_cover, with_matching
from .errors import GraphError
from .families import BroomParams, balanced_broom, double_broom, extremal_tree
from .graph import (
    Graph,
    InvariantSummary,
    diameter,
    encode_graph6,
    is_connected,
    is_tree,
    parse_edge_list,
    parse_graph6,
)
from .matching import edge_cover_number, matching_number
from .spectral import algebraic_connectivity, classify_fiedler, fiedler_vector
from .verification import (
    TARGETS,
    _sig12,
    _sig12_str,
    bound_cover,
    bound_matching,
    kirkland_bound,
    verify,
)


class _CliError(Exception):
    """Usage-level problem; reported to stderr with exit code 2."""


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _add_input_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "source",
        nargs="?",
        default=None,
        help="input path, or '-' for stdin (default: stdin)",
    )
    p.add_argument(
        "-i",
        "--input",
        dest="input_opt",
        default=None,
        metavar="PATH",
        help="alternative way to pass the input path",
    )
    p.add_argument(
        "--format",
        choices=("graph6", "edgelist"),
        default="graph6",
        help="input format (default: graph6, one graph per line)",
    )


def _read_source(args: argparse.Namespace) -> str:
    if args.source is not None and args.input_opt is not None:
        raise _CliError("give the input either positionally or via -i, not both")
    source = args.input_opt if args.input_opt is not None else args.source
    if source is None:
        source = "-"
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {source}: {exc}") from None


def _load_graphs(args: argparse.Namespace) -> list[Graph]:
    text = _read_source(args)
    if args.format == "edgelist":
        return [parse_edge_list(text)]
    graphs = [parse_graph6(line.strip()) for line in text.splitlines() if line.strip()]
    if not graphs:
        raise _CliError("no graphs in input")
    return graphs


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def _graph_to_dot(g: Graph) -> str:
    """DOT text with Fiedler values on the vertices; for trees the
    characteristic vertex (doublecircle, zero set filled) or characteristic
    edge (thick) is highlighted."""
    data = fiedler_vector(g)
    cls = classify_fiedler(g, data) if is_tree(g) else None
    zero_set = cls.zero_set if cls is not None and cls.kind == "I" else frozenset()
    char_vertex = (
        cls.characteristic_vertex if cls is not None and cls.kind == "I" else None
    )
    char_edge = (
        frozenset(cls.characteristic_edge)
        if cls is not None and cls.kind == "II"
        else None
    )
    lines = ["graph G {"]
    lines.append(f'  label="alpha = {_sig12_str(data.alpha)}";')
    lines.append("  node [shape=circle];")
    for v in range(g.n):
        attrs = [f'label="{v}\\n{data.vector[v]:+.4f}"']
        if v == char_vertex:
            attrs.append("shape=doublecircle")
        if v in zero_set:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgrey")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.sorted_edges():
        if char_edge is not None and frozenset((u, v)) == char_edge:
            lines.append(f"  {u} -- {v} [penwidth=3];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_alpha(args: argparse.Namespace) -> int:
    graphs = _load_graphs(args)
    if args.output == "csv":
        print("alpha,multiplicity,vector")
    elif args.output != "json":
        raise _CliError("alpha supports --output json or csv")
    for g in graphs:
        data = fiedler_vector(g)
        vector = [_sig12(x) for x in data.vector]
        if args.output == "json":
            print(
                json.dumps(
                    {
                        "alpha": _sig12(data.alpha),
                        "multiplicity": data.multiplicity,
                        "vector": vector,
                    }
                )
            )
        else:
            joined = ";".join(_sig12_str(x) for x in data.vector)
            print(f"{_sig12_str(data.alpha)},{data.multiplicity},{joined}")
    return 0


def _summarize(g: Graph) -> InvariantSummary:
    connected = is_connected(g)
    alpha: float | None = None
    if g.n >= 2:
        alpha = algebraic_connectivity(g) if connected else 0.0
    gamma = None
    if g.n >= 1 and all(g.adjacency[v] for v in range(g.n)):
        gamma = edge_cover_number(g)
    diam = diameter(g) if connected and g.n >= 1 else None
    return InvariantSummary(
        n=g.n,
        m=g.m,
        connected=connected,
        alpha=alpha,
        beta=matching_number(g),
        gamma=gamma,
        diameter=diam,
    )


def _cmd_invariants(args: argparse.Namespace) -> int:
    graphs = _load_graphs(args)
    if args.output == "csv":
        print("n,m,connected,alpha,beta,gamma,diameter")
    elif args.output != "json":
        raise _CliError("invariants supports --output json or csv")
    for g in graphs:
        s = _summarize(g)
        if args.output == "json":
            payload = s.as_dict()
            if "alpha" in payload:
                payload["alpha"] = _sig12(payload["alpha"])
            print(json.dumps(payload))
        else:
            cells = [
                str(s.n),
                str(s.m),
                str(s.connected),
                "" if s.alpha is None else _sig12_str(s.alpha),
                str(s.beta),
                "" if s.gamma is None else str(s.gamma),
                "" if s.diameter is None else str(s.diameter),
            ]
            print(",".join(cells))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "broom":
        g = double_broom(BroomParams(k=args.k, l=args.l, d=args.d))
    elif args.family == "balanced":
        g = balanced_broom(args.n, args.d)
    else:
        g = extremal_tree(args.n, args.beta)
    if args.output == "graph6":
        print(encode_graph6(g))
    elif args.output == "json":
        print(json.dumps({"graph6": encode_graph6(g), "n": g.n, "m": g.m}))
    elif args.output == "dot":
        sys.stdout.write(_graph_to_dot(g))
    else:
        raise _CliError("construct supports --output graph6, json, or dot")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    graphs = _load_graphs(args)
    for g in graphs:
        data = fiedler_vector(g)
        cls = classify_fiedler(g, data)
        if args.output == "json":
            if cls.kind == "I":
                payload = {
                    "kind": "I",
                    "characteristic_vertex": cls.characteristic_vertex,
                    "zero_set": sorted(cls.zero_set),
                }
            else:
                payload = {
                    "kind": "II",
                    "characteristic_edge": list(cls.characteristic_edge),
                }
            print(json.dumps(payload))
        elif args.output == "dot":
            sys.stdout.write(_graph_to_dot(g))
        else:
            raise _CliError("classify supports --output json or dot")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.beta is not None and args.gamma is not None:
        raise _CliError("give at most one of --beta / --gamma")
    stream = all_trees(args.n) if args.kind == "trees" else all_connected_graphs(args.n)
    if args.beta is not None:
        stream = with_matching(stream, args.beta)
    if args.gamma is not None:
        stream = with_cover(stream, args.gamma)
    if args.output == "graph6":
        for g in stream:
            print(encode_graph6(g))
    elif args.output == "json":
        print(json.dumps([encode_graph6(g) for g in stream]))
    else:
        raise _CliError("enumerate supports --output graph6 or json")
    return 0


_VERIFY_PARAM_FLAGS = ("n", "seed", "count", "d", "n_min", "n_max")


def _cmd_verify(args: argparse.Namespace) -> int:
    params = {
        name: getattr(args, name)
        for name in _VERIFY_PARAM_FLAGS
        if getattr(args, name) is not None
    }
    report = verify(args.target, **params)
    if args.output == "json":
        print(report.to_json())
    elif args.output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        raise _CliError("verify supports --output json or csv")
    return 0 if report.passed else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, beta = args.n, args.beta
    gamma = n - beta
    payload: dict = {
        "n": n,
        "beta": beta,
        "gamma": gamma,
        "bound_matching": _sig12(bound_matching(n, beta)),
        "bound_cover": _sig12(bound_cover(n, gamma)),
    }
    dm1 = 2 * beta - 1
    spare = n - dm1
    k, l = (spare + 1) // 2, spare // 2
    if dm1 >= 2 and k >= 1 and l >= 1:
        payload["kirkland"] = {
            "k": k,
            "l": l,
            "dm1": dm1,
            "value": _sig12(kirkland_bound(k, l, dm1)),
        }
    else:
        payload["kirkland"] = None
    if args.output == "json":
        print(json.dumps(payload))
    elif args.output == "csv":
        print("n,beta,gamma,bound_matching,bound_cover,kirkland")
        kirk = payload["kirkland"]
        cell = "" if kirk is None else _sig12_str(kirk["value"])
        print(
            f"{n},{beta},{gamma},{_sig12_str(payload['bound_matching'])},"
            f"{_sig12_str(payload['bound_cover'])},{cell}"
        )
    else:
        raise _CliError("bounds supports --output json or csv")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algconn",
        description="Algebraic connectivity, Fiedler structure, matching "
        "invariants, extremal broom families, enumeration, and verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_alpha = sub.add_parser(
        "alpha", help="algebraic connectivity and Fiedler vector"
    )
    _add_input_arguments(p_alpha)
    p_alpha.add_argument("--output", choices=("json", "csv"), default="json")
    p_alpha.set_defaults(handler=_cmd_alpha)

    p_inv = sub.add_parser("invariants", help="n, m, alpha, beta, gamma, diameter")
    _add_input_arguments(p_inv)
    p_inv.add_argument("--output", choices=("json", "csv"), default="json")
    p_inv.set_defaults(handler=_cmd_invariants)

    p_con = sub.add_parser("construct", help="build a named family member")
    fam = p_con.add_subparsers(dest="family", required=True)
    p_broom = fam.add_parser("broom", help="double broom T(k,l,d)")
    p_broom.add_argument("--k", type=int, required=True)
    p_broom.add_argument("--l", type=int, required=True)
    p_broom.add_argument("--d", type=int, required=True)
    p_balanced = fam.add_parser("balanced", help="balanced broom T_d of order n")
    p_balanced.add_argument("--n", type=int, required=True)
    p_balanced.add_argument("--d", type=int, required=True)
    p_extremal = fam.add_parser(
        "extremal", help="minimizer T_{2*beta-1} for (order, matching number)"
    )
    p_extremal.add_argument("--n", type=int, required=True)
    p_extremal.add_argument("--beta", type=int, required=True)
    for p in (p_broom, p_balanced, p_extremal):
        p.add_argument("--output", choices=("graph6", "json", "dot"), default="graph6")
        p.set_defaults(handler=_cmd_construct)

    p_cls = sub.add_parser("classify", help="Fiedler type of a tree")
    _add_input_arguments(p_cls)
    p_cls.add_argument("--output", choices=("json", "dot"), default="json")
    p_cls.set_defaults(handler=_cmd_classify)

    p_enum = sub.add_parser("enumerate", help="stream a graph class as graph6")
    p_enum.add_argument("kind", choices=("trees", "connected"))
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--beta", type=int, default=None, help="matching number filter")
    p_enum.add_argument("--gamma", type=int, default=None, help="edge cover filter")
    p_enum.add_argument("--output", choices=("graph6", "json"), default="graph6")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_ver = sub.add_parser("verify", help="run one verification target")
    p_ver.add_argument("target", choices=TARGETS)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--count", type=int, default=None)
    p_ver.add_argument("--d", type=int, default=None)
    p_ver.add_argument("--n-min", type=int, default=None, dest="n_min")
    p_ver.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_ver.add_argument("--output", choices=("json", "csv"), default="json")
    p_ver.set_defaults(handler=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="closed-form lower bounds for (n, beta)")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--beta", type=int, required=True)
    p_bounds.add_argument("--output", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(handler=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); hand the interpreter
        # a writable stdout so its shutdown flush cannot die on the same pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
