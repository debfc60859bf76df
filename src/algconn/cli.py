"""Command-line front end.

Subcommands: ``alpha``, ``invariants``, ``construct``, ``classify``,
``enumerate``, ``verify``, ``bounds``.  Graph input comes from a positional
path, or from standard input (``-`` or no argument), in graph6 (default,
one graph per line, any order) or edge-list text.  Structured output goes
to stdout; diagnostics to stderr.

Exit codes: 0 on success, 1 when a verification target reports failure,
2 on usage errors, unreadable input, or infeasible parameters.

Subcommands only build one dict (or list) per record; one writer,
:func:`_print_records`, writes every JSON and CSV line, with the float
rounding (12 significant digits) and the CSV quoting of :mod:`csv`.
Identical argv (seeds included) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Iterable

from .enumeration import all_connected_graphs, all_trees, with_cover, with_matching
from .errors import EmptyClassWarning, GraphError
from .families import BroomParams, balanced_broom, double_broom, extremal_tree
from .graph import (
    Graph,
    diameter,
    encode_graph6,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .matching import matching_number
from .spectral import (
    FiedlerClass,
    FiedlerData,
    algebraic_connectivity,
    classify_fiedler,
    fiedler_vector,
)
from .verification import (
    TARGETS,
    _rounded,
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
        default="-",
        help="input path, or '-' for stdin (the default)",
    )
    p.add_argument(
        "--format",
        choices=("graph6", "edgelist"),
        default="graph6",
        help="input format (default: graph6, one graph per line)",
    )


def _read_source(args: argparse.Namespace) -> str:
    if args.source == "-":
        return sys.stdin.read()
    try:
        return Path(args.source).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {args.source}: {exc}") from None


def _load_graphs(args: argparse.Namespace) -> list[Graph]:
    text = _read_source(args)
    if args.format == "edgelist":
        return [parse_edge_list(text)]
    graphs = [parse_graph6(line.strip()) for line in text.splitlines() if line.strip()]
    if not graphs:
        raise _CliError("no graphs in input")
    return graphs


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    """``None`` is empty, a float has 12 significant digits, a list is joined
    by ``;`` and a nested record shows its ``value``."""
    if value is None:
        return ""
    if isinstance(value, float):
        return _sig12_str(value)
    if isinstance(value, list):
        return ";".join(_csv_cell(x) for x in value)
    if isinstance(value, dict):
        return _csv_cell(value["value"])
    return str(value)


def _print_records(
    output: str, columns: tuple[str, ...], records: Iterable, csv_row=dict
) -> None:
    """One JSON line per record, or a CSV header of ``columns`` and one row
    per record, read from ``csv_row(record)`` (a missing key is an empty
    cell).  ``records`` is consumed lazily, so the lines before a failing
    record are still written."""
    if output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
    for record in records:
        if output == "json":
            print(json.dumps(_rounded(record)))
        else:
            row = csv_row(record)
            writer.writerow([_csv_cell(row.get(c)) for c in columns])


def _graph_to_dot(g: Graph, data: FiedlerData, cls: FiedlerClass) -> str:
    """DOT text of a tree with its Fiedler values on the vertices; the
    characteristic vertex (doublecircle, zero set filled) or characteristic
    edge (thick) of ``cls`` is highlighted."""
    char_edge = set(cls.characteristic_edge or ())
    lines = ["graph G {"]
    lines.append(f'  label="alpha = {_sig12_str(data.alpha)}";')
    lines.append("  node [shape=circle];")
    for v in range(g.n):
        attrs = [f'label="{v}\\n{data.vector[v]:+.4f}"']
        if v == cls.characteristic_vertex:
            attrs.append("shape=doublecircle")
        if v in cls.zero_set:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgrey")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.sorted_edges():
        if {u, v} == char_edge:
            lines.append(f"  {u} -- {v} [penwidth=3];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_alpha(args: argparse.Namespace) -> int:
    records = (
        {"alpha": d.alpha, "multiplicity": d.multiplicity, "vector": d.vector.tolist()}
        for d in map(fiedler_vector, _load_graphs(args))
    )
    _print_records(args.output, ("alpha", "multiplicity", "vector"), records)
    return 0


def _summarize(g: Graph) -> dict:
    """n, m and connectivity, then α (``n >= 2``), β, γ (no isolated vertex)
    and the diameter (connected), each key present only where defined."""
    connected = is_connected(g)
    record: dict = {"n": g.n, "m": g.m, "connected": connected}
    if g.n >= 2:
        record["alpha"] = algebraic_connectivity(g) if connected else 0.0
    beta = record["beta"] = matching_number(g)
    if g.n >= 1 and all(g.adjacency):
        record["gamma"] = g.n - beta  # Gallai: the edge cover number
    if connected and g.n >= 1:
        record["diameter"] = diameter(g)
    return record


def _cmd_invariants(args: argparse.Namespace) -> int:
    columns = ("n", "m", "connected", "alpha", "beta", "gamma", "diameter")
    _print_records(args.output, columns, map(_summarize, _load_graphs(args)))
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
        _print_records("json", (), [{"graph6": encode_graph6(g), "n": g.n, "m": g.m}])
    else:
        data = fiedler_vector(g)
        sys.stdout.write(_graph_to_dot(g, data, classify_fiedler(g, data)))
    return 0


def _classification(g: Graph) -> dict:
    """A tree's Fiedler type with its characteristic vertex or edge."""
    cls = classify_fiedler(g, fiedler_vector(g))
    if cls.kind == "I":
        return {
            "kind": "I",
            "characteristic_vertex": cls.characteristic_vertex,
            "zero_set": sorted(cls.zero_set),
        }
    return {"kind": "II", "characteristic_edge": list(cls.characteristic_edge)}


def _cmd_classify(args: argparse.Namespace) -> int:
    graphs = _load_graphs(args)
    if args.output == "json":
        _print_records("json", (), map(_classification, graphs))
        return 0
    for g in graphs:
        data = fiedler_vector(g)
        sys.stdout.write(_graph_to_dot(g, data, classify_fiedler(g, data)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.beta is not None and args.gamma is not None:
        raise _CliError("give at most one of --beta / --gamma")
    stream = all_trees(args.n) if args.kind == "trees" else all_connected_graphs(args.n)
    # one line per empty class, without the source location warnings.warn adds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EmptyClassWarning)
        if args.beta is not None:
            stream = with_matching(stream, args.beta)
        if args.gamma is not None:
            stream = with_cover(stream, args.gamma)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.output == "graph6":
        for g in stream:
            print(encode_graph6(g))
    else:
        _print_records("json", (), [[encode_graph6(g) for g in stream]])
    return 0


_VERIFY_PARAM_FLAGS = ("n", "seed", "count", "d", "n_min", "n_max")


def _report_csv_row(record: dict) -> dict:
    """A report's CSV row: ``params`` as compact JSON, witnesses as graph6."""
    return {
        **record,
        "params": json.dumps(record["params"], separators=(",", ":")),
        "witnesses": [w["graph6"] for w in record["witnesses"]],
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    params = {
        name: getattr(args, name)
        for name in _VERIFY_PARAM_FLAGS
        if getattr(args, name) is not None
    }
    report = verify(args.target, **params)
    record = report.to_json_dict()
    _print_records(args.output, tuple(record), [record], _report_csv_row)
    return 0 if report.passed else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, beta = args.n, args.beta
    gamma = n - beta
    record: dict = {
        "n": n,
        "beta": beta,
        "gamma": gamma,
        "bound_matching": bound_matching(n, beta),
        "bound_cover": bound_cover(n, gamma),
        "kirkland": None,
    }
    dm1 = 2 * beta - 1
    spare = n - dm1
    k, l = (spare + 1) // 2, spare // 2
    if dm1 >= 2 and k >= 1 and l >= 1:
        value = kirkland_bound(k, l, dm1)
        record["kirkland"] = {"k": k, "l": l, "dm1": dm1, "value": value}
    # built before the writer starts, so an infeasible (n, beta) prints nothing
    _print_records(args.output, tuple(record), [record])
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
    for name in _VERIFY_PARAM_FLAGS:
        p_ver.add_argument("--" + name.replace("_", "-"), type=int, dest=name)
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
    except (_CliError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); hand the interpreter
        # a writable stdout so its shutdown flush cannot die on the same pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
