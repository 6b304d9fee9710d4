"""Command-line front end: generate | estimate | certify | verify | embed | info.

Every command is deterministic given its arguments and config; outputs are
canonical JSON (17 significant digits), so identical invocations produce
byte-identical files.  Exit codes: 0 success, 2 usage/validation,
3 certificate-not-found, 4 verification-failed, 5 I/O.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__, io
from .cloud import METRICS
from .config import RunConfig
from .generators import _ONE_PARAMETER, GeneratorSpec
from .lowerdim import ScaleWindow, lower_dim_estimate
from .regular import (RegularFamily, certificate_scaling_check, dimension_bound, search_regular,
                      verify_regular)
from .trees import FiniteTree, embed_tree, max_regular_depth

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_VERIFY_FAILED = 4
EXIT_IO = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep that but via our flow
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracdim",
                     description="Covering numbers, scale-window dimension estimates, "
                                 "and (k,l)-regular certificates for point clouds.")
    parser.add_argument("--config", help="JSON config file (default: $FRACDIM_CONFIG)")
    parser.add_argument("--tol", type=float, help="absolute comparison tolerance")
    parser.add_argument("--exact-cutoff", type=int, help="size cutoff for exact solvers")
    parser.add_argument("--budget", type=int, help="node-expansion budget for search")
    sub = parser.add_subparsers(dest="command", required=True)
    cloud_metric = argparse.ArgumentParser(add_help=False)
    cloud_metric.add_argument("--metric", choices=METRICS, help="a CSV cloud's metric "
                              "(default euclidean); a JSON cloud must already have it")

    gen = sub.add_parser("generate", help="write an example cloud")
    gen.add_argument("kind", choices=[*_ONE_PARAMETER, "from-spec"])
    gen.add_argument("--level", type=int, help="cantor level")
    gen.add_argument("--resolution", type=int, help="grid resolution")
    gen.add_argument("--depth", type=int, help="polarized depth")
    gen.add_argument("--spec", help="generator-spec JSON file (from-spec kind)")
    gen.add_argument("--out", required=True, help="output cloud JSON path")

    est = sub.add_parser("estimate", parents=[cloud_metric],
                         help="scale-window lower-dimension estimate")
    est.add_argument("cloud", help="cloud JSON or CSV path")
    est.add_argument("--r-min", type=float, required=True)
    est.add_argument("--r-max", type=float, required=True)
    est.add_argument("--ratio", type=float, default=2.0)
    est.add_argument("--min-gap", type=float, default=4.0)
    est.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    est.add_argument("--csv", help="also write the table as CSV here")

    cert = sub.add_parser("certify", parents=[cloud_metric],
                          help="search for a (k,l)-regular certificate")
    cert.add_argument("cloud")
    cert.add_argument("--k", type=int, required=True)
    cert.add_argument("--l", type=int, required=True)
    cert.add_argument("--depth", type=int, required=True)
    cert.add_argument("--strong", action="store_true")
    cert.add_argument("--out", required=True, help="certificate JSON path")

    ver = sub.add_parser("verify", parents=[cloud_metric],
                         help="check a certificate against a cloud")
    ver.add_argument("cloud")
    ver.add_argument("certificate")
    ver.add_argument("--scaling", action="store_true",
                     help="also run the covering-count scaling check")

    emb = sub.add_parser("embed", help="embed a finite tree into an l1 cloud")
    emb.add_argument("tree", help="tree JSON path (list of integer arrays)")
    emb.add_argument("--out", required=True, help="output cloud JSON path")
    emb.add_argument("--depth-scan", action="store_true",
                     help="report the deepest (2,2) certificate of the embedding")

    info = sub.add_parser("info", parents=[cloud_metric],
                          help="describe a cloud file or the resolved config")
    info.add_argument("cloud", nargs="?", help="optional cloud path")
    return parser


def _emit(obj) -> None:
    io.dump_canonical(obj, sys.stdout, indent=2)
    # a last write and a flush of their own: bytes that a closed reader
    # refused raise here, within main, even where stdout is unbuffered
    sys.stdout.write("\n")
    sys.stdout.flush()


def _cmd_generate(args, cfg: RunConfig) -> int:
    if args.kind == "from-spec":
        if args.spec is None:
            raise _UsageError("from-spec requires --spec")
        spec = GeneratorSpec.from_dict(io.read_json(args.spec))
    else:
        spec = GeneratorSpec(args.kind, level=args.level, resolution=args.resolution,
                             depth=args.depth)
    cloud = spec.build()
    io.write_cloud(cloud, args.out)
    _emit({"kind": args.kind, "points": cloud.n, "diameter": cloud.diam(),
           "out": args.out})
    return EXIT_OK


def _cmd_estimate(args, cfg: RunConfig) -> int:
    cloud = io.read_cloud(args.cloud, metric=args.metric, tol=cfg.tol)
    window = ScaleWindow(args.r_min, args.r_max, args.ratio, args.min_gap)
    report = lower_dim_estimate(cloud, window, mode=args.mode, tol=cfg.tol,
                                exact_cutoff=cfg.exact_cutoff)
    payload = report.to_dict()
    if args.csv:
        io.write_csv(payload["table"], args.csv)
    _emit(payload)
    return EXIT_OK


def _cmd_certify(args, cfg: RunConfig) -> int:
    cloud = io.read_cloud(args.cloud, metric=args.metric, tol=cfg.tol)
    res = search_regular(cloud, args.k, args.l, args.depth, strong=args.strong,
                         budget=cfg.budget, tol=cfg.tol)
    if res.family is None:
        _emit({"found": False,
               "reason": "budget exhausted" if res.exhausted else "absent",
               "expansions": res.expansions})
        return EXIT_NOT_FOUND
    io.write_json(res.family.to_dict(), args.out)
    _emit({"found": True, "k": args.k, "l": args.l, "depth": args.depth,
           "strong": args.strong, "bound": dimension_bound(args.k, args.l),
           "expansions": res.expansions, "out": args.out})
    return EXIT_OK


def _cmd_verify(args, cfg: RunConfig) -> int:
    cloud = io.read_cloud(args.cloud, metric=args.metric, tol=cfg.tol)
    family = RegularFamily.from_dict(io.read_json(args.certificate))
    report = verify_regular(cloud, family, tol=cfg.tol)
    payload = report.to_dict()
    payload["bound"] = dimension_bound(family.k, family.l) if report.ok else None
    if args.scaling and report.ok:
        payload["scaling_check"] = certificate_scaling_check(
            cloud, family, tol=cfg.tol, exact_cutoff=cfg.exact_cutoff, report=report)
    _emit(payload)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_embed(args, cfg: RunConfig) -> int:
    tree = FiniteTree.from_json(io.read_json(args.tree))
    cloud = embed_tree(tree)
    io.write_cloud(cloud, args.out)
    payload = {"nodes": len(tree), "points": cloud.n, "out": args.out}
    if args.depth_scan:
        cap = tree.max_node_length() + 2
        depth, exhausted = max_regular_depth(cloud, 2, 2, cap, budget=cfg.budget,
                                             tol=cfg.tol)
        payload["max_regular_depth"] = depth
        payload["scan_exhausted"] = exhausted
        payload["scan_cap"] = cap
    _emit(payload)
    return EXIT_OK


def _cmd_info(args, cfg: RunConfig) -> int:
    if args.cloud is None:
        _emit({"version": __version__, "tol": cfg.tol,
               "exact_cutoff": cfg.exact_cutoff, "budget": cfg.budget})
        return EXIT_OK
    cloud = io.read_cloud(args.cloud, metric=args.metric, tol=cfg.tol)
    _emit({"points": cloud.n, "metric": cloud.metric, "diameter": cloud.diam(),
           "min_gap": cloud.min_positive_gap()})
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "estimate": _cmd_estimate,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "embed": _cmd_embed,
    "info": _cmd_info,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.resolve(config_path=args.config, tol=args.tol,
                                exact_cutoff=args.exact_cutoff, budget=args.budget)
        return _COMMANDS[args.command](args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"I/O error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the closed reader; drop the bytes still buffered,
        # or Python's own flush at exit fails again and exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)

