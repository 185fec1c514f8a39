"""Command-line interface: sweep runs, single-graph optimization, MaxCut
queries, landscape export, and report tables.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

from .experiment import (
    SuiteConfig,
    aggregate_report,
    iter_suite,
    read_records_csv,
    render_report_text,
    write_records_csv,
    write_records_json,
    write_report_csv,
)
from .graphs import check_int, max_cut_bruteforce, read_graph
from .optimizer import SwarmConfig, adam_fipso_optimize, approx_ratio
from .simulator import LANDSCAPE_DEFAULT_RESOLUTION, write_landscape_csv

DEFAULT_SEED = 0
SEED_ENV_VAR = "QAOA_FIPSO_SEED"

_INT_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")
_FLOAT_RANGE = re.compile(r"^(-?\d+(?:\.\d+)?)\.\.(-?\d+(?:\.\d+)?)$")


def _parse_node_range(text: str) -> tuple[int, int]:
    m = _INT_RANGE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _parse_float_range(text: str) -> tuple[float, float]:
    m = _FLOAT_RANGE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    lo, hi = float(m.group(1)), float(m.group(2))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"range must satisfy lo < hi, got {text!r}")
    return lo, hi


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = text
        try:
            value = int(text)
            return check_int("value", value, low)
        except ValueError:  # the text unquoted once it reads as an integer
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value!r}") from None
    return parse


_parse_seed = _int_at_least(0)
_parse_count = _int_at_least(1)
_parse_resolution = _int_at_least(2)


def _parse_models(text: str) -> tuple[str, ...]:
    models = tuple(part.strip() for part in text.split(",") if part.strip())
    if not models:
        raise argparse.ArgumentTypeError("expected a comma-separated model list")
    return models


def _parse_depths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


class UsageError(Exception):
    """A bad setting argparse does not see (config file, environment, flag values): exit 2."""


def _output_path(flag: str, text: str) -> Path:
    """The file a flag names to write; a directory or an empty path is a usage error."""
    path = Path(text)
    if not path.name or text.endswith(os.sep) or path.is_dir():
        raise UsageError(f"{flag}: {text!r} names a directory, not a file")
    return path


def _swarm_config(args, depths=()) -> SwarmConfig:
    """--config's swarm settings, its bounds checked at each of depths. The seed
    is --seed, else the file's "seed", else QAOA_FIPSO_SEED, else DEFAULT_SEED."""
    doc = {}
    try:
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as f:
                doc = json.load(f)
        swarm = SwarmConfig.from_dict(doc)
        for p in depths:
            swarm.box(p)
    except ValueError as exc:  # json.JSONDecodeError too; an OSError stays exit 1
        raise UsageError(f"{args.config}: {exc}")
    seed = args.seed
    if seed is None and "seed" not in doc:
        try:
            seed = _parse_seed(os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{SEED_ENV_VAR}: {exc}")
    return swarm if seed is None else swarm.with_seed(seed)


def cmd_run_suite(args) -> int:
    out = _output_path("--out", args.out)
    sidecar = out.with_suffix(".json")
    if sidecar == out:
        raise UsageError(f"--out: {out} is also the path of its .json sidecar; give it another suffix")
    _output_path("--out", str(sidecar))
    swarm = _swarm_config(args)
    lo, hi = args.nodes
    try:
        cfg = SuiteConfig(models=args.models, node_lo=lo, node_hi=hi,
                          instances_per_size=args.instances, depths=args.depths,
                          base_seed=swarm.seed, swarm=swarm)
    except ValueError as exc:  # the message starts with the field's name
        field = str(exc).split()[0]
        flag = {"node_lo": "--nodes", "node_hi": "--nodes", "instances_per_size": "--instances",
                "bounds": args.config}
        raise UsageError(f"{flag.get(field, '--' + field)}: {exc}")

    def progress(r):
        flag = f" [{r.flag}]" if r.flag else ""
        print(f"{r.model} g{r.graph_index} n={r.n} p={r.p}: maxcut={r.max_cut} rand_ar={r.rand_ar:.3f} "
              f"opt_ar={r.opt_ar:.3f} improvement={r.improvement_pct:.1f}%{flag}")
        return r

    records = write_records_csv(out, map(progress, iter_suite(cfg, jobs=args.jobs)))
    write_records_json(sidecar, records)
    print(f"wrote {len(records)} records to {out} (+ {sidecar})")
    return 0


def cmd_optimize(args) -> int:
    g = read_graph(args.graph)
    swarm = _swarm_config(args, (args.depth,))
    max_cut = max_cut_bruteforce(g).value
    result = adam_fipso_optimize(g, args.depth, float(max_cut), swarm)
    doc = {
        "opt_params": [float(x) for x in result.best_position],
        "opt_cut": result.best_expectation,
        "opt_ar": approx_ratio(result.best_expectation, max_cut),
        "opt_loss": result.best_loss,
        "max_cut": max_cut,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
    }
    print(json.dumps(doc))
    return 0


def cmd_maxcut(args) -> int:
    g = read_graph(args.graph)
    result = max_cut_bruteforce(g)
    bits = "".join(str((result.mask >> i) & 1) for i in range(g.n))
    print(f"{result.value} {bits}")
    return 0


def cmd_landscape(args) -> int:
    _output_path("--out", args.out)
    g = read_graph(args.graph)
    write_landscape_csv(args.out, g, gamma_range=args.gamma_range,
                        beta_range=args.beta_range, resolution=args.resolution)
    print(f"wrote {args.resolution * args.resolution} lattice points to {args.out}")
    return 0


def cmd_report(args) -> int:
    csv_out = None if args.csv_out is None else _output_path("--csv-out", args.csv_out)
    rows = read_records_csv(args.results)
    report = aggregate_report(rows)
    sys.stdout.write(render_report_text(report))
    if csv_out is not None:
        write_report_csv(csv_out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmcut",
        description="QAOA MaxCut angle optimization with an Adam-corrected particle swarm.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("run-suite", help="run the full graph sweep and persist records")
    p_suite.add_argument("--models", type=_parse_models, default=("ER", "WS"),
                         help="comma-separated subset of er,ws (default: er,ws)")
    p_suite.add_argument("--nodes", type=_parse_node_range, default=(3, 16), metavar="LO..HI",
                         help="inclusive node size range (default: 3..16)")
    p_suite.add_argument("--depths", type=_parse_depths, default=(1, 2, 3),
                         help="comma-separated circuit depths (default: 1,2,3)")
    p_suite.add_argument("--instances", type=int, default=5,
                         help="graph instances per size (default: 5)")
    p_suite.add_argument("--seed", type=_parse_seed, default=None, help="base seed for the whole suite")
    p_suite.add_argument("--out", default="results.csv", help="results CSV path (default: results.csv)")
    p_suite.add_argument("--config", default=None, help="swarm config JSON path")
    p_suite.add_argument("--jobs", type=_parse_count, default=1, help="parallel instance workers (default: 1)")
    p_suite.set_defaults(func=cmd_run_suite)

    p_opt = sub.add_parser("optimize", help="optimize the angles for one graph file")
    p_opt.add_argument("graph", help="graph JSON path")
    p_opt.add_argument("--depth", type=_parse_count, default=1, help="circuit depth p (default: 1)")
    p_opt.add_argument("--config", default=None, help="swarm config JSON path")
    p_opt.add_argument("--seed", type=_parse_seed, default=None, help="swarm seed")
    p_opt.set_defaults(func=cmd_optimize)

    p_max = sub.add_parser("maxcut", help="brute-force MaxCut of a graph file")
    p_max.add_argument("graph", help="graph JSON path")
    p_max.set_defaults(func=cmd_maxcut)

    p_land = sub.add_parser("landscape", help="export the depth-1 expectation landscape")
    p_land.add_argument("graph", help="graph JSON path")
    p_land.add_argument("--resolution", type=_parse_resolution, default=LANDSCAPE_DEFAULT_RESOLUTION,
                        help=f"lattice points per axis (default: {LANDSCAPE_DEFAULT_RESOLUTION})")
    p_land.add_argument("--gamma-range", type=_parse_float_range, default=(-math.pi, math.pi),
                        metavar="LO..HI",
                        help="gamma interval; write --gamma-range=-3.14..3.14 for "
                             "negative bounds (default: -pi..pi)")
    p_land.add_argument("--beta-range", type=_parse_float_range, default=(-math.pi, math.pi),
                        metavar="LO..HI",
                        help="beta interval; write --beta-range=-3.14..3.14 for "
                             "negative bounds (default: -pi..pi)")
    p_land.add_argument("--out", default="landscape.csv", help="output CSV path")
    p_land.set_defaults(func=cmd_landscape)

    p_rep = sub.add_parser("report", help="aggregate a results CSV into improvement tables")
    p_rep.add_argument("results", help="results CSV produced by run-suite")
    p_rep.add_argument("--csv-out", default=None, help="also write the tables as CSV")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
