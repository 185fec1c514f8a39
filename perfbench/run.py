"""swarmcut benchmark: three workloads, end-to-end metrics, a traced per-layer pass.

Run one workload:

    python3 perfbench/run.py --workload sweep_small --seed 0 --seconds 15 --trace 0

or, with no --workload, every workload untraced and then traced, each in
its own process. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and units
come from BENCHMARK.json (``end_to_end`` untraced, ``per_layer`` traced).
A fuller result with the environment record is written to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.

A run repeats whole passes of its workload while the next pass is expected
to fit in --seconds, and always makes at least one pass. A traced run then
makes one untraced pass, the base of ``trace.overhead_frac``. The program is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PRIMARY_SEED = 0
# Gain claims measured on PRIMARY_SEED must also hold on this seed.
HOLDOUT_SEED = 1
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# A run must end within 180 s; a traced run skips its untraced base pass
# when the pass could end after this many seconds.
TRACED_RUN_LIMIT_S = 160
RUN_START = time.perf_counter()


def _sv_bytes_phase(args):
    return 2 * args[0].nbytes + args[1].nbytes


def _sv_bytes_mixer(args):
    return 2 * args[0].nbytes * args[1]


def _sv_bytes_reduce(args):
    return args[0].nbytes + args[1].nbytes


def span_specs():
    """The layer map: one span per traced function, every call site listed.

    Computed bytes count one read and one write of the state per phase layer
    and per qubit of a mixer layer, plus one read of the spectrum; they ignore
    temporaries and cache misses.
    """
    from tracer import SpanSpec as S

    return [
        S("cli.main", ["swarmcut.cli.main"]),
        S("experiment.run_instance", ["swarmcut.experiment.run_instance"], keep_durations=True),
        S("experiment.baseline", ["swarmcut.experiment.random_baseline"]),
        S("experiment.write", ["swarmcut.cli.write_records_json", "swarmcut.experiment.write_records_csv"]),
        S("graphs.generate", ["swarmcut.experiment.generate_er", "swarmcut.experiment.generate_ws"]),
        S("graphs.read", ["swarmcut.cli.read_graph"]),
        S("graphs.bruteforce", ["swarmcut.experiment.max_cut_bruteforce", "swarmcut.cli.max_cut_bruteforce"]),
        S("graphs.one_exchange", ["swarmcut.experiment.one_exchange_cut"]),
        S("graphs.spectrum", ["swarmcut.graphs.cut_values_all_masks", "swarmcut.simulator.cut_values_all_masks"]),
        S("optimizer.adam_fipso", ["swarmcut.experiment.adam_fipso_optimize", "swarmcut.cli.adam_fipso_optimize"]),
        S("optimizer.minimize", ["swarmcut.optimizer.minimize"], counts_objective=True),
        S("optimizer.fd_grad", ["swarmcut.optimizer.finite_diff_grad"]),
        S("optimizer.adam_update", ["swarmcut.optimizer.adam_update"]),
        S("simulator.evaluator_init", ["swarmcut.simulator.ExpectationEvaluator.__init__"]),
        S("simulator.expectation", ["swarmcut.simulator.ExpectationEvaluator.expectation"], keep_durations=True),
        S("simulator.landscape_grid", ["swarmcut.simulator.landscape_grid"]),
        S("statevec.phase", ["swarmcut._statevec.apply_phase_table"], bytes_fn=_sv_bytes_phase),
        S("statevec.mixer", ["swarmcut._statevec.apply_mixer"], bytes_fn=_sv_bytes_mixer),
        S("statevec.reduce", ["swarmcut._statevec.expectation_value"], bytes_fn=_sv_bytes_reduce),
    ]


LAYERS = ("cli", "experiment", "graphs", "optimizer", "simulator", "statevec")
WORKLOAD_NAMES = ("sweep_small", "cell_large", "landscape")


def import_program():
    """Import swarmcut from the checkout's src/, refusing any other copy."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import swarmcut
    except ImportError as exc:
        print(f"perfbench: cannot import swarmcut from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(swarmcut.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: swarmcut imported from {swarmcut.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return swarmcut


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * mult
    return sizes


def _openblas():
    """(version string, thread count) of the OpenBLAS NumPy loaded, if found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None, None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    return config().decode(), int(threads())
    return None, None


def environment(swarmcut, workload, seed: int) -> dict:
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas_version, blas_threads = _openblas()
    caches = _cache_sizes()
    llc = caches.get("l3_bytes") or caches.get("l2_bytes")
    # State (complex128) plus cut spectrum (int64) at the workload's largest n.
    working_set = (1 << workload.warm[0]) * (16 + 8)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "swarmcut_backend": getattr(swarmcut, "BACKEND", None),
        "workload": workload.name,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "largest_working_set_bytes": working_set,
        "four_llc_bytes": 4 * llc if llc else None,
        "reaches_4x_llc": bool(llc) and working_set >= 4 * llc,
        "bytes_note": "statevec bytes are computed from array sizes, not measured; "
                      "no bandwidth ratio is reported",
    }


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall time to import swarmcut and build the inputs in fresh interpreters."""
    times = []
    for k in range(SETUP_REPEATS):
        code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
                f"workloads.build({name!r}, {seed}, {str(workdir / f'setup{k}')!r})")
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def tail(values):
    """(value, label) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], f"max of {len(ordered)} (fewer than {TAIL_BEYOND + 1} samples)"
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], f"p{100 * (k + 1) // len(ordered)} of {len(ordered)}"


def run_passes(workload, seconds: float, traced: bool, since: float):
    """Repeat passes while the next is expected to fit; returns per-pass data."""
    from tracer import Tracer

    specs = span_specs()
    if not traced:
        specs = [s for s in specs if s.name == "experiment.run_instance"]
    passes = []
    while True:
        with Tracer(specs, probe_span="optimizer.fd_grad") as tracer:
            start = time.perf_counter()
            workload.run_pass()
            wall = time.perf_counter() - start
        failures, quality = workload.check()
        passes.append({"wall": wall, "tracer": tracer, "failures": failures, "quality": quality})
        if time.perf_counter() - since + wall > seconds:
            return passes


def count_failures(workload, passes, exact_counts: bool):
    """(attempted, failed, reasons); exact_counts adds the evaluation-count check."""
    attempted = failed = 0
    reasons = []
    for k, data in enumerate(passes):
        failures = {op: list(r) for op, r in data["failures"].items()}
        if exact_counts:
            for i, (counted, reported, expected) in enumerate(data["tracer"].objective.calls):
                if counted != reported or (expected is not None and counted != expected):
                    op = workload.ops[i] if i < len(workload.ops) else f"minimize#{i}"
                    failures.setdefault(op, []).append(
                        f"evaluations counted {counted}, reported {reported}, expected {expected}")
        attempted += len(failures)
        for op, why in failures.items():
            if why:
                failed += 1
                reasons.append(f"pass {k} {op}: {'; '.join(why)}")
    return attempted, failed, reasons


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    walls = [p["wall"] for p in passes]
    ops = []
    for p in passes:
        cells = p["tracer"].spans["experiment.run_instance"].durations
        ops.extend(cells if cells else [p["wall"]])
    tail_value, tail_label = tail(ops)
    quality = [q for p in passes for q in p["quality"]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "cell_s_p50": statistics.median(ops),
        "cell_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "opt_ar_mean": statistics.fmean(quality) if quality else float("nan"),
    }
    notes = {"cell_s_tail": tail_label, "passes": len(passes), "pass_walls_s": walls,
             "setup_s_samples": setup_times, "operation_samples": len(ops)}
    return metrics, notes


def per_layer(passes, reference_wall: float | None) -> tuple[dict, dict]:
    """Per-pass means of every span, layer self times and trace totals."""
    n = len(passes)
    tracers = [p["tracer"] for p in passes]
    first = tracers[0]
    metrics = {}
    for name in first.spans:
        if name in first.absent:
            continue
        spans = [t.spans[name] for t in tracers]
        metrics[f"{name}.calls"] = sum(s.calls for s in spans) / n
        metrics[f"{name}.s"] = sum(s.total for s in spans) / n
        metrics[f"{name}.self_s"] = sum(s.self_time for s in spans) / n
    for layer in LAYERS:
        names = [s for s in first.spans if s.split(".", 1)[0] == layer and s not in first.absent]
        if names:
            metrics[f"{layer}.self_s"] = sum(metrics[f"{s}.self_s"] for s in names)
    if "simulator.expectation" not in first.absent:
        durations = [d for t in tracers for d in t.spans["simulator.expectation"].durations]
        metrics["simulator.expectation.us_p50"] = statistics.median(durations) * 1e6 if durations else 0.0
    kernels = [s for s in ("statevec.phase", "statevec.mixer", "statevec.reduce") if s not in first.absent]
    if kernels:
        computed = sum(t.spans[s].bytes for t in tracers for s in kernels) / n
        busy = sum(metrics[f"{s}.s"] for s in kernels)
        metrics["statevec.bytes_computed"] = computed
        metrics["statevec.gb_per_s_computed"] = computed / busy / 1e9 if busy else 0.0
    if "optimizer.minimize" not in first.absent:
        evaluations = sum(t.objective.evaluations for t in tracers) / n
        probes = sum(t.objective.probe_evaluations for t in tracers) / n
        metrics["optimizer.evaluations"] = evaluations
        if "optimizer.fd_grad" not in first.absent:
            metrics["optimizer.position_eval_frac"] = (evaluations - probes) / evaluations if evaluations else 0.0
    wall = statistics.fmean(p["wall"] for p in passes)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - statistics.fmean(t.covered_s for t in tracers)
    if reference_wall is not None:
        metrics["trace.overhead_frac"] = wall / reference_wall - 1.0
    attributed = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    notes = {
        "absent_spans": first.absent,
        "missing_sites": first.missing_sites,
        "untraced_base_wall_s": reference_wall,
        "layer_self_plus_unattributed_s": attributed + metrics["trace.unattributed_s"],
        "minimize_calls": [list(c) for c in first.objective.calls],
    }
    return metrics, notes


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    swarmcut = import_program()
    import workloads

    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    workload_cls = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        setup_times = [] if traced else measure_setup(name, seed, tmp)
        workload = workloads.build(name, seed, tmp / "run")
        workloads.warm_up(*workload_cls.warm)
        passes = run_passes(workload, seconds, traced, time.perf_counter())
        if traced:
            # The untraced base pass of trace.overhead_frac comes last and is
            # skipped when it could push the run past TRACED_RUN_LIMIT_S.
            reference = []
            if time.perf_counter() - RUN_START + passes[-1]["wall"] <= TRACED_RUN_LIMIT_S:
                reference = run_passes(workload, 0, False, time.perf_counter())
            reference_wall = reference[0]["wall"] if reference else None
            values, notes = per_layer(passes, reference_wall)
            header = f"traced_passes={len(passes)} untraced_base_passes={len(reference)}"
            passes = passes + reference
            wanted = spec["per_layer"]
        else:
            values, notes = end_to_end(passes, setup_times)
            header = f"passes={len(passes)}"
            wanted = spec["end_to_end"]
        attempted, failed, reasons = count_failures(workload, passes, exact_counts=traced)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    absent = [m["name"] for m in wanted if m["name"] not in values]
    env = environment(swarmcut, workload_cls, seed)

    print(f"perfbench {name} seed={seed} trace={int(traced)} {header} "
          f"backend={env['swarmcut_backend']} blas_threads={env['blas_threads']}")
    for m in wanted:
        if m["name"] in values:
            note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
            print(f"  {m['name']:<34} {values[m['name']]:>16.6f} {m['unit']}{note}")
    if absent:
        print(f"  absent (target missing in the program): {', '.join(absent)}")
    if traced:
        total = notes["layer_self_plus_unattributed_s"]
        print(f"  layer self times + unattributed = {total:.6f} s; traced wall_s = {values['trace.wall_s']:.6f} s")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.4f} "
          f"(operations: {'cells' if name != 'landscape' else 'landscape exports'}, all passes)")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    doc = {**result, "environment": env, "notes": notes, "failures": reasons,
           "all_values": values, "absent": absent}
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    import_program()
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            code = code or proc.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                totals["correct"] = False
                code = code or 1
                continue
            totals["correct"] &= result["correct"]
            totals["attempted"] += result["attempted"]
            totals["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                totals["metrics"][f"{name}.{metric}"] = value
    print(f"all workloads: failed_frac = {totals['failed']}/{totals['attempted']}")
    print(json.dumps(totals))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="workload to run (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED,
                        help=f"workload seed (default {PRIMARY_SEED}; hold-out seed {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
