"""Pipeline benchmark for qnetdyn: one workload, timed, traced and checked.

    python3 perfbench/run.py --workload entropy-stats --seed 0 --seconds 30 --trace 0

Runs the workload in a closed loop, one run at a time, for about
``--seconds`` seconds, checks every output of every run (see gate.py),
and prints every metric by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the correctness checks, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

With ``--trace 0`` no span is recorded.  With ``--trace 1`` untraced and
traced runs alternate: the per-layer metrics come from the traced runs,
and the gap between the two wall times is the tracing overhead.

Run it from a source checkout: the package is imported from ``src/`` next
to this directory and nothing is installed.  Outputs, spans and result
records go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WHY, make_inputs, nproc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
]
NAMED_COUNTS = (
    "network.steps",
    "entropy.calls",
    "rqa.passes",
    "rqa.pairs_evaluated",
    "experiment.bytes_written",
    "experiment.sweep_rows",
)

# a fresh interpreter doing the work that precedes the first state update
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import qnetdyn
from qnetdyn.config import parse_config
from qnetdyn.network import QRNNParams, build_qrnn_map
build_qrnn_map(QRNNParams(parse_config(sys.argv[2]).r))
"""


def load_package():
    """Import qnetdyn from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "qnetdyn" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package at {init}; run from a qnetdyn source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qnetdyn

    if Path(qnetdyn.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported qnetdyn from {qnetdyn.__file__}, not {init}")
    return qnetdyn


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_digest(top: Path) -> str:
    """SHA-256 over the files under ``top``, so records stay comparable
    without git."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(top)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def make_stamp(qnetdyn) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": tree_digest(SRC),
        "benchmark_sha256": tree_digest(Path(__file__).resolve().parent),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": qnetdyn.KERNEL_BACKEND,
        "c_compiler": shutil.which("cc") or shutil.which("gcc") or shutil.which("clang"),
    }


def measure_setup(inputs, repeats, gate) -> list:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), inputs.config_text],
            cwd=ROOT,
            capture_output=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        gate.check("setup.exit", proc.returncode == 0, proc.stderr.decode(errors="replace")[-300:])
    return times


@dataclass
class Iteration:
    traced: bool
    wall: float
    items: int
    counts: dict
    table: dict | None = None
    layers: dict | None = None


def run_iteration(k, inputs, traced, tracer, gate, rng, reference):
    """One run of the workload, timed from a validated config to its
    outputs, then gated.  A traced run also yields its layer metrics."""
    from gate import check_run, check_sweep
    from layers import capture_profiles, instrument, layer_metrics
    from qnetdyn.config import parse_config
    from qnetdyn.experiment import run_experiment, run_sweep
    from spans import patched

    out_dir = WORK / "out" / f"{inputs.workload}-{k}"
    shutil.rmtree(out_dir, ignore_errors=True)
    profiles, passes = {}, []
    capture = [] if inputs.is_sweep else capture_profiles(profiles, passes)
    root = "experiment.run_sweep" if inputs.is_sweep else "experiment.run_experiment"
    tracer.run_id = k
    span = tracer.span if traced else (lambda name: contextlib.nullcontext())
    with patched(capture), patched(instrument(tracer) if traced else []):
        with span("config.parse_config"):
            cfg = parse_config(inputs.config_text)
        with span(root):
            t0 = time.perf_counter()
            if inputs.is_sweep:
                result = run_sweep(
                    cfg, inputs.r_values, out_dir, workers=inputs.workers, radii=inputs.radii
                )
            else:
                result = run_experiment(cfg, out_dir=out_dir)
            wall = time.perf_counter() - t0

    if inputs.is_sweep:
        if traced:
            tracer.merge_spilled()
        check_sweep(gate, inputs, cfg, result, rng, reference)
        items = len(inputs.r_values)
        counts = {
            "experiment.bytes_written": result.stat().st_size,
            "experiment.sweep_rows": len(result.read_text().splitlines()) - 1,
        }
    else:
        check_run(gate, inputs, cfg, result, profiles, rng, reference, backends=k == 0)
        items = cfg.samples
        counts = {
            # data files only: the manifest records a duration, so its size varies
            "experiment.bytes_written": sum(
                (out_dir / name).stat().st_size for name in result.checksums
            ),
            "rqa.passes": len(passes),
            "rqa.pairs_evaluated": sum(n * (n - 1) // 2 for n in passes),
        }
    shutil.rmtree(out_dir, ignore_errors=True)
    it = Iteration(traced, wall, items, counts)
    if traced:
        mine = {name: n for (run, name), n in tracer.counts.items() if run == k}
        rows = tracer.durations(k, "experiment.sweep_row")
        it.table = tracer.layer_table(k)
        it.layers = layer_metrics(it.table, mine, rows, wall, inputs.workers)
        it.layers["experiment.bytes_written"] = counts["experiment.bytes_written"]
        it.layers["experiment.sweep_rows"] = counts.get("experiment.sweep_rows", 0)
        for name in ("network.steps", "entropy.calls", "rqa.passes", "rqa.pairs_evaluated"):
            if name in counts:  # the capture and the trace must agree
                gate.check(f"counts.{name}.trace", counts[name] == it.layers[name])
            counts[name] = it.layers[name]
    return it


def check_counts(gate, iterations, key):
    """Named work counts must repeat exactly: between the runs of this
    process, and between processes that ran the same inputs on the same
    source (records kept in the work directory)."""
    seen: dict = {}
    for it in iterations:
        for name, n in it.counts.items():
            seen.setdefault(name, set()).add(n)
    for name, values in sorted(seen.items()):
        gate.check(f"counts.{name}.repeat", len(values) == 1, f"values {sorted(values)}")
    merged = {name: min(values) for name, values in seen.items()}
    path = WORK / "counts.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    before = store.get(key, {})
    for name in sorted(set(before) & set(merged)):
        detail = f"{before[name]} then {merged[name]}"
        gate.check(f"counts.{name}.across_runs", before[name] == merged[name], detail)
    store[key] = {**before, **merged}
    path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return merged


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:  # pool workers of the sweep
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_benchmark(workload, seed, seconds, trace, tiny=False, out=print):
    """Run one workload; print the report and return the result object."""
    qnetdyn = load_package()
    from gate import Gate, load_reference
    from layers import PER_LAYER
    from spans import Tracer

    inputs = make_inputs(workload, seed, tiny)
    reference = load_reference(workload) if seed == 0 and inputs.full_size else None
    spill = WORK / "spill"
    shutil.rmtree(spill, ignore_errors=True)
    spill.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    gate = Gate()
    rng = np.random.default_rng([seed, 1])  # oracle subsamples
    stamp = make_stamp(qnetdyn)
    setup_times = measure_setup(inputs, 1 if tiny else SETUP_REPEATS, gate)

    tracer = Tracer(spill)
    iterations = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            k = len(iterations)
            iterations.append(run_iteration(k, inputs, traced, tracer, gate, rng, reference))
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            break
    counts = check_counts(
        gate,
        iterations,
        f"{workload}|seed={seed}|tiny={tiny}"
        f"|src={stamp['source_sha256']}|bench={stamp['benchmark_sha256']}",
    )

    plain = [it for it in iterations if not it.traced]
    walls = [it.wall for it in plain]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": statistics.median(it.items / it.wall for it in plain),
        "peak_rss_mb": peak_rss_mb(inputs.is_sweep),
        "pass_frac": 1.0 - gate.failed / gate.attempted,
    }
    traced_its = [it for it in iterations if it.traced]
    per_layer = {}
    if traced_its:
        for name, unit in PER_LAYER:
            values = [it.layers[name] for it in traced_its if name in it.layers]
            # counts repeat exactly (checked above), so keep them whole
            pick = statistics.median_low if unit in ("count", "B") else statistics.median
            per_layer[name] = pick(values) if values else 0.0
        traced_wall = statistics.median(it.wall for it in traced_its)
        per_layer["tracing.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
        per_layer["failed_frac"] = gate.failed / gate.attempted

    lines = [
        f"perfbench {workload} seed={seed} trace={trace} seconds={seconds}"
        + (" (tiny sizes)" if tiny else ""),
        f"  why: {WHY[workload]}",
        "  stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()),
        f"  runs: {len(plain)} untraced, {len(traced_its)} traced; "
        f"setup: {len(setup_times)} fresh interpreters",
        "end-to-end (medians over untraced runs):",
    ]
    lines += [f"  {name:<28} {e2e[name]:>16.6g} {unit}" for name, unit in END_TO_END]
    # the JSON carries pass_frac: a metric there may never read 0
    lines.append(f"  {'failed_frac':<28} {gate.failed / gate.attempted:>16.6g} frac")
    lines.append(
        f"  {'wall_s quartiles':<28} {_quartiles(walls)} s; "
        f"setup_s quartiles {_quartiles(setup_times)} s"
    )
    lines.append("work counts (must repeat exactly): " + ", ".join(
        f"{name}={counts.get(name, 'traced only')}" for name in NAMED_COUNTS
    ))
    lines.append(f"correctness: {gate.attempted} checks, {gate.failed} failed; " + " ".join(
        f"{k}={v}" for k, v in sorted(gate.info.items())
    ))
    lines += [f"  FAILED {line}" for line in gate.failures()]
    if traced_its:
        lines += layer_report(traced_its, per_layer)
        lines.append("per-layer (medians over traced runs):")
        lines += [f"  {name:<28} {per_layer[name]:>16.6g} {unit}" for name, unit in PER_LAYER]
        tracer.save(WORK / "results" / f"spans-{workload}-seed{seed}.npz")

    chosen = PER_LAYER if trace else END_TO_END
    values = per_layer if trace else e2e
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "tiny": tiny,
        "stamp": stamp,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "counts": counts,
        "walls": [[it.traced, it.wall] for it in iterations],
        "setup_times": setup_times,
        "checks": gate.checks,
        "info": gate.info,
    }
    name = f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1))
    for line in lines:
        out(line)
    out(json.dumps(result))
    return result


def layer_report(traced_its, per_layer):
    """Self time per span (median over traced runs), call counts, the
    untraced remainder and the tracing overhead."""
    tables = [it.table for it in traced_its]
    names = sorted({name for table in tables for name in table})
    wall = statistics.median(it.wall for it in traced_its)
    lines = [f"per-layer self time (traced wall {wall:.4f} s):"]
    lines.append(f"  {'span':<34} {'calls':>9} {'incl s':>10} {'self s':>10} {'self/wall':>9}")
    rows = []
    for name in names:
        got = [t.get(name, (0, 0.0, 0.0)) for t in tables]
        calls = statistics.median(g[0] for g in got)
        incl = statistics.median(g[1] for g in got)
        own = statistics.median(g[2] for g in got)
        rows.append((own, name, calls, incl))
    for own, name, calls, incl in sorted(rows, reverse=True):
        lines.append(f"  {name:<34} {calls:>9.0f} {incl:>10.4f} {own:>10.4f} {own / wall:>9.1%}")
    lines.append(
        f"  untraced remainder {per_layer['tracing.untraced_s']:.4f} s; "
        f"layer spans cover {per_layer['tracing.coverage_frac']:.1%} of the traced wall; "
        f"tracing overhead {per_layer['tracing.overhead_frac']:+.1%} of untraced wall"
    )
    if "experiment.sweep_row" in names:
        lines.append(
            "  sweep rows ran in pool workers, beside the parent: their spans are roots "
            "of their own and their times add up across workers"
        )
    return lines


def _quartiles(values):
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}/{q2:.4f}/{q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
