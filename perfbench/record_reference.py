"""Record the seed-0 reference values that gate.py compares against.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right: it runs
every workload once at seed 0, full size, and overwrites
``reference_seed0.json`` with what that commit produces.
"""

from __future__ import annotations

import json
import shutil

import run
from workloads import WHY, make_inputs

SERIES_STRIDE = 30


def record(workload: str) -> dict:
    from gate import read_csv, sha256
    from qnetdyn.config import parse_config
    from qnetdyn.experiment import run_experiment, run_sweep

    inputs = make_inputs(workload, 0)
    cfg = parse_config(inputs.config_text)
    out_dir = run.WORK / "reference" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    if inputs.is_sweep:
        path = run_sweep(cfg, inputs.r_values, out_dir, workers=inputs.workers, radii=inputs.radii)
        _, rows = read_csv(path)
        return {"sha256": {"sweep.csv": sha256(path)}, "rows": rows}
    manifest = run_experiment(cfg, out_dir=out_dir)
    ref = {"sha256": {name: sha256(out_dir / name) for name in sorted(manifest.checksums)}}
    if workload == "entropy-stats":
        _, rows = read_csv(out_dir / "series.csv")
        ref["series_stride"] = SERIES_STRIDE
        ref["series_values"] = [[float(v) for v in row[1:]] for row in rows[::SERIES_STRIDE]]
        _, stats = read_csv(out_dir / "entropy_stats.csv")
        ref["entropy_stats"] = [[float(v) for v in row[1:]] for row in stats]
    else:
        _, summary = read_csv(out_dir / "summary.csv")
        ref["correlation"] = float(summary[0][1])
    return ref


def main() -> int:
    qnetdyn = run.load_package()
    stamp = run.make_stamp(qnetdyn)
    reference = {
        "recorded_from": {"git_sha": stamp["git_sha"], "source_sha256": stamp["source_sha256"]}
    }
    for workload in sorted(WHY):
        reference[workload] = record(workload)
    from gate import REFERENCE_PATH

    # one line per workload keeps the file small and diffs readable
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items())
    REFERENCE_PATH.write_text("{\n" + body + "\n}\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
