"""Which package functions the benchmark wraps, and the layer metrics
computed from their spans.

Every wrapped name is a module attribute that the pipeline looks up at
call time, so replacing it changes nothing but the timing.  Spans are
named ``<module>.<function>``; ``experiment.write`` collects every output
writer and ``experiment.sha256`` every checksum.
"""

from __future__ import annotations

import functools

import numpy as np

import qnetdyn.entropy as entropy
import qnetdyn.experiment as experiment

ROOT_SPANS = ("experiment.run_experiment", "experiment.run_sweep")
PROFILE_SPANS = ("rqa.diagonal_profile", "rqa.diagonal_profiles")
STATS_SPANS = (
    "rqa.recurrence_stats",
    "rqa.full_recurrence_line_gaps",
    "rqa.pearson_correlation",
)


def _steps(args, kwargs, result):
    # run_trajectory(map_, v0, transient, samples, observers) applies the
    # map transient times, then once after every recorded sample
    transient = args[2] if len(args) > 2 else kwargs["transient"]
    samples = args[3] if len(args) > 3 else kwargs["samples"]
    return {"network.steps": transient + samples}


def _as_profiles(result):
    return result if isinstance(result, list) else [result]


def _pairs(args, kwargs, result):
    profiles = _as_profiles(result)
    length = profiles[0].length
    # radii ascend, so the last profile counts pairs within the largest
    return {
        "rqa.pairs_evaluated": length * (length - 1) // 2,
        "rqa.recurrent_pairs": int(profiles[-1].counts.sum()),
    }


def capture_profiles(profiles: dict, passes: list):
    """Pass-through wrappers that keep the counts of every recurrence pass
    in ``profiles`` (radius -> counts) and its trajectory length in
    ``passes``, for the correctness gate.  They read no clock, so untraced
    runs keep them."""

    def capture(fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            for profile in _as_profiles(result):
                profiles[profile.radius] = profile.counts
            passes.append(_as_profiles(result)[0].length)
            return result

        return captured

    return [
        (experiment, "diagonal_profiles", capture(experiment.diagonal_profiles)),
        (experiment, "diagonal_profile", capture(experiment.diagonal_profile)),
    ]


def instrument(tracer):
    """(owner, attribute, traced replacement) for every layer boundary."""
    e = experiment
    write = "experiment.write"
    boundaries = [
        (e, "build_qrnn_map", "network.build_qrnn_map", None),
        (e, "run_trajectory", "network.run_trajectory", _steps),
        (e, "activity_mean_field", "fields.activity_mean_field", None),
        (entropy, "von_neumann_entropy", "entropy.von_neumann_entropy", None),
        (entropy, "partial_trace_keep_site", "linalg.partial_trace_keep_site", None),
        (entropy, "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", None),
        (e, "diagonal_profiles", "rqa.diagonal_profiles", _pairs),
        (e, "diagonal_profile", "rqa.diagonal_profile", _pairs),
        (e, "recurrence_stats", "rqa.recurrence_stats", None),
        (e, "full_recurrence_line_gaps", "rqa.full_recurrence_line_gaps", None),
        (e, "pearson_correlation", "rqa.pearson_correlation", None),
        (e, "render_recurrence_plot", "rqa.render_recurrence_plot", None),
        (e, "power_spectrum", "spectral.power_spectrum", None),
        (e, "_write_csv", write, None),
        (e, "write_recurrence_stats_csv", write, None),
        (e, "write_line_gap_csv", write, None),
        (e, "write_spectrum_csv", write, None),
        (e, "write_pgm", write, None),
        (e.RunManifest, "write", write, None),
        (e, "_sha256", "experiment.sha256", None),
    ]
    out = [
        (owner, attr, tracer.wrap(span, getattr(owner, attr), counter))
        for owner, attr, span, counter in boundaries
    ]
    # the entropy observer is a closure built per run: trace what it returns
    entropy_observer = e.entropy_observer

    @functools.wraps(entropy_observer)
    def traced_observer(*args, **kwargs):
        return tracer.wrap("entropy.observe", entropy_observer(*args, **kwargs))

    out.append((e, "entropy_observer", traced_observer))
    sweep_row = tracer.wrap_worker_root("experiment.sweep_row", e._sweep_row)
    out.append((e, "_sweep_row", sweep_row))
    return out


# (metric, unit) in report order; BENCHMARK.json lists the same names
PER_LAYER = [
    ("config.parse_s", "s"),
    ("network.map_build_s", "s"),
    ("network.iterate_s", "s"),
    ("network.steps", "count"),
    ("network.ns_per_step", "ns"),
    ("fields.mean_field_s", "s"),
    ("fields.calls", "count"),
    ("entropy.observe_s", "s"),
    ("entropy.calls", "count"),
    ("entropy.us_per_call", "us"),
    ("linalg.jacobi_s", "s"),
    ("rqa.profile_s", "s"),
    ("rqa.passes", "count"),
    ("rqa.pairs_evaluated", "count"),
    ("rqa.pairs_per_s", "1/s"),
    ("rqa.recurrent_frac", "frac"),
    ("rqa.plot_s", "s"),
    ("rqa.stats_s", "s"),
    ("spectral.periodogram_s", "s"),
    ("experiment.write_s", "s"),
    ("experiment.sha_s", "s"),
    ("experiment.bytes_written", "B"),
    ("experiment.sweep_rows", "count"),
    ("experiment.row_s_p50", "s"),
    ("experiment.pool_efficiency", "frac"),
    ("tracing.overhead_frac", "frac"),
    ("tracing.coverage_frac", "frac"),
    ("tracing.untraced_s", "s"),
    ("failed_frac", "frac"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table, counts, rows, wall, workers):
    """Per-layer metrics of one traced iteration.

    ``table`` is {span: (calls, inclusive s, self s)}, ``counts`` the
    tracer's counters, ``rows`` the durations of the sweep's row spans.
    """

    def calls(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)

    steps = counts.get("network.steps", 0)
    pairs = counts.get("rqa.pairs_evaluated", 0)
    iterate = self_time("network.run_trajectory")
    profile = incl(*PROFILE_SPANS)
    vne_calls = calls("entropy.von_neumann_entropy")
    root = incl(*ROOT_SPANS)
    untraced = self_time(*ROOT_SPANS)
    return {
        "config.parse_s": incl("config.parse_config"),
        "network.map_build_s": incl("network.build_qrnn_map"),
        "network.iterate_s": iterate,
        "network.steps": steps,
        "network.ns_per_step": 1e9 * _ratio(iterate, steps),
        "fields.mean_field_s": incl("fields.activity_mean_field"),
        "fields.calls": calls("fields.activity_mean_field"),
        "entropy.observe_s": incl("entropy.observe"),
        "entropy.calls": vne_calls,
        "entropy.us_per_call": 1e6 * _ratio(incl("entropy.von_neumann_entropy"), vne_calls),
        "linalg.jacobi_s": incl("linalg.hermitian_eigenvalues"),
        "rqa.profile_s": profile,
        "rqa.passes": calls(*PROFILE_SPANS),
        "rqa.pairs_evaluated": pairs,
        "rqa.pairs_per_s": _ratio(pairs, profile),
        "rqa.recurrent_frac": _ratio(counts.get("rqa.recurrent_pairs", 0), pairs),
        "rqa.plot_s": incl("rqa.render_recurrence_plot"),
        "rqa.stats_s": incl(*STATS_SPANS),
        "spectral.periodogram_s": incl("spectral.power_spectrum"),
        "experiment.write_s": incl("experiment.write"),
        "experiment.sha_s": incl("experiment.sha256"),
        "experiment.row_s_p50": float(np.median(rows)) if len(rows) else 0.0,
        "experiment.pool_efficiency": _ratio(float(np.sum(rows)), workers * wall),
        "tracing.coverage_frac": 1.0 - _ratio(untraced, root),
        "tracing.untraced_s": untraced,
    }
