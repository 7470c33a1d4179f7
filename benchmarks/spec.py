"""Workloads and metrics of the benchmark; the source of BENCHMARK.json."""

from __future__ import annotations

RUN_SECONDS = 30

# Each workload runs as fresh processes ("repetitions"), each doing the
# whole workload once, plus set-up-only processes when there are fewer
# than SETUP_SAMPLES repetitions. The repetition count is fixed from
# --seconds and the nominal cost of one repetition on a 2-core Xeon, so
# the same --seconds always measures the same work and the same number of
# samples.
WORKLOADS = {
    "opt_cell": {
        "why": "cell-bound: 8 homogenizations are ~70% of an iteration; "
               "driven through `cloakopt optimize` with CSV, checkpoint and VTK output",
        "iterations": 16,
        "nominal_rep_s": 7.5,
    },
    "opt_macro": {
        "why": "macro-bound: 82k-node macro solves, both adjoints and sector "
               "sensitivities dominate; cells are under 5%, no I/O",
        "iterations": 12,
        "nominal_rep_s": 16.0,
    },
    "validate_sweep": {
        "why": "fine-mesh-bound: tiled validation at eps0=1/9 plus an 8-angle "
               "obstacle sweep; no optimizer code runs",
        "iterations": None,
        "nominal_rep_s": 11.5,
    },
}
MIN_REPS = 2
SETUP_SAMPLES = 3          # repetitions plus set-up-only processes
TRACED_REPS = 2            # traced repetitions; their counts must agree

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Per-layer metrics of a traced run that every workload exercises, plus
# counts; README.md gives units and the layer-specific report lines.
PER_LAYER = [
    {"name": "geometry.mesh_s", "unit": "s", "better": "lower"},
    {"name": "fem.factor_ms", "unit": "ms", "better": "lower"},
    {"name": "fem.assemble_ms", "unit": "ms", "better": "lower"},
    {"name": "fem.constrain_ms", "unit": "ms", "better": "lower"},
    {"name": "fem.solve_ms", "unit": "ms", "better": "lower"},
    {"name": "macro_solver.state_system_ms", "unit": "ms", "better": "lower"},
    {"name": "objectives.mismatch_ms", "unit": "ms", "better": "lower"},
    {"name": "objectives.gradient_energy_ms", "unit": "ms", "better": "lower"},
    {"name": "unattributed_ms", "unit": "ms", "better": "lower"},
    {"name": "trace_overhead_s", "unit": "s", "better": "lower"},
    {"name": "fem.factorizations", "unit": "count", "better": "lower"},
    {"name": "fem.solves", "unit": "count", "better": "lower"},
    {"name": "fem.factor_fill_nnz.cell", "unit": "count", "better": "lower"},
    {"name": "fem.factor_fill_nnz.macro", "unit": "count", "better": "lower"},
    {"name": "fem.factor_fill_nnz.fine", "unit": "count", "better": "lower"},
    {"name": "homogenization.cells", "unit": "count", "better": "lower"},
    {"name": "macro_solver.state_solves", "unit": "count", "better": "lower"},
    {"name": "macro_solver.adjoint_solves", "unit": "count", "better": "lower"},
    {"name": "sensitivity.degenerate_drops", "unit": "count", "better": "lower"},
    {"name": "levelset.factor_reuse_ratio", "unit": "ratio", "better": "higher"},
    {"name": "optimizer.checkpoint_bytes", "unit": "bytes", "better": "lower"},
    {"name": "validation.factorizations", "unit": "count", "better": "lower"},
    {"name": "validation.reference_solves", "unit": "count", "better": "lower"},
]

# counts that two traced repetitions of one seed must report identically
EXACT_COUNTS = ("fem.factorizations", "fem.solves", "homogenization.cells",
                "macro_solver.adjoint_solves", "validation.factorizations")


def reps_for(workload: str, seconds: float) -> int:
    return max(MIN_REPS, round(seconds / WORKLOADS[workload]["nominal_rep_s"]))


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
