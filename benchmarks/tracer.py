"""Probes and spans around cloakopt's public functions.

Nothing under ``src/`` is edited: :class:`Instrument` replaces module
attributes (``homogenization.homogenize``, ``fem.Factorization``, ...)
in every loaded ``cloakopt`` module with wrappers, and puts the
originals back on :meth:`Instrument.uninstall`.

Two kinds of wrapper are installed:

* probes, always on, which record what the end-to-end metrics and the
  output checks need (end of set-up, entry into each iteration or tiled
  evaluation, the tensors and objective values produced);
* spans, only in a traced run, which time each layer. A span holds its
  name, start, end, parent span and run id; spans stay in memory until
  the run ends.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# factorization kinds, chosen by the innermost calling layer
FACTOR_KIND_BY_SPAN = {
    "homogenization.homogenize": "cell",
    "levelset.step": "levelset",
    "validation.evaluate_tiled": "fine",
    "validation.robustness_sweep": "fine",
}
DEFAULT_FACTOR_KIND = "macro"
BOUNDS_SLACK = 1e-6     # allowed excess of a K* eigenvalue over its Voigt-Reuss bounds


class StopWorkload(Exception):
    """Raised by a probe to end a run early (set-up only, or first operation)."""


class Tracer:
    """In-memory span recorder for one run.

    ``spans`` rows are ``[name, start, end, parent_index]`` with times in
    seconds from ``clock``; parent_index is -1 for a top-level span.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), math.nan, parent])
        self.stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = self.clock()
            self.stack.pop()

    def innermost(self, names) -> str | None:
        for index in reversed(self.stack):
            if self.spans[index][0] in names:
                return self.spans[index][0]
        return None

    def export(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the children's durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - children
    return out


def inclusive_times(spans) -> dict[str, tuple[float, int]]:
    """(total duration, call count) per span name, counting nested repeats once."""
    out: dict[str, tuple[float, int]] = {}
    for name, start, end, parent in spans:
        if has_ancestor(spans, parent, name.__eq__):
            continue
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + end - start, calls + 1)
    return out


def has_ancestor(spans, parent: int, matches) -> bool:
    """Whether span ``parent`` or one of its ancestors has a name ``matches`` accepts."""
    while parent >= 0:
        if matches(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def unattributed(spans, start: float, end: float) -> float:
    """Time in [start, end] not covered by any top-level span."""
    covered = sum(min(e, end) - max(s, start)
                  for _, s, e, parent in spans if parent < 0 and e > start and s < end)
    return (end - start) - covered


class _DegenerateCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "degenerate" in record.getMessage():
            self.counts["sensitivity.degenerate_drops"] += 1


class Instrument:
    """Installs probes, and spans when ``tracer`` is given, on cloakopt.

    Probe results:

    * ``setup_end``: clock time when the first ``optimizer.Workspace``
      finished building (optimization workloads only);
    * ``iterations``: one dict per ``macro_solver.evaluate_objectives``
      call with its entry time, J1, J2, temperature overshoot and the
      cell tensors homogenized since the previous call;
    * ``tiled``: one dict per ``validation.evaluate_tiled`` call with its
      entry and exit times and J1, J2.

    With ``calibrate`` (a callable returning the calibration kernel's
    time, see calibrate.py) each record also holds the kernel time
    sampled at its entry (``cal``, and ``cal_exit`` for a tiled
    evaluation); ``t_cal`` is the clock before that sample, so the
    interval between two iterations is ``next t_cal - t``.

    ``stop_after`` makes the probes raise :class:`StopWorkload` once
    set-up ends (``"setup"``) or the first operation ends (``"first"``).
    """

    def __init__(self, bc, tracer: Tracer | None = None, stop_after: str | None = None,
                 clock=time.perf_counter, calibrate=None):
        self.bc = bc
        self.tracer = tracer
        self.stop_after = stop_after      # None, "setup" or "first"
        self.clock = clock
        self.calibrate = calibrate
        self.setup_end: float | None = None
        self.run_returned: float | None = None
        self.iterations: list[dict] = []
        self.tiled: list[dict] = []
        self._pending_cells: list[dict] = []
        self._undo: list = []
        self._log_handler = None

    # -- installation -----------------------------------------------------

    def install(self) -> "Instrument":
        from cloakopt import (cli, fem, geometry, homogenization, levelset,
                              macro_solver, objectives, optimizer, sensitivity,
                              validation, vtkio)
        if self.tracer is not None:
            self._patch_attr(optimizer, "checkpoint",
                             self._sized_checkpoint(optimizer.checkpoint))
            self._replace(optimizer.run, self._marked_run(optimizer.run))
            spans = [
                (cli, "main", "cli.main"),
                (optimizer, "run", "optimizer.run"),
                (optimizer, "checkpoint", "optimizer.checkpoint"),
                (geometry, "build_macro_mesh", "geometry.mesh"),
                (geometry, "build_cell_mesh", "geometry.mesh"),
                (validation, "fine_mesh", "geometry.mesh"),
                (fem, "assemble_diffusion", "fem.assemble"),
                (fem, "apply_periodic", "fem.constrain"),
                (fem, "apply_dirichlet", "fem.constrain"),
                (homogenization, "homogenize", "homogenization.homogenize"),
                (macro_solver, "state_system", "macro_solver.state_system"),
                (macro_solver, "solve_state", "macro_solver.solve_state"),
                (macro_solver, "adjoint_load", "macro_solver.adjoint_load"),
                (macro_solver, "evaluate_objectives", "macro_solver.evaluate_objectives"),
                (objectives, "mismatch", "objectives.mismatch"),
                (objectives, "gradient_energy", "objectives.gradient_energy"),
                (sensitivity, "tensor_sensitivity", "sensitivity.tensor"),
                (sensitivity, "topological_tensor_fields", "sensitivity.topological"),
                (sensitivity, "combined_sensitivity", "sensitivity.combined"),
                (validation, "tile_conductivity", "validation.tile"),
                (validation, "evaluate_tiled", "validation.evaluate_tiled"),
                (validation, "robustness_sweep", "validation.robustness_sweep"),
                (vtkio, "write_vtk", "vtkio.write"),
            ]
            for module, attr, name in spans:
                self._replace(getattr(module, attr), self._spanned(getattr(module, attr), name))
            self._replace(fem.Factorization, self._traced_factorization(fem.Factorization))
            self._patch_attr(levelset.ReactionDiffusionUpdater, "step",
                             self._spanned(levelset.ReactionDiffusionUpdater.step,
                                           "levelset.step"))
            self._replace(optimizer.Workspace,
                          self._spanned_class(optimizer.Workspace, "optimizer.Workspace"))
            self._log_handler = _DegenerateCounter(self.tracer.counts)
            sensitivity.log.addHandler(self._log_handler)

        self._replace(optimizer.Workspace, self._setup_probe(optimizer.Workspace))
        self._replace(homogenization.homogenize,
                      self._homogenize_probe(homogenization.homogenize))
        self._replace(macro_solver.evaluate_objectives,
                      self._objectives_probe(macro_solver.evaluate_objectives,
                                             macro_solver.temperature_bounds_violation))
        self._replace(validation.evaluate_tiled,
                      self._tiled_probe(validation.evaluate_tiled))
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        if self._log_handler is not None:
            logging.getLogger("cloakopt.sensitivity").removeHandler(self._log_handler)
            self._log_handler = None

    def _patch_attr(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _replace(self, original, replacement) -> None:
        """Point every cloakopt module attribute bound to ``original`` at ``replacement``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cloakopt" or name.startswith("cloakopt.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, replacement)

    # -- spans ------------------------------------------------------------

    def _spanned(self, fn, name: str):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _spanned_class(self, cls, name: str):
        tracer = self.tracer

        class Spanned(cls):
            def __init__(self, *args, **kwargs):
                with tracer.span(name):
                    super().__init__(*args, **kwargs)
        Spanned.__name__ = Spanned.__qualname__ = cls.__name__
        return Spanned

    def _traced_factorization(self, cls):
        tracer = self.tracer

        class TracedFactorization(cls):
            def __init__(self, system):
                kind = FACTOR_KIND_BY_SPAN.get(
                    tracer.innermost(FACTOR_KIND_BY_SPAN), DEFAULT_FACTOR_KIND)
                self.bench_kind = kind
                with tracer.span(f"fem.factor.{kind}"):
                    super().__init__(system)
                tracer.counts["fem.factorizations"] += 1
                tracer.counts[f"fem.factorizations.{kind}"] += 1
                lu = getattr(self, "_lu", None)
                if lu is not None and hasattr(lu, "nnz"):
                    tracer.counts[f"fem.factor_fill_nnz.{kind}"] += int(lu.nnz)

            def solve(self, rhs_full=None, homogeneous=False):
                with tracer.span("fem.solve"):
                    out = super().solve(rhs_full, homogeneous)
                tracer.counts["fem.solves"] += 1
                if self.bench_kind == "macro":
                    key = "adjoint_solves" if homogeneous else "state_solves"
                    tracer.counts[f"macro_solver.{key}"] += 1
                return out
        TracedFactorization.__name__ = TracedFactorization.__qualname__ = cls.__name__
        return TracedFactorization

    def _sized_checkpoint(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(state, path):
            fn(state, path)
            tracer.counts["optimizer.checkpoints"] += 1
            tracer.counts["optimizer.checkpoint_bytes"] += sum(
                p.stat().st_size for p in Path(path).iterdir() if p.is_file())
        return wrapper

    def _marked_run(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.run_returned = self.clock()
            return out
        return wrapper

    # -- probes -----------------------------------------------------------

    def mark_setup_end(self) -> None:
        if self.setup_end is None:
            self.setup_end = self.clock()
            if self.stop_after == "setup":
                raise StopWorkload("setup")

    def _calibrated_entry(self) -> dict:
        t_cal = self.clock()
        cal = self.calibrate() if self.calibrate is not None else None
        return {"t_cal": t_cal, "cal": cal}

    def _op_done(self) -> None:
        if self.stop_after == "first":
            raise StopWorkload("first")

    def _setup_probe(self, cls):
        probe = self

        class Probed(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe.mark_setup_end()
        Probed.__name__ = Probed.__qualname__ = cls.__name__
        return Probed

    def _homogenize_probe(self, fn):
        from cloakopt.homogenization import voigt_reuss_bounds

        @functools.wraps(fn)
        def wrapper(mesh, mat):
            out = fn(mesh, mat)
            t = out[0]
            lo, hi = voigt_reuss_bounds(mat.volume_fraction(mesh), mat.k_a, mat.k_b)
            ok = (t.is_spd() and lo - BOUNDS_SLACK <= min(t.kbar1, t.kbar2)
                  and max(t.kbar1, t.kbar2) <= hi + BOUNDS_SLACK)
            self._pending_cells.append({"k": [t.k11, t.k12, t.k22], "ok": bool(ok)})
            return out
        return wrapper

    def _objectives_probe(self, fn, overshoot_of):
        @functools.wraps(fn)
        def wrapper(state, reference, mesh):
            record = self._calibrated_entry()
            entered = self.clock()
            j1, j2 = fn(state, reference, mesh)
            self.iterations.append({
                **record, "t": entered, "j1": j1, "j2": j2,
                "overshoot": overshoot_of(state, self.bc),
                "cells": self._pending_cells})
            self._pending_cells = []
            self._op_done()
            return j1, j2
        return wrapper

    def _tiled_probe(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._calibrated_entry()
            entered = self.clock()
            j1, j2, temp = fn(*args, **kwargs)
            record.update(t0=entered, t1=self.clock(), j1=j1, j2=j2)
            record["cal_exit"] = self.calibrate() if self.calibrate is not None else None
            self.tiled.append(record)
            self._op_done()
            return j1, j2, temp
        return wrapper
