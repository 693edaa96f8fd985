"""Run one nslab CLI stage with a timing span around every call into a layer.

    python3 stage_trace.py SPANS_JSON RUN_ID <nslab arguments...>

The layer functions listed in TARGETS are replaced, in every loaded nslab
module that binds them by name, by wrappers that record a span (id, name,
start, end, parent span id, computed facts such as bytes).  Spans are kept in
memory and written with RUN_ID, which all spans of the file share, to
SPANS_JSON after the stage returns; the caller keeps that file outside the
run directory.  The exit status is the stage's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) -> span name.  "Grid.forward" names a method.
TARGETS = {
    ("nslab.spectral", "Grid.forward"): "spectral.fft",
    ("nslab.spectral", "Grid.inverse"): "spectral.fft",
    ("nslab.solver", "simulate"): "solver.simulate",
    ("nslab.solver", "step"): "solver.step",
    ("nslab.solver", "nonlinear_term"): "solver.nonlinear",
    ("nslab.snapshots", "write_snapshot"): "snapshots.write",
    ("nslab.snapshots", "read_snapshot"): "snapshots.read",
    ("nslab.filtering", "make_kernel"): "filtering.make_kernel",
    ("nslab.filtering", "reynolds_stress_hat"): "filtering.stress",
    ("nslab.filtering", "resolved_balance"): "filtering.resolved_balance",
    ("nslab.dissipation", "defect_structure_function"): "dissipation.structure",
    ("nslab.dissipation", "defect_stress_strain"): "dissipation.stress_strain",
    ("nslab.dissipation", "defect_cross_validate"): "dissipation.cross_validate",
    ("nslab.minimizer", "assemble_flux"): "minimizer.assemble_flux",
    ("nslab.minimizer", "solve_mp"): "minimizer.solve_mp",
    ("nslab.minimizer", "lagrange_ratio"): "minimizer.lagrange_ratio",
    ("nslab.minimizer", "el_residual"): "minimizer.el_residual",
    ("nslab.minimizer", "boussinesq_residual"): "minimizer.boussinesq_residual",
    ("nslab.minimizer", "energy_drop_identity"): "minimizer.energy_drop_identity",
    ("nslab.minimizer", "weak_convergence_diag"): "minimizer.weak_convergence_diag",
    ("nslab.minimizer", "stress_limit_diagnostics"): "minimizer.stress_limit_diagnostics",
    ("nslab.minimizer", "oracle_mp"): "minimizer.oracle",
    ("nslab.basket", "build_basket"): "basket.build",
    ("nslab.pipeline", "load_run"): "pipeline.load_run",
    ("nslab.pipeline", "cmd_simulate"): "pipeline.simulate",
    ("nslab.pipeline", "cmd_analyze"): "pipeline.analyze",
    ("nslab.pipeline", "cmd_minimize"): "pipeline.minimize",
    ("nslab.pipeline", "cmd_report"): "pipeline.report",
}

SNAPSHOT_HEADER_BYTES = 24


def _fft_extra(args, result):
    return {"bytes": args[1].nbytes + result.nbytes}


def _write_extra(args, result):
    import numpy as np

    return {"bytes": SNAPSHOT_HEADER_BYTES + np.asarray(args[2], dtype=np.float64).nbytes}


def _read_extra(args, result):
    return {"bytes": SNAPSHOT_HEADER_BYTES + result[1].nbytes}


def _width_extra(args, result):
    return {"delta": float(args[2])}


def _structure_extra(args, result):
    from nslab.dissipation import offsets_count

    return {"delta": float(args[2]), "offsets": offsets_count(args[0], args[2])}


def _oracle_extra(args, result):
    return {"iterations": int(result.iterations)}


# Per-span facts computed from the call's arguments and result, after the
# span has closed so they do not count towards its time.
EXTRAS = {
    "spectral.fft": _fft_extra,
    "snapshots.write": _write_extra,
    "snapshots.read": _read_extra,
    "dissipation.structure": _structure_extra,
    "dissipation.stress_strain": _width_extra,
    "minimizer.oracle": _oracle_extra,
}


class Tracer:
    """Span recorder; a span is [id, name, start, end, parent id, extra]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, func):
        extra_of = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                self._stack.pop()
            if extra_of is not None:
                span[5] = extra_of(args, result)
            return result

        return traced

    def install(self):
        """Swap every target for its wrapper wherever nslab binds it."""
        import importlib

        for (module_name, attr), name in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "nslab" or mod_name.startswith("nslab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def main(argv):
    spans_path, run_id, stage_args = argv[0], argv[1], argv[2:]
    import nslab.cli

    tracer = Tracer(run_id)
    tracer.install()
    status = nslab.cli.main(stage_args)
    tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
