"""The package's exception classes, in one numpy-free module.

Each class is re-exported by the module that raises it (so
`nslab.filtering.KernelError is nslab.errors.KernelError`).  The command
line imports them from here, so that a stage process loads only the
modules it runs: cli maps the input errors to exit code 2 and the runtime
errors to exit code 1.
"""


class ConfigError(ValueError):
    """A config file that cannot drive a run; message names the bad key."""


class DissipationError(ValueError):
    """A dissipation-defect request that the driver refuses to run."""


class GridError(ValueError):
    """Raised when grid or time-stepping parameters are inconsistent."""


class KernelError(ValueError):
    """The requested filter width cannot be represented on the grid."""


class LedgerError(ValueError):
    """A ledger or stage record that cannot be read (schema, shape or syntax)."""


class MinimizerError(ValueError):
    """A variational request that cannot be satisfied as posed."""


class SnapshotFormatError(ValueError):
    """A .nsel file failed validation; .reason holds a short machine-usable tag."""

    def __init__(self, path, reason, detail=""):
        self.path = str(path)
        self.reason = reason
        msg = f"{path}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class BlowUpError(RuntimeError):
    """Raised when the solution leaves the representable range (NaN/overflow)."""

    def __init__(self, time, step):
        super().__init__(f"solution blew up at t={time:.6g} (step {step})")
        self.time = time
        self.step = step
        self.partial = None  # Trajectory of the states recorded before failure


class PipelineError(RuntimeError):
    """A run directory in the wrong state for the requested stage."""
