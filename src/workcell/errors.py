"""Exception types shared across the engine."""


class WorkcellError(Exception):
    """Base class for all engine errors."""


class NumericError(WorkcellError):
    """A numeric operation failed (e.g. Cholesky on a non-SPD matrix)."""


class InsufficientDataError(WorkcellError):
    """Not enough data to perform the requested estimate."""


class RegistrationError(WorkcellError):
    """Point-set registration could not produce a valid transform."""


class IntegrityError(WorkcellError):
    """A store invariant was violated (a live vertex without a record, bad index)."""


class StateMachineError(WorkcellError):
    """An illegal constraint-state transition was requested."""


class TransactionError(WorkcellError):
    """Transaction log misuse (empty rollback, unknown action)."""


class ReasonerFault(WorkcellError):
    """The reasoner gave no usable reply to a request of kind ``kind``.
    It ends the trial, which is recorded as failed, not the run."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class ScriptGapError(ReasonerFault):
    """The scripted reasoner has no response for a request."""


class ScenarioError(WorkcellError):
    """A scenario file failed validation."""
