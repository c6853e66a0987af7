"""Exception types shared across the engine."""


class WorkcellError(Exception):
    """Base class for all engine errors."""


class NumericError(WorkcellError):
    """A numeric operation failed (e.g. Cholesky on a non-SPD matrix)."""


class InsufficientDataError(WorkcellError):
    """Not enough data to perform the requested estimate."""


class InvalidDepthError(WorkcellError):
    """Depth value is missing, zero, or negative."""


class RegistrationError(WorkcellError):
    """Point-set registration could not produce a valid transform."""


class IntegrityError(WorkcellError):
    """A store invariant was violated (dangling grounding link, bad index)."""


class StateMachineError(WorkcellError):
    """An illegal constraint-state transition was requested."""


class TransactionError(WorkcellError):
    """Transaction log misuse (empty rollback, unknown action)."""


class ScriptGapError(WorkcellError):
    """The scripted reasoner has no response for a request."""


class ScenarioError(WorkcellError):
    """A scenario file failed validation."""
