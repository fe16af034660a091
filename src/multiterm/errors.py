"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A structural problem: unknown variable, alphabet mismatch, bad topology."""


class UnsupportedConditionError(ValueError):
    """Conditioning on an event of probability zero."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the declared compute budget."""


class EmptySupportError(RuntimeError):
    """A constrained-random draw was requested from an empty support set."""


class EncoderAbort(EmptySupportError):
    """Encoder-side constrained draw found no admissible block."""


class DecoderAbort(EmptySupportError):
    """Decoder-side constrained draw found no admissible block."""


class PreconditionError(ValueError):
    """An input violates a stated precondition (e.g. a required Markov chain)."""
