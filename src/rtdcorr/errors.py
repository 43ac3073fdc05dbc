"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Bad input data or configuration; maps to exit code 1 in the CLI."""


class NotFoundError(KeyError):
    """A referenced host, city or ISP does not exist."""

    def __str__(self) -> str:
        # the message itself, not KeyError's repr of it in quotes
        return Exception.__str__(self)


class BestlineError(ValidationError):
    """No feasible lower linear bound exists for the given points."""
