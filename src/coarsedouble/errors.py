"""Shared exception types."""

from contextlib import contextmanager


class DomainError(ValueError):
    """An argument lies outside the operation's domain (wrong space, empty set, ...)."""


class SearchInconclusive(Exception):
    """A bounded search exhausted its window without certifying an answer.

    Carries the radius that was searched and, when known, the radius that
    would be required to settle the question.
    """

    def __init__(self, message, window_radius=None, required_radius=None):
        super().__init__(message)
        self.window_radius = window_radius
        self.required_radius = required_radius


@contextmanager
def _malformed(what: str):
    """Reads a document: a field missing or of the wrong shape raises DomainError."""
    try:
        yield
    except DomainError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {what} document: {exc!r}") from None
