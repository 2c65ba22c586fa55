"""The one error taxonomy of soldens.

Every error the package raises is a SoldensError, and its kind is chosen
where it is raised:

- ``bad-input``: the value is malformed, unknown, below its range, or empty
  where it must be nonempty;
- ``size-guard``: a well-formed value is above a cap that the code enforces;
- ``invariant-failure`` (the default): a certificate or re-verification
  failed.

EXIT_CODES is the only place that turns a kind into a CLI exit code, and
reading is the only place that decides what makes outside JSON malformed.
"""

from contextlib import contextmanager

INVARIANT_FAILURE = "invariant-failure"
BAD_INPUT = "bad-input"
SIZE_GUARD = "size-guard"

EXIT_CODES = {INVARIANT_FAILURE: 1, BAD_INPUT: 2, SIZE_GUARD: 3}


class SoldensError(ValueError):
    kind = INVARIANT_FAILURE

    def __init__(self, message, kind=None):
        super().__init__(message)
        if kind is not None:
            self.kind = kind


@contextmanager
def reading(what, error):
    """with reading(what, error): a failure to decode outside JSON or read its fields, nesting
    too deep included, raises error(f"malformed {what}: {e!r}", kind=BAD_INPUT); a SoldensError
    raised inside passes unchanged."""
    try:
        yield
    except SoldensError:
        raise
    except (ValueError, TypeError, LookupError, AttributeError, ArithmeticError, RecursionError) as e:
        raise error(f"malformed {what}: {e!r}", kind=BAD_INPUT) from None
