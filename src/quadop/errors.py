"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: InputError -> 1, InternalCheckError -> 2.
Any other exception is a plain bug: the CLI prints one
``unexpected error: <type>: <message>`` line and exits 3.
"""


class QuadopError(Exception):
    """Base class for errors raised deliberately by this package."""


class InputError(QuadopError):
    """Bad user input: unknown names, malformed relation text, bad operad
    files, out-of-window locality queries, non-involutive swap matrices and
    the like."""


class InternalCheckError(QuadopError):
    """A check the code performs on its own results failed: the S3-stability
    guard on a constructed relation space, the replay of a Dong witness, or
    one of the ``selfcheck`` cross-checks (for example dual(dual(P)) == P),
    or the echelon reduction's check that each elimination clears its column.
    This never indicates bad input; it indicates a convention bug."""
