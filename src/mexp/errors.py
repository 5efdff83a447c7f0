"""Exception classes shared across the package, mapped to CLI exit codes, and
the replay of warnings recorded apart (in a pool worker, or per step
generator of `classify.answer`)."""

import warnings


class ConfigError(ValueError):
    """Invalid configuration value or unparseable config file (exit code 2)."""


class DataError(ValueError):
    """Missing, malformed, or inconsistent input data (exit code 3)."""


class NumericError(ArithmeticError):
    """Numeric failure such as non-finite input to a solver (exit code 4)."""


def _explicit(caught):
    """`warnings.warn_explicit` arguments of recorded warnings."""
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _warn_again(warned, registry):
    for args in warned:
        warnings.warn_explicit(*args, registry=registry)
