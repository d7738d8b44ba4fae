"""Exception types shared across the package.

cli.main maps every failure onto an exit code: DataError, ShapeError and
OSError give 3, NumericError 4, and any other ValueError (argparse usage
failures included) 2.
"""


class ShapeError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class NumericError(ArithmeticError):
    """A kernel or training step produced NaN/Inf, or overflowed."""


class DataError(ValueError):
    """Invalid on-disk data (chip files, manifests, checkpoints)."""
