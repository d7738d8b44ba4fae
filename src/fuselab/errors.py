"""Exception types shared across the package, one per exit code past usage's.

cli.main maps every failure onto an exit code: DataError and OSError give 3,
NumericError 4, and any other ValueError (argparse usage failures included)
2. A model bundle's faults are DataErrors that fusion.load_model alone raises.
"""


class NumericError(ArithmeticError):
    """A GEMM (tensor.matmul) or a training step produced NaN/Inf, or overflowed."""


class DataError(ValueError):
    """Invalid on-disk data (chip files, manifests, checkpoints, model bundles), or data unlike the model."""
