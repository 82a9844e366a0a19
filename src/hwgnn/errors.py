"""Exception types used across the package."""


class HwgnnError(Exception):
    """Base class for all errors raised by this package.  ``design`` names
    the design the error arose in, once a command has set it."""

    design: str | None = None


# --- source handling / flattening ---

class EmptySourceError(HwgnnError):
    pass


class DuplicateModuleError(HwgnnError):
    pass


class UnresolvedIncludeError(HwgnnError):
    pass


class NoTopModuleError(HwgnnError):
    pass


class AmbiguousTopModuleError(HwgnnError):
    pass


class UndecodableFileError(HwgnnError):
    pass


# --- parsing ---

class VerilogSyntaxError(HwgnnError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            msg = f"{msg} (line {line}, col {col})"
        super().__init__(msg)


class UnsupportedConstructError(HwgnnError):
    def __init__(self, construct, line=None, col=None):
        self.construct = construct
        self.line = line
        self.col = col
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"unsupported construct: {construct}{loc}")


# --- elaboration / DFG ---

class UnknownModuleError(HwgnnError):
    pass


class UnknownSignalError(HwgnnError):
    pass


class EmptyGraphError(HwgnnError):
    pass


class ElaborationDepthError(HwgnnError):
    pass


# --- graph serialization ---

class SchemaViolationError(HwgnnError):
    def __init__(self, pointer, msg=""):
        self.pointer = pointer
        detail = f": {msg}" if msg else ""
        super().__init__(f"schema violation at {pointer}{detail}")


# --- dataset handling ---

class UnknownLabelError(HwgnnError):
    pass


class EmptyCorpusError(HwgnnError):
    pass


class DegenerateSplitError(HwgnnError):
    pass


class UnknownCircuitError(HwgnnError):
    pass


class CacheCorruptError(HwgnnError):
    pass


# --- numeric core ---

class ShapeMismatchError(HwgnnError):
    pass


class NonFiniteError(HwgnnError):
    pass


class ZeroVectorError(HwgnnError):
    pass


# --- model / training ---

class EmptyPoolError(HwgnnError):
    pass


class WrongHeadError(HwgnnError):
    pass


class BadLabelError(HwgnnError):
    pass


class DivergenceError(HwgnnError):
    def __init__(self, step, last_finite_loss):
        self.step = step
        self.last_finite_loss = last_finite_loss
        super().__init__(
            f"training diverged at step {step} "
            f"(last finite loss: {last_finite_loss})"
        )


class VersionMismatchError(HwgnnError):
    pass


class VocabMismatchError(HwgnnError):
    pass


class CorruptFileError(HwgnnError):
    pass


# --- CLI / config ---

class ConfigError(HwgnnError):
    pass
