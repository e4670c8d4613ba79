"""Exception hierarchy shared by all tensortree modules."""

import reprlib

_SHOWN = 200  # the most characters of a path, key list or document value a message quotes
_REPR = reprlib.Repr()  # abbreviates containers: a large value is never repr'd whole
_REPR.maxstring = _REPR.maxother = _SHOWN


def _shown(text: str, limit: int = _SHOWN) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _quoted(obj, limit: int = _SHOWN) -> str:
    """repr(obj) as a message quotes it: containers abbreviated, then cut."""
    return _shown(_REPR.repr(obj), limit)


def _where(path) -> str:
    """A path as a message names it; the error's `.path` stays whole."""
    return _shown("/".join(path) or "<root>")


class TensorTreeError(Exception):
    """Base class for every domain error raised by this package."""


# ---- leaf level -----------------------------------------------------------

class ShapeDataMismatch(TensorTreeError):
    pass


class UnknownFunction(TensorTreeError):
    pass


class DtypeUnsupported(TensorTreeError):
    pass


class ShapeMismatchLeaf(TensorTreeError):
    pass


class DivisionByZero(TensorTreeError):
    pass


class EmptyInput(TensorTreeError):
    pass


class InvalidChunk(TensorTreeError):
    pass


# ---- tree level -----------------------------------------------------------

class EmptyKey(TensorTreeError):
    pass


class BadKey(TensorTreeError):
    """Key contains the reserved path separator or a reserved prefix."""


class PathNotFound(TensorTreeError):
    def __init__(self, path, msg=None):
        self.path = tuple(path)
        super().__init__(msg or f"path not found: {_where(self.path)}")


# ---- treelize -------------------------------------------------------------

class StrictKeyMismatch(TensorTreeError):
    def __init__(self, difference, path=()):
        self.difference = frozenset(difference)
        self.path = tuple(path)
        super().__init__(
            f"strict policy: key sets differ at {_where(self.path)}: "
            f"{_shown(str(sorted(self.difference)))}"
        )


class MissingDefault(TensorTreeError):
    pass


class ArityMismatch(TensorTreeError):
    pass


class LeafOpError(TensorTreeError):
    """A leaf operation failed inside a lifted call; carries the path."""

    def __init__(self, path, cause):
        self.path = tuple(path)
        self.cause = cause
        super().__init__(f"at {_where(self.path)}: {cause}")


# ---- functional utils -----------------------------------------------------

class StructureMismatch(TensorTreeError):
    pass


class NonBooleanMask(TensorTreeError):
    pass


class InconsistentInnerStructure(TensorTreeError):
    pass


class NoEmbeddedTree(TensorTreeError):
    pass


# ---- constraints ----------------------------------------------------------

class ConstraintViolation(TensorTreeError):
    def __init__(self, path, constraint, msg=None):
        self.path = tuple(path)
        self.constraint = constraint
        super().__init__(msg or f"constraint violated at {_where(self.path)}: {constraint}")


class UnknownAtomKind(TensorTreeError):
    pass


class BadPath(TensorTreeError):
    pass


# ---- padding --------------------------------------------------------------

class TailShapeMismatch(TensorTreeError):
    def __init__(self, path, msg=None):
        self.path = tuple(path)
        super().__init__(msg or f"tail shapes differ at {_where(self.path)}")


class CorruptLengths(TensorTreeError):
    pass


# ---- io -------------------------------------------------------------------

class ParseError(TensorTreeError):
    def __init__(self, reason, line=None):
        self.line = line
        self.reason = reason
        super().__init__(f"parse error{f' at line {line}' if line else ''}: {reason}")


class DtypeUnknown(TensorTreeError):
    pass
