"""Exception hierarchy shared by all tensortree modules."""


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
        super().__init__(msg or f"path not found: {'/'.join(self.path) or '<root>'}")


# ---- treelize -------------------------------------------------------------

class StrictKeyMismatch(TensorTreeError):
    def __init__(self, difference, path=()):
        self.difference = frozenset(difference)
        self.path = tuple(path)
        where = "/".join(self.path) or "<root>"
        super().__init__(
            f"strict policy: key sets differ at {where}: "
            f"{sorted(self.difference)}"
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
        super().__init__(f"at {'/'.join(self.path) or '<root>'}: {cause}")


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
        where = "/".join(self.path) or "<root>"
        super().__init__(msg or f"constraint violated at {where}: {constraint}")


class UnknownAtomKind(TensorTreeError):
    pass


class BadPath(TensorTreeError):
    pass


# ---- padding --------------------------------------------------------------

class TailShapeMismatch(TensorTreeError):
    def __init__(self, path, msg=None):
        self.path = tuple(path)
        super().__init__(msg or f"tail shapes differ at {'/'.join(self.path)}")


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
