"""Exception types shared across the library."""


class StructureError(ValueError):
    """Operands are structurally incompatible (group, dimensions, parameter c)."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class UnsupportedInputError(DomainError):
    """Input is valid but deliberately unsupported (e.g. half-integer weights)."""


class NoGLFormulaError(DomainError):
    """A GL bracket was asked for without allowing the extrapolated rule."""


class ResourceLimitError(RuntimeError):
    """A size guard (the cap on Weyl group or orbit size, or on Lie dimension) was exceeded."""


class InternalCheckError(RuntimeError):
    """A self-check that should be unreachable failed; indicates a bug."""
