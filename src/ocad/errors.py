"""Exception and warning types shared across the toolkit."""


class OcadError(Exception):
    """Base class for all toolkit errors."""


class MalformedDocument(OcadError):
    """Input document is not valid OCEL 2.0 JSON (bad JSON, missing keys, bad values)."""


class DanglingReference(MalformedDocument):
    """An event references an object id that is not declared."""


class DuplicateId(MalformedDocument):
    """Two events or two objects share the same identifier."""


class UnknownObject(OcadError):
    """Requested object id does not exist in the log."""


class NoObjectsOfType(OcadError):
    """Feature extraction requested for an object type with no instances."""


class MixedAttributeType(OcadError):
    """A common attribute is numeric for some objects and string for others."""


class ColumnCollision(OcadError):
    """Two different feature columns would write the same header."""


class TypeMismatch(OcadError):
    """Feature propagation requires two distinct object types."""


class AllColumnsDropped(OcadError):
    """Variance filtering removed every column; callers may fall back to the unfiltered matrix."""


class TooFewRows(OcadError):
    """Not enough rows for the requested computation."""


class KTooLarge(OcadError):
    """Requested more objects than the rank vector contains."""


class RowMismatch(OcadError):
    """Row ids of two aligned structures differ."""


class EmptyMatrix(OcadError):
    """Operation requires at least one row; scoring also requires one column."""


class InvalidConfig(OcadError):
    """Configuration violates its invariants."""


class LlmTimeout(OcadError):
    """The LLM endpoint did not answer within the configured timeout."""


class LlmHttpError(OcadError):
    """The LLM endpoint answered with a non-200 status."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"HTTP {status} from LLM endpoint")
        self.status = status


class LlmSchemaError(OcadError):
    """The LLM endpoint reply did not match the chat-completion schema."""


class DegenerateMatrixWarning(UserWarning):
    """All rows of the input matrix are identical; scores carry no information."""


class VarianceFallbackWarning(UserWarning):
    """The variance filter would drop every column; the unfiltered matrix is used instead."""
