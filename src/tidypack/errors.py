"""Exception types shared across the package, and the base of its checked value types."""

from __future__ import annotations

from collections import namedtuple


def checked_tuple(typename: str, field_names: str) -> type:
    """A named-tuple base for a value type whose ``__new__`` checks or
    normalizes what it is given, then builds the tuple with ``tuple.__new__``.

    ``_replace`` goes through that constructor, so a changed value is
    checked again, while ``_make`` stays the unchecked builder, for values
    tidypack made itself.  Like a plain named tuple's, ``_replace`` refuses a
    name that is not a field, even one the constructor takes (``CsvTable``'s
    ``rows``).  A copy or a pickle is rebuilt with ``_make`` from the fields,
    whatever the constructor's parameters are: keyword-only, or positional
    in another order than the fields.
    """
    base = namedtuple(typename, field_names)
    unchecked_replace = base._replace
    base._replace = lambda self, /, **changes: type(self)(**unchecked_replace(self, **changes)._asdict())
    base.__reduce__ = lambda self: (self._make, (tuple(self),))
    return base


class ToolError(Exception):
    """Base class for every error this package raises on purpose.

    Anything else escaping the public API is a bug.
    """


class EncodingError(ToolError):
    """Input bytes are not valid UTF-8."""


class CsvError(ToolError):
    """Malformed delimited-table content.

    ``row`` carries the 1-based record number when the problem can be pinned
    to one record (the header counts as record 1).
    """

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class FrontMatterError(ToolError):
    """Malformed or unsupported YAML front matter."""


class SchemaError(ToolError):
    """Invalid table-schema content or structure."""


class DictionaryError(ToolError):
    """Invalid data-dictionary content."""


class ManifestError(ToolError):
    """Malformed checksum manifest."""


class ChunkError(ToolError):
    """Invalid chunking or reassembly request."""


class PackError(ToolError):
    """Archive packing refused or failed."""


class ScaffoldError(ToolError):
    """Invalid scaffold request or destination."""


class ScanError(ToolError):
    """A directory tree cannot be inventoried."""


class ConfigError(ToolError):
    """Malformed lint configuration."""
