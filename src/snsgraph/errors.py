"""Exception types shared across the toolkit.

Data-shaped failures (bad corpora, impossible metrics) raise subclasses of
:class:`AnalyticsError` so the CLI can map them to a dedicated exit code,
while genuine I/O problems keep their builtin ``OSError`` types.
"""


class AnalyticsError(Exception):
    """Base class for data/metric errors raised by this package."""


class EmptyCorpusError(AnalyticsError):
    """A corpus source yielded zero well-formed records."""


class EmptyGraphError(AnalyticsError):
    """An operation requires a non-empty graph."""


class UndefinedModularityError(AnalyticsError):
    """Modularity is undefined (total edge weight is zero)."""


class DegenerateSpectrumError(AnalyticsError):
    """Power iteration collapsed to the zero vector; no dominant eigenvector."""


class LayoutDivergenceError(AnalyticsError, ArithmeticError):
    """Layout forces grew until a coordinate was no longer finite."""


class LexiconError(AnalyticsError):
    """A sentiment lexicon could not be loaded or is empty."""


class GexfParseError(AnalyticsError):
    """A GEXF document could not be parsed.

    ``line`` and ``column`` locate the problem when the XML parser
    reported a position, otherwise both are ``None``.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class RecordParseError(AnalyticsError):
    """A serialized interaction record could not be decoded."""
