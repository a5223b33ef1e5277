"""Bug finding for forall/exists safety hyperproperties via symbolic execution."""

from .driver import (
    BugFound,
    GeneralizedSpec,
    Inconclusive,
    NoBugUpTo,
    SearchOptions,
    SearchResult,
    analyze_source,
    generalize,
    lazy_search,
    naive_search,
)
from .frontend import ParseError, load

__all__ = [
    "BugFound",
    "GeneralizedSpec",
    "Inconclusive",
    "NoBugUpTo",
    "ParseError",
    "SearchOptions",
    "SearchResult",
    "analyze_source",
    "generalize",
    "lazy_search",
    "load",
    "naive_search",
]
