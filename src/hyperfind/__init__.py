"""Bug finding for forall/exists safety hyperproperties via symbolic execution.

The public names are resolved on first use (PEP 562), so that a process
that runs only part of the package, such as the bundled solver as a child
(`python -m hyperfind.refsolver`), does not import the search.
"""

import importlib

# Each public name and the module that defines it.
_EXPORTS = {
    "BugFound": "driver",
    "GeneralizedSpec": "driver",
    "Inconclusive": "driver",
    "NoBugUpTo": "driver",
    "ParseError": "frontend",
    "SearchOptions": "driver",
    "SearchResult": "driver",
    "analyze_source": "driver",
    "generalize": "driver",
    "lazy_search": "driver",
    "load": "frontend",
    "naive_search": "driver",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
