"""Exception hierarchy shared by the obameter modules.

One class per exit code of the command line:

    ConfigurationError  2  bad manifest, option, taxonomy or price file
    CorpusDataError     3  missing, unreadable or inconsistent corpus data
    ObameterError       1  any other tool error

A subclass exists only where code catches it or reads what it carries;
every other check raises one of the three with a message naming what
failed.
"""

from __future__ import annotations


class ObameterError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ObameterError):
    """Invalid configuration, manifest, taxonomy, or operation parameters."""


class CorpusDataError(ObameterError):
    """Missing, inconsistent, or unreadable experiment corpus data."""


# persona

class PersonaRejected(ObameterError):
    """Training-page selection left fewer pages than the minimum.

    Carries the per-step attrition counts so callers can report how many
    candidates each selection step discarded.
    """

    def __init__(self, message: str, attrition: dict[str, int]):
        super().__init__(message)
        self.attrition = dict(attrition)


# metrics: analyze catches these and writes a note in their place

class EmptyTrainingSet(ObameterError):
    """TTK was requested against an empty training keyword set."""


class NoImpressions(ObameterError):
    """BAiLP was requested over an empty impression collection."""


class DegenerateSeries(ObameterError):
    """A correlation input is constant or too short after outlier removal."""


class KeyMismatch(ObameterError):
    """Paired series do not share an identical key set."""
