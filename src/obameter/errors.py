"""Exception hierarchy shared by the obameter modules.

Two branches matter to the command line: configuration problems map to
exit code 2, corpus problems to exit code 3. Everything else is a plain
ObameterError.
"""

from __future__ import annotations


class ObameterError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ObameterError):
    """Invalid configuration, manifest, or operation parameters."""


class CorpusDataError(ObameterError):
    """Missing, inconsistent, or unreadable experiment corpus data."""


# taxonomy

class TaxonomyError(ConfigurationError):
    """Malformed taxonomy input (cycle, multiple roots, bad edge line)."""


class UnknownKeyword(ObameterError):
    """A keyword was looked up that no taxonomy node carries."""


# corpus

class IncompleteCorpus(CorpusDataError):
    """An experiment directory lacks files required by the requested step."""


# persona

class PersonaRejected(ObameterError):
    """Training-page selection left fewer pages than the minimum.

    Carries the per-step attrition counts so callers can report how many
    candidates each selection step discarded.
    """

    def __init__(self, message: str, attrition: dict[str, int]):
        super().__init__(message)
        self.attrition = dict(attrition)


class InsufficientSources(ConfigurationError):
    """Fewer tagging sources supplied than the consensus rule needs."""


# session

class EmptyPool(ConfigurationError):
    """A visit schedule was requested over an empty page pool."""


class HarvesterFailure(ObameterError):
    """The ad harvester failed mid-session.

    Nothing of the session is kept: the failure propagates and aborts the
    run before sessions.json is written.
    """


# ad ecosystem simulator

class InvalidConfig(ConfigurationError):
    """Simulator configuration violates its invariants."""


# pipeline

class MissingCleanProfile(CorpusDataError):
    """The static & contextual filter was invoked without a clean-profile corpus."""


# metrics

class EmptyTrainingSet(ObameterError):
    """TTK was requested against an empty training keyword set."""


class NoImpressions(ObameterError):
    """BAiLP was requested over an empty impression collection."""


class MissingGroundTruth(CorpusDataError):
    """Detection performance needs a ground-truth label on every impression."""


class DegenerateSeries(ObameterError):
    """A correlation input is constant or too short after outlier removal."""


class KeyMismatch(ObameterError):
    """Paired series do not share an identical key set."""
