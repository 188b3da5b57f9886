"""Measure behaviourally targeted advertising with trained personas.

The package trains browsing personas on category-labelled pages, reaches
a multi-source consensus on their training keywords, collects the ads
shown to them on neutral control pages, strips retargeting, static,
contextual and demographic inventory through a three-stage filter
pipeline, and quantifies what is left with keyword-overlap (TTK) and
impression-share (BAiLP) metrics. A seeded ad-ecosystem simulator with
ground-truth ad kinds validates the whole chain end to end.
"""

from .adsim import (
    AdUnit,
    PersonaSpec,
    SimConfig,
    TagNoise,
    World,
    WorldTagSource,
    build_world,
    default_persona_specs,
    kind_counts,
)
from .corpus import (
    AdImpression,
    ExperimentStore,
    WebPage,
    landing_key,
    normalize_url,
    tag_pages,
)
from .demo import demo_taxonomy, demo_taxonomy_text, persona_bundle
from .errors import (
    ConfigurationError,
    CorpusDataError,
    ObameterError,
)
from .experiment import (
    Condition,
    ExperimentManifest,
    analyze,
    digest,
    filter_attrition,
    load_manifest,
    simulate,
    validate,
)
from .metrics import (
    ComparisonStats,
    CorrelationReport,
    PerformanceReport,
    bailp,
    comparison_stats,
    detection_performance,
    iqr_bounds,
    quartiles,
    ttk,
    value_correlation,
)
from .persona import (
    CandidatePage,
    ConsensusConfig,
    Persona,
    consensus_training_keywords,
    select_training_pages,
)
from .pipeline import (
    FilterConfig,
    PipelineResult,
    apply_filters,
    build_audience,
    filter_demo_geo,
    filter_retargeting,
    filter_static_contextual,
)
from .session import (
    AdHarvester,
    ServedAd,
    SessionConfig,
    SessionPlan,
    SessionResult,
    VisitEvent,
    run_session,
    schedule_visits,
)
from .taxonomy import KeywordTaxonomy, normalize_keyword

__version__ = "0.1.0"

__all__ = [
    "AdHarvester",
    "AdImpression",
    "AdUnit",
    "CandidatePage",
    "ComparisonStats",
    "Condition",
    "ConfigurationError",
    "ConsensusConfig",
    "CorpusDataError",
    "CorrelationReport",
    "ExperimentManifest",
    "ExperimentStore",
    "FilterConfig",
    "KeywordTaxonomy",
    "ObameterError",
    "PerformanceReport",
    "Persona",
    "PersonaSpec",
    "PipelineResult",
    "ServedAd",
    "SessionConfig",
    "SessionPlan",
    "SessionResult",
    "SimConfig",
    "TagNoise",
    "VisitEvent",
    "WebPage",
    "World",
    "WorldTagSource",
    "analyze",
    "apply_filters",
    "bailp",
    "build_audience",
    "build_world",
    "comparison_stats",
    "consensus_training_keywords",
    "default_persona_specs",
    "demo_taxonomy",
    "demo_taxonomy_text",
    "detection_performance",
    "digest",
    "filter_attrition",
    "filter_demo_geo",
    "filter_retargeting",
    "filter_static_contextual",
    "iqr_bounds",
    "kind_counts",
    "landing_key",
    "load_manifest",
    "normalize_keyword",
    "normalize_url",
    "persona_bundle",
    "quartiles",
    "run_session",
    "schedule_visits",
    "select_training_pages",
    "simulate",
    "tag_pages",
    "ttk",
    "validate",
    "value_correlation",
]
