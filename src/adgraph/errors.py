"""Exception types shared across the package."""


class AdgraphError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AdgraphError):
    """A configuration value or file is invalid or infeasible."""


class IngestError(AdgraphError):
    """The corpus file itself is unreadable or structurally wrong."""


class EmptyCorpusError(IngestError):
    """No valid record survived ingestion."""


class PipelineError(AdgraphError):
    """A stage cannot run: missing or stale upstream artifacts."""


class InconsistentInput(ValueError):
    """A row of one input that contradicts the others; `artifact` names
    that input, such as "normalized" or "clusters"."""

    def __init__(self, artifact: str, reason: str):
        super().__init__(reason)
        self.artifact = artifact


class LabelingError(AdgraphError):
    """Labeling preconditions are not met (e.g. too few components)."""


class AnalysisError(AdgraphError):
    """Comparison inputs are inconsistent with each other."""
