"""Exact inference and confounding audits on stratified 2x2 contingency tables."""

from .association import (
    FigureModel,
    NominalCorrelationResult,
    OddsRatioValue,
    RateTable,
    determinant_figure,
    flattened_volume_ratio,
    nominal_correlation,
    odds_ratio,
    rate_table,
)
from .confounding import CollapseComparison, SimpsonVerdict, collapse_comparison, simpson_check
from .datasets import EMBEDDED, DatasetFormatError, UnknownDatasetError
from .exact import (
    BinomialParams,
    HypergeomParams,
    SupportError,
    TailTable,
    binomial_upper_tail,
    fisher_upper_tail,
    hypergeom_pmf,
    hypergeom_upper_tail,
    tail_table,
)
from .pipeline import (
    AnalysisReport,
    BinomialAnalysisResult,
    FisherPipelineResult,
    binomial_analysis,
    fisher_pipeline,
    replicate,
)
from .simulate import SimulationResult, SimulationSpec, simulate_heterogeneous, simulate_tail
from .tables import (
    DatasetDiff,
    MarginSummary,
    StratifiedTable,
    Table2x2,
    TableValidationError,
    collapse,
    diff,
    margins,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BinomialAnalysisResult",
    "BinomialParams",
    "CollapseComparison",
    "DatasetDiff",
    "DatasetFormatError",
    "EMBEDDED",
    "FigureModel",
    "FisherPipelineResult",
    "HypergeomParams",
    "MarginSummary",
    "NominalCorrelationResult",
    "OddsRatioValue",
    "RateTable",
    "SimpsonVerdict",
    "SimulationResult",
    "SimulationSpec",
    "StratifiedTable",
    "SupportError",
    "Table2x2",
    "TableValidationError",
    "TailTable",
    "UnknownDatasetError",
    "binomial_analysis",
    "binomial_upper_tail",
    "collapse",
    "collapse_comparison",
    "determinant_figure",
    "diff",
    "fisher_pipeline",
    "fisher_upper_tail",
    "flattened_volume_ratio",
    "hypergeom_pmf",
    "hypergeom_upper_tail",
    "margins",
    "nominal_correlation",
    "odds_ratio",
    "rate_table",
    "replicate",
    "simpson_check",
    "simulate_heterogeneous",
    "simulate_tail",
    "tail_table",
]
