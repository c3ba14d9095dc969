"""The paper's primary contribution: sibling-prefix detection and tuning.

* :mod:`repro.core.metrics` — Jaccard / Dice / overlap set similarity.
* :mod:`repro.core.domainsets` — Steps 1-2: dual-stack domain extraction
  and prefix grouping.
* :mod:`repro.core.detection` — Steps 3-4: the similarity matrix and
  best-match sibling selection.
* :mod:`repro.core.substrate` — pluggable Step 3-4 engines: the
  paper-literal ``"reference"`` path and the interned, posting-list
  ``"columnar"`` production engine.
* :mod:`repro.core.siblings` — result containers.
* :mod:`repro.core.sptuner` — the SP-Tuner algorithm, more-specific
  (Algorithm 1) and less-specific (Algorithm 2) variants.
* :mod:`repro.core.sensitivity` — the threshold-grid sweep of Figure 4.
* :mod:`repro.core.longitudinal` — new/unchanged/changed classification.
"""

from repro.core.detection import BestMatchMode, compute_pair_stats, detect_siblings
from repro.core.domainsets import PrefixDomainIndex, build_index
from repro.core.metrics import dice, jaccard, overlap_coefficient
from repro.core.longitudinal import ChangeClass, classify_changes
from repro.core.sensitivity import SensitivityCell, sweep_thresholds
from repro.core.siblings import SiblingPair, SiblingSet
from repro.core.sptuner import SpTunerLS, SpTunerMS, TunerConfig
from repro.core.substrate import (
    DEFAULT_SUBSTRATE,
    SUBSTRATES,
    ColumnarSubstrate,
    ReferenceSubstrate,
    Substrate,
    get_substrate,
)

__all__ = [
    "BestMatchMode",
    "ChangeClass",
    "ColumnarSubstrate",
    "DEFAULT_SUBSTRATE",
    "PrefixDomainIndex",
    "ReferenceSubstrate",
    "SensitivityCell",
    "SiblingPair",
    "SiblingSet",
    "SpTunerLS",
    "SpTunerMS",
    "Substrate",
    "SUBSTRATES",
    "TunerConfig",
    "build_index",
    "classify_changes",
    "compute_pair_stats",
    "detect_siblings",
    "dice",
    "get_substrate",
    "jaccard",
    "overlap_coefficient",
    "sweep_thresholds",
]
