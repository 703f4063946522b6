"""Finite-state information content and dimension estimates for reals,
sequences, and finite sets, with separator-enumerator variants."""

from .digits import (
    ChampernowneStream,
    DigitStream,
    FileDigitStream,
    FractionStream,
    RealSpec,
    comp,
    real_value,
    seq_digits,
)
from .dimension import (
    EstimateReport,
    dim_point_estimate,
    dim_seq_estimate,
    dim_set_estimate,
    normality_report,
)
from .fst import (
    Fst,
    format_fst,
    make_block_huffman,
    make_identity,
    make_periodic_decoder,
    parse_fst,
)
from .infocontent import CostResult, kt, kt_oracle
from .precision import PrecisionQuery, kdelta, kdelta_oracle, kdelta_profile
from .separator import (
    SeparatorEnumerator,
    dimf_estimate,
    ktf_delta,
    make_block_permuted,
    make_canonical,
    make_targeted,
)

__version__ = "0.1.0"
