"""Link-level simulator for QPSK over a clipping amplifier with 1-bit converters.

The package simulates three transmit/receive variants of the same band-limited
QPSK link (ideal converters, 1-bit converters with pulse shaping, 1-bit
converters without pulse shaping), measures information rate, amplifier power
and occupied bandwidth, and searches the (back-off, bandpass width) plane for
the operating point that maximizes the combined power/bandwidth figure of
merit.
"""

from .config import ExperimentConfig
from .dsp import AlignmentAmbiguityWarning, RrcSpec, design_rrc
from .optimizer import grid_search
from .pipeline import QPSK_ALPHABET

__version__ = "0.1.0"

# The names used at the package level; everything else is reached through
# its module (onebitlink.pipeline.run_link, onebitlink.pa.clip, ...).
__all__ = [
    "AlignmentAmbiguityWarning",
    "ExperimentConfig",
    "QPSK_ALPHABET",
    "RrcSpec",
    "design_rrc",
    "grid_search",
]
