"""Experiment configuration: flat key-value files plus defaults.

Grammar: one `key = value` pair per line; blank lines and lines starting
with '#' are ignored. Keys are namespaced with section prefixes
(system.*, pa.*, channel.*, grid.*); `seed` and `out` are experiment-level.
Unknown keys are rejected. Missing keys take ExperimentConfig's defaults,
which reproduce the headline operating point (sys2, ibo 0.1, b_bpf 0.9B, 10 dB
SINR, 10^4 symbols at 128 samples per symbol).

List values are comma-separated (`grid.ibo = 0.0316,0.1,1,10`); the range
form `lo:step:hi` (inclusive, at most MAX_RANGE_VALUES values) is also
accepted (`grid.bbpf = 0.4:0.1:2.0`). Every float must be finite.
"""

import argparse
import math
from dataclasses import dataclass

from . import channel as channel_mod
from . import dsp, optimizer, pipeline
from . import pa as pa_mod
from .errors import ConfigurationError


MAX_RANGE_VALUES = 10_000


# finite_float and output_dir double as argparse types, and argparse prints an
# ArgumentTypeError's message as is: a flag and a key report the same reason.
def finite_float(text):
    """float(text), rejecting nan and +-inf."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text.strip()!r} is not a finite number")
    return value


def output_dir(text):
    """A nonempty output directory path."""
    if not text:
        raise argparse.ArgumentTypeError("output directory must not be empty")
    return text


def _float_list(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range form is lo:step:hi")
        lo, step, hi = (finite_float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValueError("range needs step > 0 and hi >= lo")
        # Bounded by count, not by (hi - lo) / step: a step below the spacing
        # of floats near lo leaves lo + k * step unchanged for many k.
        out = []
        for k in range(MAX_RANGE_VALUES + 1):
            v = round(lo + k * step, 10)
            if v > hi + step * 1e-6:
                return tuple(out)
            out.append(v)
        raise ValueError(f"range gives more than {MAX_RANGE_VALUES} values")
    return tuple(finite_float(p) for p in text.split(","))


def _str_list(text):
    return tuple(p.strip() for p in text.split(",") if p.strip())


_SCHEMA = {
    "seed": ("seed", int),
    "out": ("out_dir", output_dir),
    "system.variant": ("variant", str),
    "system.n_symbols": ("n_symbols", int),
    "system.analog_sps": ("analog_sps", int),
    "system.fc_multiple": ("fc_multiple", finite_float),
    "system.rrc_rolloff": ("rrc_rolloff", finite_float),
    "system.rrc_span": ("rrc_span", int),
    "system.lpf_order": ("lpf_order", int),
    "pa.ibo": ("ibo", finite_float),
    "pa.r_load": ("r_load", finite_float),
    "pa.bbpf_over_b": ("bbpf_over_b", finite_float),
    "pa.bpf_order": ("bpf_order", int),
    "channel.alpha": ("alpha", finite_float),
    "channel.sinr_db": ("sinr_db", finite_float),
    "channel.interference_ratio": ("interference_ratio", finite_float),
    "grid.ibo": ("grid_ibo", _float_list),
    "grid.bbpf": ("grid_bbpf", _float_list),
    "grid.systems": ("grid_systems", _str_list),
}


@dataclass
class ExperimentConfig:
    """Flat mirror of the link and grid settings; each default comes from the setting's owner."""

    seed: int = pipeline.SystemConfig.seed
    out_dir: str = "results"
    variant: str = pipeline.SystemConfig.variant
    n_symbols: int = pipeline.SystemConfig.n_symbols
    analog_sps: int = pipeline.SystemConfig.analog_sps
    fc_multiple: float = pipeline.SystemConfig.fc_multiple
    rrc_rolloff: float = dsp.RrcSpec.roll_off
    rrc_span: int = dsp.RrcSpec.span
    lpf_order: int = dsp.ButterworthSpec.order
    ibo: float = pa_mod.PaConfig.ibo
    r_load: float = pa_mod.PaConfig.r_load
    bbpf_over_b: float = 0.9
    bpf_order: int = dsp.ButterworthSpec.order
    alpha: float = channel_mod.ChannelConfig.alpha
    sinr_db: float = channel_mod.ChannelConfig.sinr_db
    interference_ratio: float = channel_mod.ChannelConfig.interference_ratio
    grid_ibo: tuple = (0.0316, 0.1, 1.0, 10.0)
    grid_bbpf: tuple = tuple(round(0.4 + 0.1 * k, 10) for k in range(17))
    grid_systems: tuple = pipeline.VARIANTS

    def system_config(self):
        return pipeline.SystemConfig(
            variant=self.variant,
            fc_multiple=self.fc_multiple,
            analog_sps=self.analog_sps,
            n_symbols=self.n_symbols,
            rrc=dsp.RrcSpec(self.rrc_rolloff, self.rrc_span),
            lpf=dsp.ButterworthSpec(order=self.lpf_order),
            seed=self.seed)

    def pa_config(self):
        return pa_mod.PaConfig(
            ibo=self.ibo, r_load=self.r_load,
            bpf=pipeline.bpf_spec_for(self.bbpf_over_b, self.system_config(), self.bpf_order))

    def channel_config(self):
        return channel_mod.ChannelConfig(
            alpha=self.alpha, sinr_db=self.sinr_db,
            interference_ratio=self.interference_ratio)

    def grid_spec(self):
        return optimizer.GridSpec(
            ibo_values=tuple(self.grid_ibo),
            bbpf_values=tuple(self.grid_bbpf),
            systems=tuple(self.grid_systems))


def parse_config_text(text):
    """Parse key-value text into an ExperimentConfig; unset keys keep their defaults."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        attr, conv = _SCHEMA[key]
        try:
            values[attr] = conv(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path):
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)
