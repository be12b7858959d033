"""Experiment configuration: flat key-value files plus defaults.

Grammar: one `key = value` pair per line; blank lines and lines starting
with '#' are ignored. Keys are namespaced with section prefixes
(system.*, pa.*, channel.*, grid.*); `seed` and `out` are experiment-level.
Unknown keys are rejected. Missing keys take the defaults below, which
reproduce the headline operating point (sys2, ibo 0.1, b_bpf 0.9B, 10 dB
SINR, 10^4 symbols at 128 samples per symbol).

List values are comma-separated (`grid.ibo = 0.0316,0.1,1,10`); the range
form `lo:step:hi` (inclusive, at most MAX_RANGE_VALUES values) is also
accepted (`grid.bbpf = 0.4:0.1:2.0`). Every float must be finite.
"""

import math
from dataclasses import dataclass

from . import channel as channel_mod
from . import dsp, optimizer, pipeline
from . import pa as pa_mod
from .errors import ConfigurationError


MAX_RANGE_VALUES = 10_000


def finite_float(text):
    """float(text), rejecting nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


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


def _optional_int(text):
    return None if text.strip().lower() == "none" else int(text)


_SCHEMA = {
    "seed": ("seed", int),
    "out": ("out_dir", str),
    "system.variant": ("variant", str),
    "system.n_symbols": ("n_symbols", int),
    "system.analog_sps": ("analog_sps", int),
    "system.fc_multiple": ("fc_multiple", finite_float),
    "system.rrc_rolloff": ("rrc_rolloff", finite_float),
    "system.rrc_span": ("rrc_span", int),
    "system.lpf_order": ("lpf_order", int),
    "system.mi_bins": ("mi_bins", _optional_int),
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
    """Declarative mirror of the system, amplifier, channel, and grid settings."""

    seed: int = 1
    out_dir: str = "results"
    variant: str = "sys2"
    n_symbols: int = 10_000
    analog_sps: int = 128
    fc_multiple: float = 30.0
    rrc_rolloff: float = 0.5
    rrc_span: int = 16
    lpf_order: int = 4
    mi_bins: int | None = None
    ibo: float = 0.1
    r_load: float = 1.0
    bbpf_over_b: float = 0.9
    bpf_order: int = 4
    alpha: float = 1.0
    sinr_db: float = 10.0
    interference_ratio: float = 2.0
    grid_ibo: tuple = (0.0316, 0.1, 1.0, 10.0)
    grid_bbpf: tuple = tuple(round(0.4 + 0.1 * k, 10) for k in range(17))
    grid_systems: tuple = ("sys1", "sys2", "sys3")

    def system_config(self):
        return pipeline.SystemConfig(
            variant=self.variant,
            fc_multiple=self.fc_multiple,
            analog_sps=self.analog_sps,
            n_symbols=self.n_symbols,
            rrc=dsp.RrcSpec(self.rrc_rolloff, self.rrc_span),
            lpf=dsp.ButterworthSpec(order=self.lpf_order, kind="lowpass", cutoff_high=1.0),
            seed=self.seed,
            mi_bins=self.mi_bins)

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
        except (ValueError, TypeError) as exc:
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
