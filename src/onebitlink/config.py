"""Experiment configuration: flat key-value files plus defaults.

Grammar: one `key = value` pair per line; blank lines and lines starting
with '#' are ignored, and a value must not contain '#'. Keys are namespaced
with section prefixes (system.*, pa.*, channel.*, grid.*); `seed` and `out`
are experiment-level.
Unknown keys and keys set twice are rejected. Missing keys take the defaults
of the dataclass that owns the setting, which reproduce the headline operating
point (sys2, ibo 0.1, b_bpf 0.9B, 10 dB SINR, 10^4 symbols at 128 samples per
symbol).

List values are comma-separated (`grid.ibo = 0.0316,0.1,1,10`); the range
form `lo:step:hi` (inclusive, at most optimizer.MAX_GRID_POINTS values) is
also accepted (`grid.bbpf = 0.4:0.1:2.0`). Every float must be finite.
"""

import math
from dataclasses import dataclass, field

from . import channel as channel_mod
from . import dsp, optimizer, pipeline
from . import pa as pa_mod
from .errors import ConfigurationError


# finite_float and output_dir double as argparse types, like
# optimizer.worker_count: a flag and a key report the same reason.
def finite_float(text):
    """float(text), rejecting nan and +-inf."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"{text.strip()!r} is not a finite number")
    return value


def output_dir(text):
    """A nonempty output directory path."""
    if not text:
        raise ConfigurationError("output directory must not be empty")
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
        # of floats near lo leaves lo + k * step unchanged for many k. Rounded
        # relative to the step, so a range of tiny values keeps them apart.
        ndigits = max(10, 9 - math.floor(math.log10(step)))
        out = []
        for k in range(optimizer.MAX_GRID_POINTS + 1):
            v = round(lo + k * step, ndigits)
            if v > hi + step * 1e-6:
                return tuple(out)
            out.append(v)
        raise ValueError(f"range gives more than {optimizer.MAX_GRID_POINTS} values")
    return tuple(finite_float(p) for p in text.split(","))


def _str_list(text):
    return tuple(p.strip() for p in text.split(",") if p.strip())


# key -> (owner, name, converter). Owner None is an ExperimentConfig field; any
# other owner (the bandpass order's is its builder) gets the value only if set.
_SCHEMA = {
    "seed": (None, "seed", int),
    "out": (None, "out_dir", output_dir),
    "system.variant": (None, "variant", str),
    "system.n_symbols": (pipeline.SystemConfig, "n_symbols", int),
    "system.analog_sps": (pipeline.SystemConfig, "analog_sps", int),
    "system.fc_multiple": (pipeline.SystemConfig, "fc_multiple", finite_float),
    "system.rrc_rolloff": (dsp.RrcSpec, "roll_off", finite_float),
    "system.rrc_span": (dsp.RrcSpec, "span", int),
    "system.lpf_order": (dsp.ButterworthSpec, "order", int),
    "pa.ibo": (None, "ibo", finite_float),
    "pa.r_load": (pa_mod.PaConfig, "r_load", finite_float),
    "pa.bbpf_over_b": (None, "bbpf_over_b", finite_float),
    "pa.bpf_order": (pipeline.bpf_spec_for, "order", int),
    "channel.alpha": (channel_mod.ChannelConfig, "alpha", finite_float),
    "channel.sinr_db": (channel_mod.ChannelConfig, "sinr_db", finite_float),
    "channel.interference_ratio": (channel_mod.ChannelConfig, "interference_ratio", finite_float),
    "grid.ibo": (None, "grid_ibo", _float_list),
    "grid.bbpf": (None, "grid_bbpf", _float_list),
    "grid.systems": (None, "grid_systems", _str_list),
}


@dataclass
class ExperimentConfig:
    """Operating point, grid and output directory; owned: owner -> {name: value} set by a file."""

    seed: int = pipeline.SystemConfig.seed
    out_dir: str = "results"
    variant: str = pipeline.SystemConfig.variant
    ibo: float = pa_mod.PaConfig.ibo
    bbpf_over_b: float = 0.9
    grid_ibo: tuple = (0.0316, 0.1, 1.0, 10.0)
    grid_bbpf: tuple = tuple(round(0.4 + 0.1 * k, 10) for k in range(17))
    grid_systems: tuple = pipeline.VARIANTS
    owned: dict = field(default_factory=dict)

    def system_config(self):
        return pipeline.SystemConfig(
            variant=self.variant, seed=self.seed,
            rrc=dsp.RrcSpec(**self.owned.get(dsp.RrcSpec, {})),
            lpf=dsp.ButterworthSpec(**self.owned.get(dsp.ButterworthSpec, {})),
            **self.owned.get(pipeline.SystemConfig, {}))

    def pa_config(self):
        order = self.owned.get(pipeline.bpf_spec_for, {}).get("order", dsp.ButterworthSpec.order)
        return pa_mod.PaConfig(
            ibo=self.ibo, bpf=pipeline.bpf_spec_for(self.bbpf_over_b, self.system_config(), order),
            **self.owned.get(pa_mod.PaConfig, {}))

    def channel_config(self):
        return channel_mod.ChannelConfig(**self.owned.get(channel_mod.ChannelConfig, {}))

    def grid_spec(self):
        return optimizer.GridSpec(
            ibo_values=tuple(self.grid_ibo),
            bbpf_values=tuple(self.grid_bbpf),
            systems=tuple(self.grid_systems))


def parse_config_text(text):
    """Parse key-value text into an ExperimentConfig; unset keys keep their defaults."""
    fields, owned, set_on = {}, {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if "#" in value:
            raise ConfigurationError(
                f"line {lineno}: a comment must be on its own line, got {raw!r}")
        if key not in _SCHEMA:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigurationError(
                f"line {lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        owner, name, conv = _SCHEMA[key]
        try:
            value = conv(value)
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        (fields if owner is None else owned.setdefault(owner, {}))[name] = value
    return ExperimentConfig(owned=owned, **fields)


def load_config(path):
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)
