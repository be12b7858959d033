import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from onebitlink import dsp, pipeline
from onebitlink.channel import ChannelConfig
from onebitlink.dsp import ButterworthSpec, RrcSpec
from onebitlink.errors import ConfigurationError, StageError
from onebitlink.pa import PaConfig
from onebitlink.pipeline import (MAX_FRAME_SAMPLES, QPSK_ALPHABET, VARIANTS, SystemConfig,
                                 bpf_spec_for, draw_symbols, run_link)


def _configs(variant="sys2", n_symbols=10000, seed=1, bbpf=0.9, ibo=0.1):
    sys_cfg = SystemConfig(variant=variant, n_symbols=n_symbols, seed=seed)
    pa_cfg = PaConfig(ibo=ibo, bpf=bpf_spec_for(bbpf, sys_cfg, 4))
    return sys_cfg, pa_cfg, ChannelConfig()


def test_alphabet():
    assert len(QPSK_ALPHABET) == 4
    np.testing.assert_allclose(np.abs(QPSK_ALPHABET), 1.0, rtol=1e-15)
    assert VARIANTS == ("sys1", "sys2", "sys3")


def test_draw_symbols():
    rng = np.random.default_rng(0)
    syms = draw_symbols(1000, rng)
    assert set(np.round(syms, 12)) <= set(np.round(QPSK_ALPHABET, 12))
    rng2 = np.random.default_rng(0)
    np.testing.assert_array_equal(syms, draw_symbols(1000, rng2))


class TestSystemConfig:
    def test_carrier_and_rate(self):
        cfg = SystemConfig()
        assert cfg.fc() == 30.0
        assert cfg.fs() == 128.0
        assert cfg.dac_sps == cfg.adc_sps == cfg.rrc.samples_per_symbol == 4

    def test_sys3_feeds_symbols_straight_to_dac(self):
        assert SystemConfig(variant="sys3").dac_sps == 1

    def test_converter_rate_follows_the_rrc(self):
        rrc = RrcSpec(samples_per_symbol=8)
        assert [SystemConfig(variant=v, rrc=rrc).dac_sps for v in VARIANTS] == [8, 8, 1]
        assert SystemConfig(rrc=rrc).adc_sps == 8

    def test_effective_mi_bins(self):
        # soft receiver: 8 bins per dimension; 1-bit receivers: the 2 signs
        assert [SystemConfig(variant=v).mi_bins for v in VARIANTS] == [8, 2, 2]

    @pytest.mark.parametrize("kwargs", [
        dict(variant="sys4"),
        dict(n_symbols=64),
        dict(analog_sps=127),                      # not divisible by the converter rate
        dict(rrc=RrcSpec(samples_per_symbol=3)),   # converter rate does not divide 128
        dict(fc_multiple=63.0),                    # carrier too close to Nyquist
        dict(n_symbols=MAX_FRAME_SAMPLES // 128 + 1),  # frame above the size limit
        dict(seed=-1),                             # SeedSequence takes no negative seed
        # measurement window shorter than the 32-symbol PSD segment
        dict(n_symbols=40, rrc=RrcSpec(span=8)),   # 40 - 16 = 24 symbols
        dict(n_symbols=63, analog_sps=64),         # 63 - 32 = 31 symbols
        dict(fc_multiple=1.5),                     # carrier inside the signal band
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SystemConfig(**kwargs)

    # One rule in symbols: the window n_symbols - 2 * span holds the 32-symbol
    # PSD segment and more than 2 * span symbols, whatever the sample rate.
    @pytest.mark.parametrize("analog_sps", [64, 128, 256])
    @pytest.mark.parametrize("n_symbols,span,ok", [
        (48, 8, True), (47, 8, False),     # 32 symbols is the segment
        (65, 16, True), (64, 16, False),   # 33 symbols exceeds 2 * span
    ])
    def test_window_rule_counts_symbols(self, n_symbols, span, ok, analog_sps):
        kwargs = dict(n_symbols=n_symbols, analog_sps=analog_sps, rrc=RrcSpec(span=span))
        if ok:
            SystemConfig(**kwargs)
        else:
            with pytest.raises(ConfigurationError, match="32-symbol PSD segment"):
                SystemConfig(**kwargs)

    # The clipper's 3rd and 5th harmonics sit 8 B from the 30 B carrier once
    # 128 samples per symbol fold them (to 38 B and 22 B): a band that reaches
    # them is rejected, a narrower one is not.
    @pytest.mark.parametrize("width,ok", [(15.9, True), (16.0, False)])
    def test_folded_harmonic_bound_on_the_bandpass(self, width, ok):
        if ok:
            bpf_spec_for(width, SystemConfig(), 4)
        else:
            with pytest.raises(ConfigurationError, match="harmonic 3 at 90, .* fold to 38"):
                bpf_spec_for(width, SystemConfig(), 4)


class TestRunLink:
    def test_deterministic(self):
        sys_cfg, pa_cfg, ch_cfg = _configs(n_symbols=2000)
        m1 = run_link(sys_cfg, pa_cfg, ch_cfg)
        m2 = run_link(sys_cfg, pa_cfg, ch_cfg)
        assert m1 == m2  # bit-exact, not merely close

    def test_seed_changes_noise(self):
        a = run_link(*_configs(n_symbols=2000, seed=1))
        b = run_link(*_configs(n_symbols=2000, seed=2))
        assert a.mi != b.mi

    def test_ideal_system_is_nearly_transparent(self):
        # generous back-off and a wide reconstruction filter: the ideal
        # converter chain should come close to the 2 bit QPSK ceiling
        m = run_link(*_configs(variant="sys1", ibo=10.0, bbpf=2.0))
        assert m.rate_r >= 1.95

    def test_pa_power_rises_with_backoff(self):
        powers = [run_link(*_configs(n_symbols=2000, ibo=v)).p_pa
                  for v in (0.0316, 0.1, 1.0, 10.0)]
        assert all(p2 >= p1 for p1, p2 in zip(powers, powers[1:]))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_smallest_back_off_gives_finite_metrics(self, variant):
        # LinkMetrics rejects non-finite values; the FOM does not depend on the scale.
        # 1e-150 is the smallest back-off that PaConfig accepts at r_load 1.
        tiny = run_link(*_configs(variant, n_symbols=600, ibo=1e-150))
        small = run_link(*_configs(variant, n_symbols=600, ibo=1e-30))
        assert tiny.p_t > 0 and np.isfinite(tiny.fom)
        assert tiny.fom_normalized == pytest.approx(small.fom_normalized, rel=1e-9)

    def test_occupied_bandwidth_shrinks_with_narrower_bpf(self):
        widths = [run_link(*_configs(n_symbols=2000, bbpf=w)).b_pa
                  for w in (2.0, 1.0, 0.4)]
        assert widths[0] >= widths[1] >= widths[2]

    def test_metric_consistency(self):
        m = run_link(*_configs(n_symbols=2000))
        assert np.isclose(m.fom, m.eta_p * m.eta_b, rtol=1e-12)
        assert np.isclose(m.eta_b, m.rate_r / m.b_pa, rtol=1e-12)
        assert m.p_t <= (4.0 / np.pi) * m.p_pa * (1 + 1e-9)
        assert 0.0 <= m.mi <= 2.0

    def test_steep_bandpass_delay_is_found(self):
        # An order-8 bandpass of width 0.4 B delays the signal by about 23 ADC
        # samples, beyond four symbols but inside the rrc span.
        sys_cfg = SystemConfig(n_symbols=2000)
        m = run_link(sys_cfg, PaConfig(ibo=0.1, bpf=bpf_spec_for(0.4, sys_cfg, 8)),
                     ChannelConfig())
        assert m.mi > 0.4

    def test_delay_beyond_the_lag_window_fails_in_align(self):
        # An order-16 bandpass of width 0.2 B delays the signal by about 78 ADC
        # samples, past the 64 of the rrc span: no lag in the window is right.
        sys_cfg = SystemConfig(n_symbols=2000)
        with pytest.raises(StageError) as err:
            run_link(sys_cfg, PaConfig(ibo=0.1, bpf=bpf_spec_for(0.2, sys_cfg, 16)),
                     ChannelConfig())
        assert err.value.stage == "align"

    @pytest.mark.parametrize("variant", ["sys1", "sys2"])
    def test_shaped_variants_run_at_any_converter_rate(self, variant):
        # The DAC, the ADC and the matched filter all follow the RRC's rate.
        sys_cfg = SystemConfig(variant=variant, n_symbols=2000,
                               rrc=RrcSpec(samples_per_symbol=8))
        m = run_link(sys_cfg, PaConfig(ibo=1.0, bpf=bpf_spec_for(0.9, sys_cfg, 4)),
                     ChannelConfig())
        assert m.mi > 1.9

    def test_load_and_path_gain_do_not_move_the_link(self):
        # The noise is calibrated on the received voltage, so neither the load
        # resistance nor the path gain changes what the receiver sees; the
        # powers scale as 1/r_load, the path gain moves no reported power, and
        # the normalized FOM stays put.
        sys_cfg, pa_cfg, _ = _configs(n_symbols=2000, ibo=1.0)
        ref = run_link(sys_cfg, pa_cfg, ChannelConfig())
        for r_load, alpha in ((0.25, 1.0), (4.0, 1.0), (1.0, 0.5), (1.0, 2.0), (4.0, 0.5)):
            m = run_link(sys_cfg, dataclasses.replace(pa_cfg, r_load=r_load),
                         ChannelConfig(alpha=alpha))
            for name in ("mi", "b_pa", "fom_normalized"):
                assert np.isclose(getattr(m, name), getattr(ref, name), rtol=1e-6, atol=0), name
            assert np.isclose(m.p_pa * r_load, ref.p_pa, rtol=1e-12, atol=0)
            assert np.isclose(m.p_t * r_load, ref.p_t, rtol=1e-12, atol=0)
            if r_load == 1.0:
                assert np.isclose(m.p_pa, ref.p_pa, rtol=1e-12, atol=0), alpha
                assert np.isclose(m.p_t, ref.p_t, rtol=1e-12, atol=0), alpha

    def test_path_gain_and_load_only_scale_the_reported_powers(self):
        # The chain runs on y_p / min(ibo, 1) and sets its noise relative to
        # mean(y^2), so alpha enters no arithmetic and r_load only the powers.
        sys_cfg, pa_cfg, _ = _configs(n_symbols=600)
        ref = run_link(sys_cfg, pa_cfg, ChannelConfig())
        for alpha in (0.5, 2.0):
            assert run_link(sys_cfg, pa_cfg, ChannelConfig(alpha=alpha)) == ref
        for r_load in (1e-3, 1e3):
            m = run_link(sys_cfg, dataclasses.replace(pa_cfg, r_load=r_load), ChannelConfig())
            for name, power in (("p_pa", -1), ("p_t", -1), ("eta_p", 1), ("mi", 0),
                                ("b_pa", 0), ("eta_b", 0), ("fom_normalized", 0)):
                assert getattr(m, name) == pytest.approx(
                    getattr(ref, name) * r_load ** power, rel=1e-12, abs=0), name
        # Back-offs below r_load 1's floor of 1e-150 run at loads that keep both
        # power factors in range; at 1e-310 the scaled drive's peaks overflow.
        for ibo, r_load in ((1e-200, 1e-300), (1e-310, 1e-321)):
            m = run_link(sys_cfg, dataclasses.replace(pa_cfg, ibo=ibo, r_load=r_load),
                         ChannelConfig())
            assert m.p_t > 0 and np.isfinite(m.fom_normalized)

    def test_peak_memory_stays_below_one_frame(self):
        # Each frame-length buffer is freed after its last stage, and the pa
        # stage clips and filters the drive in place, so y_p is the one real
        # frame a run holds. At the paper frame the peak, about 0.82 complex
        # frames, is in the rx and metrics stages, where y_p meets the receive
        # kernel's block-rate products or one block of PSD transforms. A
        # bandpass output next to the drive, or a frame-length square of the
        # drive for its RMS, takes it past 1.0.
        # At 2000 symbols fixed-size buffers weigh more, hence the looser bound.
        # The lowpass-and-noise cache is cleared first, so its draw is counted.
        cases = [("sys2", 2000, 4.5)] + [(v, 10000, 0.9) for v in VARIANTS]
        for variant, n_symbols, bound in cases:
            sys_cfg, pa_cfg, ch_cfg = _configs(variant=variant, n_symbols=n_symbols)
            pipeline._lowpass_and_noise.cache_clear()
            tracemalloc.start()
            try:
                run_link(sys_cfg, pa_cfg, ch_cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            complex_frame = 16 * sys_cfg.n_symbols * sys_cfg.analog_sps
            assert peak <= bound * complex_frame, (
                f"{variant} at {n_symbols} symbols: peak {peak / complex_frame:.2f} complex frames")

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_cached_receiver_noise_follows_every_input(self):
        # Each config changes one input of the receiver noise from its
        # predecessor, so a cache key that misses one returns the previous
        # config's noise and the warm run differs from the cold one.
        changes = [
            {}, dict(seed=2), dict(n_symbols=600), dict(analog_sps=64),
            dict(lpf=ButterworthSpec(order=5)), dict(lpf=ButterworthSpec(order=5, cutoff_high=1.2)),
            dict(fc_multiple=20.0), dict(rrc=RrcSpec(samples_per_symbol=8)),
            # only the sample rate: the frame length and the decimation step stay
            dict(analog_sps=128, n_symbols=300, rrc=RrcSpec(samples_per_symbol=16)),
        ]
        kwargs = dict(variant="sys1", n_symbols=500)
        ch_cfg = ChannelConfig(sinr_db=0.0)  # noise-dominated, so any noise change shows
        for change in changes:
            kwargs.update(change)
            sys_cfg = SystemConfig(**kwargs)
            pa_cfg = PaConfig(ibo=0.1, bpf=bpf_spec_for(0.9, sys_cfg, 4))
            warm = run_link(sys_cfg, pa_cfg, ch_cfg)
            pipeline._lowpass_and_noise.cache_clear()
            cold = run_link(sys_cfg, pa_cfg, ch_cfg)
            assert dataclasses.asdict(warm) == dataclasses.asdict(cold), change

    def test_receiver_noise_cache_holds_one_entry(self):
        for seed in (1, 2, 3, 1):
            sys_cfg, pa_cfg, ch_cfg = _configs(n_symbols=500, seed=seed)
            run_link(sys_cfg, pa_cfg, ch_cfg)
            assert pipeline._lowpass_and_noise.cache_info().currsize == 1
        step = sys_cfg.analog_sps // sys_cfg.adc_sps
        sos, noise = pipeline._lowpass_and_noise(
            sys_cfg.seed, sys_cfg.n_symbols * sys_cfg.analog_sps, sys_cfg.lpf, step,
            sys_cfg.fc(), sys_cfg.fs())
        assert pipeline._lowpass_and_noise.cache_info().currsize == 1
        for cached in (sos, noise):
            with pytest.raises(ValueError):
                cached[0] = 0

    def test_a_cache_hit_designs_no_lowpass(self, monkeypatch):
        # Both ends use the cached lowpass; only the bandpass is designed per run.
        designed = []

        def counted(spec, fs, _fn=dsp.design_butterworth):
            designed.append(spec.kind)
            return _fn(spec, fs)

        monkeypatch.setattr(dsp, "design_butterworth", counted)
        pipeline._lowpass_and_noise.cache_clear()
        for expected in (["lowpass", "bandpass"], ["bandpass"]):
            designed.clear()
            run_link(*_configs(n_symbols=500))
            assert designed == expected

    def test_run_link_is_its_eight_stages(self, monkeypatch):
        names = []

        def recorded(name, _fn=pipeline._stage):
            names.append(name)
            return _fn(name)

        monkeypatch.setattr(pipeline, "_stage", recorded)
        for variant in VARIANTS:
            names.clear()
            run_link(*_configs(variant=variant, n_symbols=500))
            assert names == ["source", "tx-shaping", "dac", "pa", "channel", "rx", "align",
                             "metrics"], variant

    # The Welch segment is 32 symbols at any rate, so b_pa does not move with
    # analog_sps: bins of B/32 whatever the samples per symbol.
    @pytest.mark.parametrize("variant,ibo", [("sys1", 0.0316), ("sys2", 0.1)])
    def test_occupied_bandwidth_does_not_depend_on_the_rate(self, variant, ibo):
        b_pa = []
        for analog_sps in (64, 128, 256):
            sys_cfg = SystemConfig(variant=variant, n_symbols=2000, analog_sps=analog_sps)
            pa_cfg = PaConfig(ibo=ibo, bpf=bpf_spec_for(0.9, sys_cfg, 4))
            b_pa.append(run_link(sys_cfg, pa_cfg, ChannelConfig()).b_pa)
        assert max(b_pa) / min(b_pa) - 1.0 <= 0.005, b_pa

    def test_stage_error_names_the_stage(self):
        sys_cfg = SystemConfig(n_symbols=2000)
        # bandpass edges legal in themselves but above this chain's Nyquist
        bad_bpf = ButterworthSpec(order=4, kind="bandpass",
                                  cutoff_low=50.0, cutoff_high=70.0)
        pa_cfg = PaConfig(ibo=0.1, bpf=bad_bpf)
        with pytest.raises(StageError) as err:
            run_link(sys_cfg, pa_cfg, ChannelConfig())
        assert err.value.stage == "pa"
        assert "pa" in str(err.value)


def test_bpf_spec_for_centers_on_carrier():
    spec = bpf_spec_for(0.9, SystemConfig(), 4)
    assert spec.kind == "bandpass"
    assert np.isclose(spec.cutoff_low, 30.0 - 0.45)
    assert np.isclose(spec.cutoff_high, 30.0 + 0.45)


def test_configs_are_frozen():
    cfg = SystemConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 2


# Times one run_link per variant after a warm-up, in a fresh interpreter, and
# prints the process's CPU seconds per wall second over the timed calls.
_CPU_PER_WALL = """
import resource, time
from onebitlink.channel import ChannelConfig
from onebitlink.pa import PaConfig
from onebitlink.pipeline import VARIANTS, SystemConfig, bpf_spec_for, run_link
def cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime
points = []
for variant in VARIANTS:
    sys_cfg = SystemConfig(variant=variant, n_symbols=2000, analog_sps=128)
    points.append((sys_cfg, PaConfig(ibo=0.1, bpf=bpf_spec_for(0.9, sys_cfg, 4)), ChannelConfig()))
for point in points:
    run_link(*point)
c0, w0 = cpu(), time.perf_counter()
for point in points:
    run_link(*point)
print((cpu() - c0) / (time.perf_counter() - w0))
"""


def test_run_link_keeps_blas_on_the_calling_thread():
    # Without *_NUM_THREADS, OpenBLAS starts a thread per core for a large
    # enough product, and those threads would compete with the --jobs workers.
    # One thread cannot use more CPU than wall time, so this has no false alarm.
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CPU_PER_WALL], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert float(out.stdout) <= 1.2
