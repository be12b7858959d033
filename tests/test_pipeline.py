import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sig

from onebitlink import dsp, metrics, pa, pipeline
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
        assert cfg.adc_sps == cfg.rrc.samples_per_symbol == 4

    def test_sys3_feeds_symbols_straight_to_dac(self):
        assert not SystemConfig(variant="sys3").shaped
        assert SystemConfig(variant="sys3").adc_sps == 4

    def test_converter_rate_follows_the_rrc(self):
        rrc = RrcSpec(samples_per_symbol=8)
        assert [SystemConfig(variant=v, rrc=rrc).adc_sps for v in VARIANTS] == [8, 8, 8]

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

    def test_delay_beyond_the_lag_window_is_rejected(self):
        # An order-16 bandpass of width 0.2 B delays the carrier by 16.2 symbols,
        # past the 16-symbol rrc span that align searches: no lag in it is right.
        with pytest.raises(ConfigurationError, match="order 16 delays the carrier 16.2 symbols"):
            bpf_spec_for(0.2, SystemConfig(n_symbols=2000), 16)

    # The widths are narrow enough to smear each symbol over several, hence
    # near-equal correlation lags; the smallest is still inside the window.
    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    @pytest.mark.parametrize("order", range(1, dsp.MAX_BUTTERWORTH_ORDER + 1))
    def test_delay_just_inside_the_rule_aligns(self, order):
        # At the narrowest accepted width the delay is 0.65 rrc.span, 10.4 symbols:
        # every variant still finds its lag inside the window (MI 0.09-0.52 at
        # 600 symbols, where a misaligned run reads below 0.01). Just past it
        # the width is rejected.
        narrowest = 1.0 / (np.pi * np.sin(np.pi / (2 * order)) * 0.65 * 16)
        for variant in VARIANTS:
            sys_cfg = SystemConfig(variant=variant, n_symbols=600)
            bpf = bpf_spec_for(1.001 * narrowest, sys_cfg, order)
            assert run_link(sys_cfg, PaConfig(ibo=0.1, bpf=bpf), ChannelConfig()).mi > 0.05
        with pytest.raises(ConfigurationError, match="past 0.65 x the rrc span of 16"):
            bpf_spec_for(0.999 * narrowest, sys_cfg, order)

    def test_dac_holds_each_sample_to_the_frame(self, monkeypatch):
        # The shaper's output sets the DAC rate: 4 or 8 samples per symbol when
        # shaped, the symbols themselves for sys3, each held to 128 per symbol.
        held = []

        def recorded(u, sos, hold, fc, fs, _fn=dsp.upconvert):
            held.append((len(u), hold))
            return _fn(u, sos, hold, fc, fs)

        monkeypatch.setattr(dsp, "upconvert", recorded)
        n = 500
        for sps, shaped in ((4, (4 * n, 32)), (8, (8 * n, 16))):
            held.clear()
            for variant in VARIANTS:
                sys_cfg = SystemConfig(variant=variant, n_symbols=n,
                                       rrc=RrcSpec(samples_per_symbol=sps))
                run_link(sys_cfg, PaConfig(bpf=bpf_spec_for(0.9, sys_cfg, 4)), ChannelConfig())
            assert held == [shaped, shaped, (n, 128)], sps

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
        # frames, is in the dac or pa stage while the helper thread draws the
        # receiver noise one piece at a time, or in the rx stage, where y_p
        # meets the receive kernel's block-rate products; on a drive-PSD miss
        # the pa stage also holds the clipped drive next to one block of PSD
        # transforms. A bandpass output next to the drive, a frame-length
        # square of the drive for its RMS, or a noise frame drawn whole next
        # to the drive takes it past 0.9.
        # At 2000 symbols fixed-size buffers weigh more, hence the looser bound.
        # The caches are cleared first, so the noise draw and the drive's PSD
        # are counted. The helper's pieces overlap the main thread's stages as
        # the threads are scheduled, so each paper-frame variant runs 5 times.
        cases = [("sys2", 2000, 4.5)] + [(v, 10000, 0.9) for v in VARIANTS for _ in range(5)]
        for variant, n_symbols, bound in cases:
            sys_cfg, pa_cfg, ch_cfg = _configs(variant=variant, n_symbols=n_symbols)
            pipeline._lowpass_and_noise.cache_clear()
            pipeline._lowpass.cache_clear()
            pipeline._drive_psd.clear()
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
        pipeline._lowpass.cache_clear()
        for expected in (["lowpass", "bandpass"], ["bandpass"]):
            designed.clear()
            run_link(*_configs(n_symbols=500))
            assert designed == expected

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_cached_drive_psd_follows_every_input(self):
        # Each config changes one input of the clipped drive from its
        # predecessor: a SystemConfig field, then the back-off. A cache key
        # that misses one returns the previous drive's PSD, and the warm run's
        # b_pa differs from the cold one's.
        changes = [
            {}, dict(seed=2), dict(variant="sys2"), dict(n_symbols=600), dict(analog_sps=64),
            dict(lpf=ButterworthSpec(order=5)), dict(fc_multiple=20.0),
            dict(rrc=RrcSpec(samples_per_symbol=8)),
            dict(rrc=RrcSpec(samples_per_symbol=8, roll_off=0.3)),
        ]
        kwargs = dict(variant="sys1", n_symbols=500)
        points = []
        for change in changes:
            kwargs.update(change)
            points.append((change, SystemConfig(**kwargs), 0.1))
        points.append((dict(ibo=1.0), points[-1][1], 1.0))
        for change, sys_cfg, ibo in points:
            pa_cfg = PaConfig(ibo=ibo, bpf=bpf_spec_for(0.9, sys_cfg, 4))
            warm = run_link(sys_cfg, pa_cfg, ChannelConfig())
            pipeline._drive_psd.clear()
            cold = run_link(sys_cfg, pa_cfg, ChannelConfig())
            assert dataclasses.asdict(warm) == dataclasses.asdict(cold), change

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_width_or_load_alone_takes_no_new_psd(self, monkeypatch):
        sys_cfg, pa_cfg, ch_cfg = _configs(n_symbols=500)
        run_link(sys_cfg, pa_cfg, ch_cfg)
        calls = []

        def counted(x, fs, _fn=metrics.welch_psd):
            calls.append(len(x))
            return _fn(x, fs)

        monkeypatch.setattr(metrics, "welch_psd", counted)
        for bbpf, order, r_load in ((0.5, 4, 1.0), (2.0, 8, 1.0), (0.9, 4, 50.0)):
            run_link(sys_cfg, PaConfig(ibo=pa_cfg.ibo, r_load=r_load,
                                       bpf=bpf_spec_for(bbpf, sys_cfg, order)), ch_cfg)
        assert calls == []
        run_link(sys_cfg, dataclasses.replace(pa_cfg, ibo=1.0), ch_cfg)
        assert len(calls) == 1

    def test_drive_psd_cache_holds_one_read_only_entry(self):
        for seed, ibo in ((1, 0.1), (2, 0.1), (2, 1.0), (1, 0.1)):
            run_link(*_configs(n_symbols=500, seed=seed, ibo=ibo))
            assert len(pipeline._drive_psd) == 1
        (psd,) = pipeline._drive_psd.values()
        for cached in (psd.freqs, psd.values):
            with pytest.raises(ValueError):
                cached[0] = 0

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


class TestNoiseHelper:
    """On a receiver-noise cache miss run_link draws the noise on one helper
    thread while the transmit chain runs, and joins it before the rx stage."""

    @pytest.fixture
    def started(self, monkeypatch):
        """The threads started while the test runs, in order."""
        threads = []

        class Recorded(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        return threads

    def test_a_miss_starts_one_helper_and_a_hit_none(self, started):
        point = _configs(n_symbols=500)
        pipeline._lowpass_and_noise.cache_clear()
        run_link(*point)
        assert len(started) == 1
        run_link(*point)
        assert len(started) == 1

    def test_no_thread_outlives_run_link(self, started):
        before = set(threading.enumerate())
        pipeline._lowpass_and_noise.cache_clear()
        run_link(*_configs(n_symbols=500))
        assert len(started) == 1 and not started[0].is_alive()
        assert set(threading.enumerate()) == before

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_cold_runs_under_a_short_switch_interval_match_warm_ones(self):
        # The helper and the main thread share the noise cache. A thread
        # switch every 10 us interleaves them at nearly every bytecode; a cold
        # run must still read the noise the helper drew, as a warm run does.
        points = [_configs(variant=v, n_symbols=500, seed=seed)
                  for v, seed in (("sys1", 1), ("sys2", 2), ("sys3", 3), ("sys2", 2))]
        warm = []
        for point in points:
            run_link(*point)
            warm.append(dataclasses.asdict(run_link(*point)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            cold = []
            for point in points:
                pipeline._lowpass_and_noise.cache_clear()
                cold.append(dataclasses.asdict(run_link(*point)))
        finally:
            sys.setswitchinterval(interval)
        assert cold == warm

    def test_a_failed_draw_is_a_source_stage_error(self, started, monkeypatch):
        def broken(*args):
            raise RuntimeError("no noise drawn")

        monkeypatch.setattr(pipeline, "_receive_kernel", broken)
        point = _configs(n_symbols=500)
        pipeline._lowpass_and_noise.cache_clear()
        with pytest.raises(StageError) as err:
            run_link(*point)
        assert err.value.stage == "source" and "no noise drawn" in str(err.value)
        assert not started[0].is_alive()
        # Nothing was cached, so the next run draws again.
        monkeypatch.setattr(pipeline, "_receive_kernel", dsp.downconvert)
        run_link(*point)
        assert len(started) == 2

    def test_a_failing_chain_still_joins_the_helper(self, started, monkeypatch):
        # The helper is held back, so it is still drawing when the pa stage raises.
        def slow(*args, _fn=pipeline._receive_kernel):
            time.sleep(0.2)
            return _fn(*args)

        def broken_clip(*args):
            raise RuntimeError("clip failed")

        monkeypatch.setattr(pipeline, "_receive_kernel", slow)
        monkeypatch.setattr(pa, "clip", broken_clip)
        pipeline._lowpass_and_noise.cache_clear()
        with pytest.raises(StageError) as err:
            run_link(*_configs(n_symbols=500))
        assert err.value.stage == "pa"
        assert len(started) == 1 and not started[0].is_alive()


def _point_with_output(variant, bbpf, monkeypatch):
    """One point at ibo 0.1 and 10^4 symbols: its metrics, the PSD its b_pa
    was read from, the amplifier output y and the configs."""
    seen = {}

    def kept_output(v, sos, _fn=pa.bandpass_reconstruct):
        seen["y"] = _fn(v, sos)
        return seen["y"]

    def kept_psd(psd, fc, _fn=metrics.occupied_bandwidth):
        seen["psd"] = psd
        return _fn(psd, fc)

    monkeypatch.setattr(pa, "bandpass_reconstruct", kept_output)
    monkeypatch.setattr(metrics, "occupied_bandwidth", kept_psd)
    sys_cfg, pa_cfg, ch_cfg = _configs(variant=variant, bbpf=bbpf)
    m = run_link(sys_cfg, pa_cfg, ch_cfg)
    monkeypatch.undo()
    return m, seen["psd"], seen["y"], sys_cfg, pa_cfg


# The reference for b_pa: a Welch estimate of the amplifier output y with
# 256-symbol segments, whose bins are 8x finer than the link's. The 32-symbol
# Hann window smears the bandpass's skirts in a Welch of y; the clipped drive's
# PSD is smooth, so |H|^2 times it is not smeared. 0.0801 B is just above the
# narrowest width order 4 accepts (0.0800 B). Bounds fixed before the run.
@pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
@pytest.mark.parametrize("variant", VARIANTS)
def test_occupied_bandwidth_is_close_to_a_long_segment_welch_of_the_output(variant,
                                                                         monkeypatch):
    for bbpf in (0.4, 0.0801, 0.9):
        m, _, y, sys_cfg, _ = _point_with_output(variant, bbpf, monkeypatch)
        fs, fc, y = sys_cfg.fs(), sys_cfg.fc(), y[sys_cfg.window]
        seg = 256 * sys_cfg.analog_sps
        freqs, values = sig.welch(y, fs=fs, window="hann", nperseg=seg, noverlap=seg // 2,
                                  detrend=False)
        reference = metrics.occupied_bandwidth(
            metrics.PsdEstimate(freqs, values, float(np.sum(values) * (freqs[1] - freqs[0]))),
            fc)
        short = metrics.occupied_bandwidth(metrics.welch_psd(y, fs), fc)
        if bbpf < 0.9:
            assert abs(m.b_pa - reference) < abs(short - reference), (bbpf, m.b_pa, short)
        if bbpf > 0.1:
            assert m.b_pa == pytest.approx(reference, rel=0.01), bbpf


# The filtered drive PSD integrates to the output's mean power, which ties
# b_pa's PSD to p_t and catches a scaling error in the product. At widths of
# one to three B/32 bins |H|^2 is sampled too coarsely for this bound (about
# 10% at 0.03-0.08 B), so the widths here start at 0.4 B. Bound fixed before
# the run.
@pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
@pytest.mark.parametrize("variant", VARIANTS)
def test_filtered_drive_psd_carries_the_output_power(variant, monkeypatch):
    for bbpf in (0.4, 0.9, 2.0):
        m, psd, _, _, pa_cfg = _point_with_output(variant, bbpf, monkeypatch)
        _, _, f_t = pa_cfg.power_factors()
        assert psd.total_power == pytest.approx(m.p_t / f_t, rel=0.02), bbpf


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
