import dataclasses
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import signal as sig

from onebitlink import dsp, metrics, pa, pipeline, quantizers
from onebitlink.channel import ChannelConfig
from onebitlink.dsp import ButterworthSpec, RrcSpec
from onebitlink.errors import ConfigurationError, StageError
from onebitlink.pa import PaConfig
from onebitlink.pipeline import (MAX_FRAME_SAMPLES, QPSK_ALPHABET, VARIANTS, SystemConfig,
                                 bpf_spec_for, draw_symbols, run_link)


def _configs(variant="sys2", n_symbols=10000, seed=1, bbpf=0.9, ibo=0.1, order=4):
    sys_cfg = SystemConfig(variant=variant, n_symbols=n_symbols, seed=seed)
    pa_cfg = PaConfig(ibo=ibo, bpf=bpf_spec_for(bbpf, sys_cfg, order))
    return sys_cfg, pa_cfg, ChannelConfig()


def _assert_warm_run_is_cold(clear_run_caches, label, sys_cfg, pa_cfg, ch_cfg=ChannelConfig()):
    """A run after other points gives the bits of the same run after clear_run_caches()."""
    warm = run_link(sys_cfg, pa_cfg, ch_cfg)
    clear_run_caches()
    cold = run_link(sys_cfg, pa_cfg, ch_cfg)
    assert dataclasses.asdict(warm) == dataclasses.asdict(cold), label


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

    def test_peak_memory_stays_below_one_frame(self, clear_run_caches):
        # Each frame-length buffer is freed after its last stage, and the pa
        # stage clips and filters the drive in place, so y_p is the one real
        # frame a run holds. At the paper frame the peak, about 0.8 complex
        # frames, is in the rx stage, where y_p meets the receive kernel's
        # block-rate products, or in the dac stage; on a drive-PSD miss the pa
        # stage also holds the clipped drive next to one block of PSD
        # transforms. A bandpass output next to the drive, a frame-length
        # square of the drive for its RMS, or a noise frame drawn at the
        # analog rate next to the drive takes it past 0.9.
        # At 2000 symbols fixed-size buffers weigh more, hence the looser bound.
        # The caches are cleared first, so the noise draw and the drive's PSD
        # are counted; each paper-frame variant runs 5 times.
        cases = [("sys2", 2000, 4.5)] + [(v, 10000, 0.9) for v in VARIANTS for _ in range(5)]
        for variant, n_symbols, bound in cases:
            sys_cfg, pa_cfg, ch_cfg = _configs(variant=variant, n_symbols=n_symbols)
            clear_run_caches()
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
    def test_cached_receiver_noise_follows_every_input(self, clear_run_caches):
        # Each config changes one input of the receiver noise or its front end
        # from its predecessor, so a key that misses one returns the previous
        # config's noise and the warm run differs from the cold one.
        changes = [
            {}, dict(seed=2), dict(n_symbols=600), dict(analog_sps=64),
            dict(lpf=ButterworthSpec(order=5)), dict(lpf=ButterworthSpec(order=5, cutoff_high=1.2)),
            dict(fc_multiple=20.0), dict(rrc=RrcSpec(samples_per_symbol=8)),
            # only the sample rate: the frame length and the decimation step stay
            dict(analog_sps=128, n_symbols=300, rrc=RrcSpec(samples_per_symbol=16)),
            # only the decimation step: the sample rate and the ADC samples stay
            dict(n_symbols=600, rrc=RrcSpec(samples_per_symbol=8)),
        ]
        kwargs = dict(variant="sys1", n_symbols=500)
        ch_cfg = ChannelConfig(sinr_db=0.0)  # noise-dominated, so any noise change shows
        for change in changes:
            kwargs.update(change)
            sys_cfg = SystemConfig(**kwargs)
            pa_cfg = PaConfig(ibo=0.1, bpf=bpf_spec_for(0.9, sys_cfg, 4))
            _assert_warm_run_is_cold(clear_run_caches, change, sys_cfg, pa_cfg, ch_cfg)

    def test_receiver_noise_cache_holds_one_entry(self):
        # The noise by seed and frame, and the front end (lowpass and noise
        # root) by frame alone: one entry each, under the last point's key.
        for seed, n_symbols in ((1, 500), (2, 500), (3, 600), (1, 500)):
            sys_cfg, pa_cfg, ch_cfg = _configs(n_symbols=n_symbols, seed=seed)
            run_link(sys_cfg, pa_cfg, ch_cfg)
        step = sys_cfg.analog_sps // sys_cfg.adc_sps
        k = sys_cfg.n_symbols * sys_cfg.adc_sps
        front = (sys_cfg.lpf, sys_cfg.fs(), step, k)
        assert pipeline._kept["front end"][0] == front
        assert pipeline._kept["noise"][0] == (sys_cfg.seed, *front)
        noise = pipeline._kept["noise"][1]
        sos, root = pipeline._kept["front end"][1]
        assert noise.shape == (k,) and root.shape == (2 * k,)
        for cached in (noise, sos, root):
            with pytest.raises(ValueError):
                cached[0] = 0

    def test_a_new_key_drops_the_old_value_before_making_the_new(self, monkeypatch,
                                                                  clear_run_caches):
        # While a kind's new value is made, the kind holds no entry and its old
        # value is freed, so a miss never holds the two at once.
        clear_run_caches()
        run_link(*_configs(variant="sys1", n_symbols=500))
        # Weak references to each kept array, the front end's two and the
        # PSD's two among them (a tuple holds its arrays, so it is dead once they
        # are, and takes no weak reference itself); the RMS is a float.
        kept = {kind: value for kind, (_, value) in pipeline._kept.items()}
        old = {kind: [weakref.ref(value)] for kind, value in kept.items()
               if kind not in ("front end", "drive psd", "rms")}
        old.update({"front end": [weakref.ref(part) for part in kept["front end"]], "rms": [],
                    "drive psd": [weakref.ref(part) for part in kept["drive psd"][:2]]})
        del kept
        # Each kind's first call makes its value; mean_of's later two are the powers.
        seen = {}
        for kind, owner, name in (("front end", dsp, "receive_noise_root"),
                                  ("noise", pipeline, "_receiver_noise"),
                                  ("dac", dsp, "upsample_zero_insert"),
                                  ("rms", pa, "mean_of"), ("drive psd", metrics, "welch_psd")):
            def made(*args, _fn=getattr(owner, name), _kind=kind):
                seen.setdefault(_kind, (_kind in pipeline._kept,
                                        [ref() is None for ref in old[_kind]]))
                return _fn(*args)

            monkeypatch.setattr(owner, name, made)
        run_link(*_configs(variant="sys1", n_symbols=600, seed=2))
        assert seen == {kind: (False, [True] * len(refs)) for kind, refs in old.items()}

    def test_a_cache_hit_designs_no_lowpass(self, monkeypatch, clear_run_caches):
        # Both ends use the cached lowpass, and the noise root is cached with
        # it: a new seed designs no filter and computes no root, a new frame
        # length designs the lowpass once and computes the root once. The
        # bandpass is cached by its spec and rate: a new width designs it once.
        designed, roots = [], []

        def counted(spec, fs, _fn=dsp.design_butterworth):
            designed.append("lowpass" if spec.cutoff_low is None else "bandpass")
            return _fn(spec, fs)

        def counted_root(sos, step, k, _fn=dsp.receive_noise_root):
            roots.append(k)
            return _fn(sos, step, k)

        monkeypatch.setattr(dsp, "design_butterworth", counted)
        monkeypatch.setattr(dsp, "receive_noise_root", counted_root)
        clear_run_caches()
        for n_symbols, seed, bbpf, expected, n_roots in (
                (500, 1, 0.9, ["lowpass", "bandpass"], 1), (500, 1, 0.9, [], 0),
                (500, 2, 0.9, [], 0), (600, 2, 0.9, ["lowpass"], 1),
                (600, 2, 0.8, ["bandpass"], 0), (600, 2, 0.9, [], 0)):
            designed.clear()
            roots.clear()
            run_link(*_configs(n_symbols=n_symbols, seed=seed, bbpf=bbpf))
            assert (designed, len(roots)) == (expected, n_roots), (n_symbols, seed, bbpf)

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_cached_drive_psd_follows_every_input(self, clear_run_caches):
        # Each config changes one input of the clipped drive from its
        # predecessor: a SystemConfig field, then the back-off. A key that
        # misses one returns the previous drive's PSD, and the warm run's b_pa
        # differs from the cold one's.
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
            _assert_warm_run_is_cold(clear_run_caches, change, sys_cfg, pa_cfg)

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_cached_transmit_input_follows_every_input(self, clear_run_caches):
        # Each config changes one SystemConfig field from its predecessor. A
        # key that misses one returns the previous config's DAC output or
        # drive RMS, and the warm run differs from the cold one.
        # The shaped sys1 first, whose drive the taps shape.
        changes = [
            {}, dict(seed=2), dict(n_symbols=600), dict(analog_sps=64), dict(fc_multiple=20.0),
            dict(rrc=RrcSpec(roll_off=0.3)), dict(rrc=RrcSpec(roll_off=0.3, samples_per_symbol=8)),
            dict(lpf=ButterworthSpec(order=5)), dict(variant="sys2"), dict(variant="sys3"),
            dict(variant="sys1"),
        ]
        kwargs = dict(variant="sys1", n_symbols=500)
        for change in changes:
            kwargs.update(change)
            sys_cfg = SystemConfig(**kwargs)
            pa_cfg = PaConfig(ibo=0.1, bpf=bpf_spec_for(0.9, sys_cfg, 4))
            _assert_warm_run_is_cold(clear_run_caches, change, sys_cfg, pa_cfg)

    def test_transmit_input_cache_holds_one_read_only_entry(self):
        # The DAC's output and the drive's RMS by the last SystemConfig: the
        # shaped stream for sys1, its 1-bit rails for sys2, the symbols' rails
        # for sys3.
        for variant, seed in (("sys1", 1), ("sys2", 1), ("sys2", 2), ("sys3", 3), ("sys1", 1)):
            sys_cfg, pa_cfg, ch_cfg = _configs(variant=variant, n_symbols=500, seed=seed)
            run_link(sys_cfg, pa_cfg, ch_cfg)
            assert all(pipeline._kept[kind][0] == sys_cfg for kind in ("dac", "rms"))
            dac = pipeline._kept["dac"][1]
            tx = draw_symbols(500, np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0]))
            shaped = dsp.fir_filter(dsp.upsample_zero_insert(tx, sys_cfg.adc_sps),
                                    dsp.design_rrc(sys_cfg.rrc))
            expected = {"sys1": shaped, "sys2": quantizers.one_bit_quantize(shaped),
                        "sys3": quantizers.one_bit_quantize(tx)}[variant]
            assert np.array_equal(dac, expected), variant
            rails = set(dac.real) | set(dac.imag)
            if sys_cfg.one_bit:
                assert rails == {quantizers.RAIL_LEVEL, -quantizers.RAIL_LEVEL}, variant
            else:
                assert len(rails) > 2
            with pytest.raises(ValueError):
                dac[0] = 0

    def test_a_warm_point_shapes_converts_and_scales_nothing(self, monkeypatch,
                                                              clear_run_caches):
        # Every point of a system shares its DAC output and drive RMS: a second
        # back-off and width shapes nothing, takes no RMS, and converts only at
        # the ADC. Each point still draws its symbols, designs its RRC taps,
        # upconverts its own drive and takes its two powers (mean_of on y).
        calls = []
        for owner, name in ((pipeline, "draw_symbols"), (dsp, "design_rrc"),
                            (dsp, "fir_filter"), (quantizers, "one_bit_quantize"),
                            (pa, "mean_of"), (dsp, "upconvert")):
            def counted(*args, _fn=getattr(owner, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
        each = ["design_rrc", "draw_symbols", "fir_filter", "mean_of", "mean_of", "upconvert"]
        for variant in VARIANTS:
            clear_run_caches()
            calls.clear()
            run_link(*_configs(variant=variant, n_symbols=500))
            sys_cfg = SystemConfig(variant=variant)
            # The shaper, the RMS and the DAC's converter, then the ADC's.
            made = ["fir_filter"] * sys_cfg.shaped + ["mean_of"] + ["one_bit_quantize"] * (
                2 * sys_cfg.one_bit)
            assert sorted(calls) == sorted(each + made), variant
            calls.clear()
            run_link(*_configs(variant=variant, n_symbols=500, ibo=1.0, bbpf=1.3))
            assert sorted(calls) == sorted(each + ["one_bit_quantize"] * sys_cfg.one_bit), variant

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_cached_bandpass_follows_every_input(self, clear_run_caches):
        # Each point changes the bandpass order, width or sample rate from its
        # predecessor; a cache key that misses one filters with the previous
        # design, and the warm run differs from the cold one.
        sys_cfg = SystemConfig(variant="sys1", n_symbols=500)
        fast = dataclasses.replace(sys_cfg, analog_sps=64)
        points = [(sys_cfg, 0.9, 4), (sys_cfg, 0.9, 6), (sys_cfg, 1.3, 6), (fast, 1.3, 6),
                  (fast, 1.3, 4), (sys_cfg, 1.3, 4)]
        for sys_cfg, bbpf, order in points:
            pa_cfg = PaConfig(ibo=0.1, bpf=bpf_spec_for(bbpf, sys_cfg, order))
            _assert_warm_run_is_cold(clear_run_caches, (bbpf, order), sys_cfg, pa_cfg)

    @pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
    def test_no_stage_writes_to_a_cached_bandpass(self, clear_run_caches):
        # scipy's sosfilt takes only writable sections, so the cached designs
        # stay writable; after a row of points each still has its design's bits.
        clear_run_caches()
        sys_cfg = SystemConfig(n_symbols=500)
        for ibo in (0.1, 1.0):
            for bbpf in (0.5, 0.9, 1.3):
                run_link(sys_cfg, PaConfig(ibo=ibo, bpf=bpf_spec_for(bbpf, sys_cfg, 4)),
                         ChannelConfig())
        assert pipeline._bandpass.cache_info().currsize == 3
        for bbpf in (0.5, 0.9, 1.3):
            spec = bpf_spec_for(bbpf, sys_cfg, 4)
            cached = pipeline._bandpass(spec, sys_cfg.fs())
            assert cached.flags.writeable
            assert np.array_equal(cached, dsp.design_butterworth(spec, sys_cfg.fs()))

    def test_bandpass_cache_holds_every_default_width(self):
        assert pipeline._bandpass.cache_info().maxsize >= 17

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
        # The clipped drive's PSD by SystemConfig and back-off.
        for seed, ibo in ((1, 0.1), (2, 0.1), (2, 1.0), (1, 0.1)):
            sys_cfg, pa_cfg, ch_cfg = _configs(n_symbols=500, seed=seed, ibo=ibo)
            run_link(sys_cfg, pa_cfg, ch_cfg)
        key, psd = pipeline._kept["drive psd"]
        assert key == (sys_cfg, 0.1)
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
        bad_bpf = ButterworthSpec(order=4, cutoff_low=50.0, cutoff_high=70.0)
        pa_cfg = PaConfig(ibo=0.1, bpf=bad_bpf)
        with pytest.raises(StageError) as err:
            run_link(sys_cfg, pa_cfg, ChannelConfig())
        assert err.value.stage == "pa"
        assert "pa" in str(err.value)

    def test_configuration_error_mid_run_is_not_a_stage_error(self, monkeypatch,
                                                              clear_run_caches):
        # A setting found bad only by the design (an unstable bandpass) stays a
        # ConfigurationError, so the CLI exits 1 for it, not 2. The caches are
        # cleared first, so the bandpass is designed, not read from its cache.
        def unstable_bandpass(spec, fs, _fn=dsp.design_butterworth):
            if spec.cutoff_low is not None:
                raise ConfigurationError("unstable butterworth design: synthetic")
            return _fn(spec, fs)

        monkeypatch.setattr(dsp, "design_butterworth", unstable_bandpass)
        clear_run_caches()
        with pytest.raises(ConfigurationError, match="synthetic"):
            run_link(*_configs(n_symbols=500))


def _image_sum_spectrum(sos, step, n):
    """4 sum_i |H((nu + i) / step)|^2 / step at nu = j / n, j < n, by sosfreqz over the
    step images: the ADC-rate spectrum of unit white noise mixed and filtered by `sos`."""
    turns = (np.arange(n)[:, None] + n * np.arange(step)) / (n * step)
    _, h = sig.sosfreqz(sos, worN=2.0 * np.pi * turns.ravel())
    return 4.0 * np.sum(np.abs(h.reshape(n, step)) ** 2, axis=1) / step


class TestReceiverNoise:
    """The receiver noise is drawn at the ADC rate from dsp.receive_noise_root,
    the square root of its spectrum; both are checked against _image_sum_spectrum."""

    # Bound in standard errors, set before the first run. For a proper complex
    # Gaussian frame of N samples with real autocovariance r, the real part of
    # the sample autocovariance c(m) = mean_k w[k + m] conj(w[k]) has variance
    # sum_j (r[j]^2 + r[j + m] r[j - m]) / 2N (Isserlis; Bartlett's formula
    # with half the weight, since each rail carries r / 2), its imaginary part
    # and the rails' cross-covariance mean_k Re w[k + m] Im w[k] variance
    # sum_j r[j]^2 / 4N. The cross-covariance is checked on the draw only:
    # the kernel's output also carries the mixer's pseudo-covariance, which
    # the draw leaves out (at 64 samples per symbol the 2 fc image folds to
    # 4 B, inside an order-1 lowpass's skirt). So there are 180 checks (4
    # rates and orders x 9 lags x 3 statistics of the draw, 2 of the kernel);
    # at 4.5 standard errors a Gaussian estimate falls outside with
    # probability 6.8e-6, so the test raises a false alarm with probability
    # below 1.3e-3.
    K_SE = 4.5
    LAGS = 9

    @staticmethod
    def _frame(analog_sps, order):
        sys_cfg = SystemConfig(analog_sps=analog_sps, lpf=ButterworthSpec(order=order))
        step = sys_cfg.analog_sps // sys_cfg.adc_sps
        return sys_cfg, step, sys_cfg.n_symbols * sys_cfg.analog_sps

    def _assert_autocovariance(self, w, r, source, proper):
        n = len(w)
        two_sided = np.concatenate([r[:0:-1], r])  # lags -(len(r) - 1) .. len(r) - 1
        energy = np.sum(two_sided ** 2)
        for m in range(self.LAGS):
            c = np.vdot(w[:n - m], w[m:]) / (n - m)
            cross = np.mean(w[m:].real * w[:n - m].imag)
            shifted = np.sum(two_sided[2 * m:] * two_sided[:len(two_sided) - 2 * m])
            se_re = np.sqrt((energy + shifted) / (2 * n))
            se_im = np.sqrt(energy / (4 * n))
            checks = [("Re c", c.real, r[m], se_re), ("Im c", c.imag, 0.0, se_im)]
            for name, value, expected, se in checks + [("cross", cross, 0.0, se_im)] * proper:
                assert abs(value - expected) <= self.K_SE * se, (
                    f"{source}, lag {m}: {name} {value:.5g} against {expected:.5g} "
                    f"({(value - expected) / se:+.1f} se)")

    @pytest.mark.parametrize("analog_sps,order", [(128, 4), (128, 1), (64, 4), (64, 1)])
    def test_draw_and_kernel_have_the_modelled_autocovariance(self, analog_sps, order):
        sys_cfg, step, n = self._frame(analog_sps, order)
        sos = dsp.design_butterworth(sys_cfg.lpf, sys_cfg.fs())
        r = np.fft.ifft(_image_sum_spectrum(sos, step, 512)).real[:64]
        assert np.max(np.abs(r[-8:])) <= 1e-9 * r[0]  # the sums above cover every lag
        drawn = pipeline._receiver_noise(2, dsp.receive_noise_root(sos, step, n // step), n // step)
        self._assert_autocovariance(drawn, r, "circulant draw", proper=True)
        # The full-rate reference: white noise mixed and filtered by the
        # receive kernel, less its start-up transient. It checks rho itself.
        white = np.random.default_rng(3).standard_normal(n)
        kernel = dsp.downconvert(white, sos, step, sys_cfg.fc(), sys_cfg.fs())[64:]
        self._assert_autocovariance(kernel, r, "downconvert", proper=False)

    def test_root_is_the_image_sum_spectrum_at_every_order_and_rate(self):
        # The shortest accepted frame: the window must hold the PSD segment
        # and exceed 2 rrc spans. Its grid of 2k frequencies is the coarsest.
        # The bound, 1e-11 of the peak, was set before the first run.
        span = RrcSpec().span
        shortest = 2 * span + max(metrics.PSD_SEGMENT_SYMBOLS, 2 * span + 1)
        SystemConfig(n_symbols=shortest)
        with pytest.raises(ConfigurationError, match="measurement window"):
            SystemConfig(n_symbols=shortest - 1)
        adc_sps = RrcSpec().samples_per_symbol
        k = shortest * adc_sps
        for order in range(1, dsp.MAX_BUTTERWORTH_ORDER + 1):
            for analog_sps in (16, 32, 64, 128, 256, 512):
                sos = dsp.design_butterworth(ButterworthSpec(order=order), float(analog_sps))
                step = analog_sps // adc_sps
                root = dsp.receive_noise_root(sos, step, k)
                expected = np.sqrt(_image_sum_spectrum(sos, step, 2 * k) / (4 * k))
                error = np.max(np.abs(root - expected)) / expected.max()
                assert error <= 1e-11, (order, analog_sps, error)


def _point_with_output(variant, bbpf, monkeypatch, order=4):
    """One point at ibo 0.1 and 10^4 symbols, bandpass order 4 unless given: its
    metrics, the PSD its b_pa was read from, the amplifier output y and the configs."""
    seen = {}

    def kept_output(v, sos, _fn=pa.bandpass_reconstruct):
        seen["y"] = _fn(v, sos)
        return seen["y"]

    def kept_psd(psd, fc, _fn=metrics.occupied_bandwidth):
        seen["psd"] = psd
        return _fn(psd, fc)

    monkeypatch.setattr(pa, "bandpass_reconstruct", kept_output)
    monkeypatch.setattr(metrics, "occupied_bandwidth", kept_psd)
    sys_cfg, pa_cfg, ch_cfg = _configs(variant=variant, bbpf=bbpf, order=order)
    m = run_link(sys_cfg, pa_cfg, ch_cfg)
    monkeypatch.undo()
    return m, seen["psd"], seen["y"], sys_cfg, pa_cfg


# The reference for b_pa: a Welch estimate of the amplifier output y with
# 256-symbol segments, whose bins are 8x finer than the link's. The 32-symbol
# Hann window smears the bandpass's skirts in a Welch of y; the clipped drive's
# PSD is smooth, so |H|^2 times it is not smeared. 0.0801 B is just above the
# narrowest width order 4 accepts (0.0800 B). Bounds fixed before the run.
# Order 1's skirts fall slowly, so at 0.4 B the 32-symbol Welch of y can read
# closer than b_pa (sys2: -0.02% against -0.33%); there only the 1% holds.
@pytest.mark.filterwarnings("ignore::onebitlink.dsp.AlignmentAmbiguityWarning")
@pytest.mark.parametrize("variant", VARIANTS)
def test_occupied_bandwidth_is_close_to_a_long_segment_welch_of_the_output(variant,
                                                                         monkeypatch):
    for bbpf, order in ((0.4, 4), (0.0801, 4), (0.9, 4), (0.4, 1), (0.9, 1)):
        m, _, y, sys_cfg, _ = _point_with_output(variant, bbpf, monkeypatch, order)
        fs, fc, y = sys_cfg.fs(), sys_cfg.fc(), y[sys_cfg.window]
        seg = 256 * sys_cfg.analog_sps
        freqs, values = sig.welch(y, fs=fs, window="hann", nperseg=seg, noverlap=seg // 2,
                                  detrend=False)
        reference = metrics.occupied_bandwidth(
            metrics.PsdEstimate(freqs, values, float(np.sum(values) * (freqs[1] - freqs[0]))),
            fc)
        short = metrics.occupied_bandwidth(metrics.welch_psd(y, fs), fc)
        if bbpf < 0.9 and order > 1:
            assert abs(m.b_pa - reference) < abs(short - reference), (bbpf, m.b_pa, short)
        if bbpf > 0.1:
            assert m.b_pa == pytest.approx(reference, rel=0.01), (bbpf, order)


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
    assert np.isclose(spec.cutoff_low, 30.0 - 0.45)
    assert np.isclose(spec.cutoff_high, 30.0 + 0.45)


def test_configs_are_frozen():
    cfg = SystemConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 2


# Times one run_link per variant after a warm-up, in a fresh interpreter, and
# prints the process's CPU seconds per wall second over the timed calls; then
# the same for one point whose hold and step of 16384 samples give dsp._matmul
# products of the full _BLAS_BLOCK, split over the columns.
_CPU_PER_WALL = """
import resource, time
from onebitlink.channel import ChannelConfig
from onebitlink.dsp import RrcSpec
from onebitlink.pa import PaConfig
from onebitlink.pipeline import VARIANTS, SystemConfig, bpf_spec_for, run_link
def cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime
def cpu_per_wall(points):
    for point in points:
        run_link(*point)
    c0, w0 = cpu(), time.perf_counter()
    for point in points:
        run_link(*point)
    return (cpu() - c0) / (time.perf_counter() - w0)
def point(**kwargs):
    sys_cfg = SystemConfig(**kwargs)
    return sys_cfg, PaConfig(ibo=0.1, bpf=bpf_spec_for(0.9, sys_cfg, 4)), ChannelConfig()
print(cpu_per_wall([point(variant=variant, n_symbols=2000) for variant in VARIANTS]))
print(cpu_per_wall([point(n_symbols=300, analog_sps=16384, rrc=RrcSpec(samples_per_symbol=1))]))
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
    assert [float(ratio) <= 1.2 for ratio in out.stdout.split()] == [True, True], out.stdout
