"""Monte-Carlo engine tests: receiver algebra, event law, and determinism."""

import math

import numpy as np
import pytest

from pdra.analytic import collision_event_probs, db_to_linear
from pdra.geometry import ChannelModelSpec, CellLayout, correlated_channels, drop_ue
from pdra.pool import build_pattern, build_pool
from pdra.simulate import (
    EVENT_E0,
    EVENT_E1,
    EVENT_E2,
    EVENT_IDENTICAL,
    FixedActivity,
    RandomActivity,
    ScenarioConfig,
    _PatternCorrelator,
    _draw_channels,
    analytic_reference,
    build_received_pilot,
    build_scenario,
    classify_tagged_collision,
    detect_data_symbol,
    mf_channel_estimate,
    mf_sinr,
    run_campaign,
    run_forced_interference_trial,
    run_point,
    run_trial,
    trial_rng,
    wilson_interval,
)

N_ZC = 839


def small_config(**overrides) -> ScenarioConfig:
    fields = dict(
        m_antennas=8,
        activity=FixedActivity(10),
        pool=build_pool(N_ZC, n_roots=2, n_ss=16, l=2),
        snr_db=0.0,
        alpha_th_db=5.0,
        n_zc=N_ZC,
        trials=100,
        master_seed=42,
    )
    fields.update(overrides)
    fields.setdefault(
        "channel", ChannelModelSpec(kind="iid", m_antennas=fields["m_antennas"])
    )
    return ScenarioConfig(**fields)


class TestWilsonInterval:
    def test_matches_score_formula(self):
        z = 1.959963984540054
        s, n = 9000, 10000
        p = s / n
        center = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = (z / (1 + z * z / n)) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        lo, hi = wilson_interval(s, n)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)
        assert hi - lo == pytest.approx(2 * 0.005878, abs=1e-4)

    def test_edges_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 50)
        assert 0.0 <= lo < hi <= 1.0
        lo, hi = wilson_interval(50, 50)
        assert 0.0 <= lo < hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)


class TestTrialRng:
    def test_same_coordinates_same_stream(self):
        a = trial_rng(7, 3, 11).standard_normal(4)
        b = trial_rng(7, 3, 11).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_trials_distinct_streams(self):
        a = trial_rng(7, 3, 11).standard_normal(4)
        b = trial_rng(7, 3, 12).standard_normal(4)
        c = trial_rng(7, 4, 11).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)


class TestReceivedPilot:
    def test_noiseless_single_ue_despreads_exactly(self):
        pool = build_pool(N_ZC, n_roots=1, n_ss=32, l=2)
        pat = pool.pattern_at(17)
        rng = np.random.default_rng(0)
        h = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / math.sqrt(2)
        p_lin = 4.0
        y = build_received_pilot(h[None, :], pat.waveform[None, :], p_lin, rng,
                                 noise_variance=0.0)
        g = mf_channel_estimate(y, pat.waveform)
        # ||waveform|| = sqrt(N_ZC), so g = sqrt(P * N_ZC) h.
        np.testing.assert_allclose(g, math.sqrt(p_lin * N_ZC) * h, atol=1e-9)

    def test_noise_only_power_is_noise_variance(self):
        rng = np.random.default_rng(1)
        y = build_received_pilot(
            np.zeros((1, 64)), np.zeros((1, N_ZC)), 1.0, rng, noise_variance=1.0
        )
        assert np.mean(np.abs(y) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_signal_plus_noise_power(self):
        pool = build_pool(N_ZC, n_roots=1, n_ss=32, l=2)
        pat = pool.pattern_at(3)
        rng = np.random.default_rng(2)
        h = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / math.sqrt(2)
        p_lin = 2.0
        y = build_received_pilot(h[None, :], pat.waveform[None, :], p_lin, rng)
        # Unit-power pattern entries: per-entry power P E|h|^2 + sigma^2.
        assert np.mean(np.abs(y) ** 2) == pytest.approx(p_lin + 1.0, rel=0.05)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            build_received_pilot(
                np.zeros((2, 4)), np.zeros((1, 8)), 1.0, np.random.default_rng(0)
            )


class TestClassification:
    TAGGED = (0, (0, 1))

    def test_no_others_is_e0(self):
        assert classify_tagged_collision(self.TAGGED, []) == EVENT_E0

    def test_cross_root_copy_is_e0(self):
        assert classify_tagged_collision(self.TAGGED, [(1, (0, 1))]) == EVENT_E0

    def test_identical_wins_over_partial(self):
        others = [(0, (1, 2)), (0, (0, 1))]
        assert classify_tagged_collision(self.TAGGED, others) == EVENT_IDENTICAL

    def test_one_shared_component_is_e1(self):
        assert classify_tagged_collision(self.TAGGED, [(0, (1, 2))]) == EVENT_E1
        assert classify_tagged_collision(self.TAGGED, [(0, (1, 2)), (0, (1, 5))]) == EVENT_E1

    def test_both_components_shared_is_e2(self):
        assert classify_tagged_collision(self.TAGGED, [(0, (1, 2)), (0, (0, 5))]) == EVENT_E2
        assert classify_tagged_collision(self.TAGGED, [(0, (3, 4)), (0, (0, 1))]) == EVENT_IDENTICAL

    def test_shared_components_are_reported(self):
        shared = set()
        others = [(0, (1, 2)), (1, (0, 3)), (0, (1, 5))]
        assert classify_tagged_collision(self.TAGGED, others, shared) == EVENT_E1
        assert shared == {1}
        shared = set()
        assert classify_tagged_collision(self.TAGGED, [(1, (0, 1))], shared) == EVENT_E0
        assert shared == set()


class TestMatchedFilter:
    def test_orthogonal_estimate_gives_zero_sinr(self):
        g = np.array([0.0, 1.0 + 0j])
        h = np.array([[1.0 + 0j, 0.0]])
        assert mf_sinr(g, h, snr_linear=10.0) == 0.0

    def test_perfect_estimate_single_ue(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        p = 2.5
        expected = p * float(np.vdot(h, h).real)
        assert mf_sinr(h, h[None, :], p) == pytest.approx(expected, rel=1e-12)

    def test_zero_despread_rejected(self):
        with pytest.raises(ValueError):
            mf_channel_estimate(np.zeros((4, 8)), np.zeros(8))

    def test_data_statistic_recovers_symbol(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        symbol = np.exp(1j * (np.pi / 4 + np.pi / 2 * 2))
        z = symbol * h
        stat = detect_data_symbol(h, z)
        assert np.angle(stat) == pytest.approx(np.angle(symbol), abs=1e-9)


@pytest.fixture(scope="module")
def pool():
    return build_pool(N_ZC, n_roots=3, n_ss=32, l=2)


class TestCorrelatorAlgebra:
    """The table-lookup fast path must equal the explicit inner products."""

    def test_matches_direct_inner_product(self, pool):
        corr = _PatternCorrelator(pool)
        rng = np.random.default_rng(5)
        from pdra.zc import ZcConfig, generate_root_sequence

        for _ in range(10):
            i, j = rng.integers(0, pool.n_p, size=2)
            root_i, shifts_i = pool.root_and_shifts(int(i))
            root_j, shifts_j = pool.root_and_shifts(int(j))
            fast = corr.coefficient(
                root_i, shifts_i, 1.0 / math.sqrt(pool.l), root_j, shifts_j
            )
            wav_i = pool.pattern_at(int(i)).waveform
            base_j = generate_root_sequence(ZcConfig(N_ZC, pool.roots[root_j]))
            despread = sum(
                np.roll(base_j.samples, -v * pool.plan.n_cs) for v in shifts_j
            )
            despread = despread / np.linalg.norm(despread)
            direct = complex(np.sum(wav_i * np.conj(despread)))
            assert fast == pytest.approx(direct, abs=1e-9)

    def test_same_root_disjoint_patterns_cancel(self, pool):
        corr = _PatternCorrelator(pool)
        scale = 1.0 / math.sqrt(2)
        assert corr.coefficient(0, (2, 3), scale, 0, (0, 1)) == pytest.approx(0, abs=1e-9)

    def test_shared_component_amplitude(self, pool):
        # One shared shift despread alone: (1/sqrt(2)) N / sqrt(N) = sqrt(N/2).
        corr = _PatternCorrelator(pool)
        scale = 1.0 / math.sqrt(2)
        coef = corr.coefficient(0, (0, 1), scale, 0, (0,))
        assert coef == pytest.approx(math.sqrt(N_ZC / 2), abs=1e-9)

    def test_fast_path_matches_matrix_route(self, pool):
        """Full estimate: explicit Y-despreading vs coefficient superposition."""
        rng = np.random.default_rng(6)
        m = 4
        assigned = [(0, (0, 1)), (0, (1, 7)), (2, (3, 9))]
        h = (rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))) / math.sqrt(2)
        p_lin = db_to_linear(5.0)
        plan = pool.plan
        from pdra.zc import ZcConfig, generate_root_sequence

        waveforms = np.array([
            build_pattern(
                generate_root_sequence(ZcConfig(N_ZC, pool.roots[r])), s, plan
            ).waveform
            for r, s in assigned
        ])
        y = build_received_pilot(h, waveforms, p_lin, rng, noise_variance=0.0)
        # E1 despreading by the free component (shift 0) of the tagged pattern.
        base = generate_root_sequence(ZcConfig(N_ZC, pool.roots[0]))
        despread = np.roll(base.samples, 0)
        g_explicit = mf_channel_estimate(y, despread)

        corr = _PatternCorrelator(pool)
        scale = 1.0 / math.sqrt(2)
        coefs = np.array([
            corr.coefficient(r, s, scale, 0, (0,)) for r, s in assigned
        ])
        g_fast = math.sqrt(p_lin) * (coefs @ h)
        np.testing.assert_allclose(g_fast, g_explicit, atol=1e-9)


class TestDrawChannels:
    def test_draw_order_and_rows(self):
        """All normals first, then one drop per UE whose angle steers its row
        (rows against the factor oracle: tests/test_geometry.py)."""
        m, n = 16, 4
        channel = ChannelModelSpec(kind="correlated", m_antennas=m, rho=0.7)
        layout = CellLayout()
        h = _draw_channels(channel, layout, n, np.random.default_rng(8))
        twin = np.random.default_rng(8)
        raw = twin.standard_normal((n, 2, m))
        angles = [drop_ue(layout, twin).angle_rad for _ in range(n)]
        np.testing.assert_array_equal(h, correlated_channels(raw, 0.7, angles))
        iid = ChannelModelSpec(kind="iid", m_antennas=m)
        np.testing.assert_array_equal(
            _draw_channels(iid, layout, n, np.random.default_rng(8)),
            (raw[:, 0] + 1j * raw[:, 1]) / math.sqrt(2.0),
        )


class TestRunTrial:
    def test_single_ue_always_succeeds(self):
        cfg = small_config(activity=FixedActivity(1), m_antennas=64, snr_db=0.0)
        for t in range(20):
            out = run_trial(cfg, t)
            assert out.tagged_event == EVENT_E0
            assert out.success
            assert out.k_other_roots == 0

    def test_degenerate_pool_always_collides(self):
        pool = build_pool(N_ZC, n_roots=1, n_ss=4, l=4)
        assert pool.n_p == 1
        cfg = small_config(activity=FixedActivity(2), pool=pool)
        for t in range(10):
            out = run_trial(cfg, t)
            assert out.tagged_event == EVENT_IDENTICAL
            assert not out.success
            assert out.sinr_linear is None

    def test_deterministic_per_index(self):
        cfg = small_config()
        a = run_trial(cfg, 5, point_id=2)
        b = run_trial(cfg, 5, point_id=2)
        assert a == b
        assert run_point(cfg, 1) == run_point(cfg, 1)

    def test_random_activity_count_law(self):
        cfg = small_config(
            activity=RandomActivity(population=500, p_a=0.01), m_antennas=2
        )
        counts = [run_trial(cfg, t).n_active for t in range(2000)]
        # n_active - 1 ~ Binomial(499, 0.01): mean 4.99, never below 1 total.
        assert min(counts) >= 1
        assert np.mean(counts) == pytest.approx(1 + 499 * 0.01, abs=0.2)

    def test_event_frequencies_match_conditional_law(self):
        """Conditioned on n same-root others and no identical draw, the
        e0 frequency must match the closed form within Monte Carlo error."""
        cfg = small_config(m_antennas=2, activity=FixedActivity(10))
        n_ss = cfg.pool.n_ss
        per_n: dict[int, list[str]] = {}
        for t in range(20_000):
            out = run_trial(cfg, t)
            if out.tagged_event != EVENT_IDENTICAL:
                per_n.setdefault(out.n_same_root_others, []).append(out.tagged_event)
        for n in (3, 4, 5):
            events = per_n[n]
            assert len(events) > 1500
            probs = collision_event_probs(n, n_ss)
            freq_e0 = sum(e == EVENT_E0 for e in events) / len(events)
            freq_e1 = sum(e == EVENT_E1 for e in events) / len(events)
            sigma0 = math.sqrt(probs.p_e0 * (1 - probs.p_e0) / len(events))
            sigma1 = math.sqrt(probs.p_e1 * (1 - probs.p_e1) / len(events))
            assert freq_e0 == pytest.approx(probs.p_e0, abs=4 * sigma0 + 1e-3)
            assert freq_e1 == pytest.approx(probs.p_e1, abs=4 * sigma1 + 1e-3)

    def test_success_rate_tracks_analytic_reference(self):
        cfg = small_config(
            m_antennas=128,
            activity=FixedActivity(10),
            pool=build_pool(N_ZC, n_roots=2, n_ss=32, l=2),
            channel=ChannelModelSpec(kind="iid", m_antennas=128),
            snr_db=10.0,
            trials=4000,
        )
        s, n = run_point(cfg, point_id=0)
        ref = analytic_reference(cfg)
        sigma = math.sqrt(ref * (1 - ref) / n)
        assert s / n == pytest.approx(ref, abs=4 * sigma)


class TestForcedInterference:
    def test_needs_two_roots(self):
        pool = build_pool(N_ZC, n_roots=1, n_ss=32, l=2)
        with pytest.raises(ValueError):
            run_forced_interference_trial(pool, 8, 1, 10.0, 1, 0)

    def test_deviation_from_limit_shrinks_with_antennas(self):
        """With the pattern draws paired across M (same substream), the
        realized SINR moves toward its pattern-conditional limit as the
        array grows.  High SNR keeps the noise floor out of the comparison.
        Convergence is slow (relative error scales like N_ZC / M), which is
        why only the trend is asserted here."""
        pool = build_pool(N_ZC, n_roots=4, n_ss=32, l=2)
        corr = _PatternCorrelator(pool)
        mean_devs = []
        for m in (64, 256, 1024):
            ratios = [
                run_forced_interference_trial(
                    pool, m, 2, 30.0, 7, t, point_id=0, correlator=corr
                )
                for t in range(300)
            ]
            devs = [abs(s / lim - 1) for s, lim in ratios if math.isfinite(lim)]
            mean_devs.append(np.mean(devs))
        assert mean_devs[0] > mean_devs[1] > mean_devs[2]

    def test_no_interferers_is_noise_limited(self):
        pool = build_pool(N_ZC, n_roots=2, n_ss=32, l=2)
        sinr, limit = run_forced_interference_trial(pool, 512, 0, 10.0, 3, 0)
        assert limit == math.inf
        # g = sqrt(P) h + noise, so SINR approaches P ||h||^2 ~ P M.
        assert sinr == pytest.approx(10.0 * 512, rel=0.2)


class TestCampaign:
    def test_thread_count_does_not_change_results(self):
        configs = {
            pid: small_config(trials=50, pool=build_pool(N_ZC, n_roots=r, n_ss=16, l=2))
            for pid, r in enumerate((1, 2))
        }
        seq = run_campaign(configs, threads=1)
        par = run_campaign(configs, threads=2)
        assert seq == par

    def test_bad_point_isolates(self, monkeypatch):
        import pdra.simulate as sim

        real_run_point = sim.run_point

        def failing_at_point_1(config, point_id=0):
            if point_id == 1:
                raise RuntimeError("point 1 broke")
            return real_run_point(config, point_id)

        monkeypatch.setattr(sim, "run_point", failing_at_point_1)
        cfg = small_config(trials=10)
        results = run_campaign({0: cfg, 1: cfg, 2: cfg}, threads=1)
        assert results[0].status == "ok"
        assert results[1].status == "error: point 1 broke"
        assert math.isnan(results[1].empirical_p_success)
        assert results[2].status == "ok"

    def test_point_builds_pool_and_channel(self):
        point = {
            "n_ss": 32, "l": 1, "r_roots": 3, "m_antennas": 16, "rho": 0.5,
            "channel_kind": "correlated", "alpha_th_db": 3.0, "snr_db": -4.0,
            "p_a": 0.1, "population": 50,
        }
        new = build_scenario(point, N_ZC, trials=7, master_seed=3)
        assert new.pool.n_ss == 32 and new.pool.l == 1
        assert len(new.pool.roots) == 3
        assert new.channel.kind == "correlated"
        assert new.channel.m_antennas == 16
        assert new.m_antennas == 16
        assert new.activity == RandomActivity(population=50, p_a=0.1)
        assert (new.snr_db, new.alpha_th_db, new.trials, new.master_seed) == (-4.0, 3.0, 7, 3)


class TestAnalyticReference:
    def test_l3_has_no_closed_form(self):
        cfg = small_config(pool=build_pool(N_ZC, n_roots=1, n_ss=16, l=3))
        assert analytic_reference(cfg) is None

    def test_fixed_activity_uses_pattern_model(self):
        from pdra.analytic import AnalyticParams, success_probability_pdra

        cfg = small_config(pool=build_pool(N_ZC, n_roots=2, n_ss=32, l=2))
        params = AnalyticParams(
            n_active=10, r_roots=2, n_ss=32, n_zc=N_ZC,
            alpha_th=db_to_linear(5.0),
        )
        assert analytic_reference(cfg) == pytest.approx(
            success_probability_pdra(params), abs=1e-15
        )

    def test_single_sequence_uses_baseline_model(self):
        from pdra.analytic import AnalyticParams, success_probability_conventional

        cfg = small_config(pool=build_pool(N_ZC, n_roots=2, n_ss=32, l=1))
        params = AnalyticParams(
            n_active=10, r_roots=2, n_ss=32, n_zc=N_ZC,
            alpha_th=db_to_linear(5.0),
        )
        assert analytic_reference(cfg) == pytest.approx(
            success_probability_conventional(params), abs=1e-15
        )
