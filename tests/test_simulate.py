"""Monte-Carlo engine tests: receiver algebra, event law, and determinism."""

import dataclasses
import math

import numpy as np
import pytest

from pdra.analytic import collision_event_probs, db_to_linear
from pdra.pool import PilotPool, build_pattern, combination_table
from pdra.simulate import (
    BLOCK_TRIALS,
    EVENTS,
    EVENT_E0,
    EVENT_E1,
    EVENT_E2,
    EVENT_IDENTICAL,
    ScenarioConfig,
    _PatternCorrelator,
    _correlated_sinr,
    _correlator,
    _rank_one_sinr,
    _root_pair_profiles,
    analytic_reference,
    build_scenario,
    classify_block,
    classify_tagged_collision,
    detect_data_symbol,
    mf_sinr,
    run_campaign,
    run_block,
    run_forced_interference_trial,
    run_point,
    run_trial,
    trial_rng,
    wilson_interval,
)
from pdra.zc import correlation_profile, generate_root_sequence

from oracles import (
    build_received_pilot,
    classify_collision_sets,
    correlated_channels,
    correlation_matrix,
    explicit_correlated_sinr,
    explicit_iid_sinr,
    mf_channel_estimate,
)

N_ZC = 839


def small_config(m_antennas: int = 8, **overrides) -> ScenarioConfig:
    fields = dict(
        population=10,
        p_a=1.0,
        pool=PilotPool(N_ZC, r_roots=2, n_ss=16, l=2),
        m_antennas=m_antennas,
        rho=0.0,
        snr_db=0.0,
        alpha_th_db=5.0,
        trials=100,
        master_seed=42,
    )
    fields.update(overrides)
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
        pool = PilotPool(N_ZC, r_roots=1, n_ss=32, l=2)
        pat = pool.pattern_at(17)
        rng = np.random.default_rng(0)
        h = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / math.sqrt(2)
        p_lin = 4.0
        y = build_received_pilot(h[None, :], pat[None, :], p_lin, rng,
                                 noise_variance=0.0)
        g = mf_channel_estimate(y, pat)
        # ||waveform|| = sqrt(N_ZC), so g = sqrt(P * N_ZC) h.
        np.testing.assert_allclose(g, math.sqrt(p_lin * N_ZC) * h, atol=1e-9)

    def test_noise_only_power_is_noise_variance(self):
        rng = np.random.default_rng(1)
        y = build_received_pilot(
            np.zeros((1, 64)), np.zeros((1, N_ZC)), 1.0, rng, noise_variance=1.0
        )
        assert np.mean(np.abs(y) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_signal_plus_noise_power(self):
        pool = PilotPool(N_ZC, r_roots=1, n_ss=32, l=2)
        pat = pool.pattern_at(3)
        rng = np.random.default_rng(2)
        h = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / math.sqrt(2)
        p_lin = 2.0
        y = build_received_pilot(h[None, :], pat[None, :], p_lin, rng)
        # Unit-power pattern entries: per-entry power P E|h|^2 + sigma^2.
        assert np.mean(np.abs(y) ** 2) == pytest.approx(p_lin + 1.0, rel=0.05)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            build_received_pilot(
                np.zeros((2, 4)), np.zeros((1, 8)), 1.0, np.random.default_rng(0)
            )


def rows(*shifts) -> np.ndarray:
    """(n, 2) shift rows of same-root others."""
    return np.array(shifts, dtype=np.intp).reshape(-1, 2)


class TestClassification:
    TAGGED = np.array([0, 1])

    def test_no_others_is_e0(self):
        assert classify_tagged_collision(self.TAGGED, rows()) == EVENT_E0

    def test_cross_root_copy_is_e0(self):
        # one pattern per root: the other UE copies it on its own root or not
        pool = PilotPool(N_ZC, r_roots=2, n_ss=4, l=4)
        cfg = small_config(population=2, pool=pool)
        events = {(out.n_same_root_others, out.tagged_event)
                  for out in (run_trial(cfg, t) for t in range(20))}
        assert events == {(0, EVENT_E0), (1, EVENT_IDENTICAL)}

    def test_identical_wins_over_partial(self):
        others = rows((1, 2), (0, 1))
        assert classify_tagged_collision(self.TAGGED, others) == EVENT_IDENTICAL

    def test_one_shared_component_is_e1(self):
        assert classify_tagged_collision(self.TAGGED, rows((1, 2))) == EVENT_E1
        assert classify_tagged_collision(self.TAGGED, rows((1, 2), (1, 5))) == EVENT_E1

    def test_both_components_shared_is_e2(self):
        assert classify_tagged_collision(self.TAGGED, rows((1, 2), (0, 5))) == EVENT_E2
        assert classify_tagged_collision(self.TAGGED, rows((3, 4), (0, 1))) == EVENT_IDENTICAL

    def test_shared_components_are_reported(self):
        for others, shared in ((rows((1, 2), (1, 5)), [False, True]),
                               (rows(), [False, False])):
            shifts = np.vstack([self.TAGGED, others])[None]
            roots = np.zeros(shifts.shape[:2], dtype=np.intp)
            _, got, _ = classify_block(roots, shifts, np.ones(roots.shape, bool))
            assert got[0].tolist() == shared
        assert classify_tagged_collision(self.TAGGED, rows((1, 2), (1, 5))) == EVENT_E1

    def test_matches_set_oracle_on_random_draws(self):
        """classify_block's event, shared mask and same-root mask per row agree
        with the frozenset reference: 3000 single rows from small pools, where
        identical and partial overlaps are common, then 200 blocks of 8 rows
        with padding."""
        def check(roots, shifts, valid):
            events, shared, same = classify_block(roots, shifts, valid)
            for b in range(len(roots)):
                n = int(valid[b].sum())
                pairs = [(int(a), tuple(v.tolist()))
                         for a, v in zip(roots[b, :n], shifts[b, :n])]
                want_event, want_shared = classify_collision_sets(pairs[0], pairs[1:])
                assert EVENTS[events[b]] == want_event
                assert shared[b].tolist() == [v in want_shared for v in pairs[0][1]]
                want_same = (roots[b] == roots[b, 0]) & valid[b]
                want_same[0] = False
                assert same[b].tolist() == want_same.tolist()
                seen.add((want_event, shifts.shape[2], len(want_shared)))

        seen = set()
        rng = np.random.default_rng(12)
        for _ in range(3000):
            r, l = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            n_ss = int(rng.integers(l, l + 5))
            n_active = int(rng.integers(1, 31))
            table = combination_table(n_ss, l)
            roots, ranks = divmod(rng.integers(0, r * len(table), n_active), len(table))
            check(roots[None], table[ranks][None], np.ones((1, n_active), bool))
        assert {e for e, _, _ in seen} == {EVENT_IDENTICAL, EVENT_E0, EVENT_E1, EVENT_E2}
        assert (EVENT_E2, 3, 2) in seen

        rng = np.random.default_rng(21)
        for _ in range(200):
            r, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            table = combination_table(int(rng.integers(l, l + 4)), l)
            n_active = rng.integers(1, 12, size=8)
            valid = np.arange(n_active.max()) < n_active[:, None]
            roots, ranks = divmod(rng.integers(0, r * len(table), valid.shape), len(table))
            check(roots, table[ranks], valid)


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
    return PilotPool(N_ZC, r_roots=3, n_ss=32, l=2)


class TestCorrelatorAlgebra:
    """The table-lookup fast path must equal the explicit inner products."""

    def test_matches_direct_inner_product(self, pool):
        corr = _PatternCorrelator(pool)
        rng = np.random.default_rng(5)
        for _ in range(10):
            i, j = rng.integers(0, pool.n_p, size=2)
            root_i, shifts_i = pool.root_and_shifts(int(i))
            root_j, shifts_j = pool.root_and_shifts(int(j))
            fast = corr.coefficient(
                np.array([root_i]), np.array([shifts_i]), root_j, np.array(shifts_j),
                np.ones(len(shifts_j), bool),
            )[0]
            wav_i = pool.pattern_at(int(i))
            base_j = generate_root_sequence(N_ZC, root_j + 1)
            despread = sum(np.roll(base_j, -v * pool.n_cs) for v in shifts_j)
            despread = despread / np.linalg.norm(despread)
            direct = complex(np.sum(wav_i * np.conj(despread)))
            assert fast == pytest.approx(direct, abs=1e-9)

    def test_same_root_disjoint_patterns_cancel(self, pool):
        corr = _PatternCorrelator(pool)
        coef = corr.coefficient(np.array([0]), rows((2, 3)), 0, np.array([0, 1]), np.ones(2, bool))
        assert coef[0] == 0

    def test_shared_component_amplitude(self, pool):
        # One shared shift despread alone: (1/sqrt(2)) N / sqrt(N) = sqrt(N/2).
        corr = _PatternCorrelator(pool)
        coef = corr.coefficient(np.array([0]), rows((0, 1)), 0, np.array([0]), np.ones(1, bool))
        assert coef[0] == pytest.approx(math.sqrt(N_ZC / 2), abs=1e-9)

    def test_matches_scalar_loop_bit_for_bit(self):
        """Every UE's coefficient equals the per-UE double loop of lookups,
        added a outer, b inner from 0 over the used despreading shifts, to
        the last bit: one call per row, and all rows as one block.  At every
        N_SS the one-shift patterns 0 .. N_SS-1 meet the despreading shifts
        0 and N_SS-1 alone, which reads every shift difference."""
        rng = np.random.default_rng(13)
        for n_zc in (139, 839):
            for n_ss in range(2, 65):
                base = PilotPool(n_zc, r_roots=3, n_ss=n_ss, l=1)
                table = _root_pair_profiles(n_zc, range(1, 4), np.arange(n_zc))

                def loop(l, roots, shifts, d_root, d_shifts, used):
                    scale = 1.0 / math.sqrt(l)
                    out = []
                    for r, s in zip(roots, shifts):
                        total = 0.0 + 0.0j
                        for a in s:
                            for b in d_shifts[used]:
                                total += table[r, d_root][(a - b) * base.n_cs % n_zc]
                        out.append(scale * total / math.sqrt(used.sum() * n_zc))
                    return np.array(out).tobytes()

                def subset(size):
                    return np.sort(rng.permutation(n_ss)[:size])

                corr = _PatternCorrelator(base)
                sweep = np.arange(n_ss)[:, None]
                for d_root in range(3):
                    roots = rng.integers(0, 3, n_ss)
                    for w in (0, n_ss - 1):
                        args = (roots, sweep, d_root, np.array([w]), np.ones(1, bool))
                        assert corr.coefficient(*args).tobytes() == loop(1, *args)
                for l in range(1, min(4, n_ss) + 1):
                    corr = _PatternCorrelator(dataclasses.replace(base, l=l))
                    n, n_d = int(rng.integers(1, 12)), int(rng.integers(1, l + 1))
                    block = []
                    for _ in range(3):
                        roots = rng.integers(0, 3, n)
                        shifts = np.array([subset(l) for _ in range(n)])
                        d_shifts = subset(n_d)
                        used = rng.random(n_d) < 0.5
                        used[rng.integers(0, n_d)] = True
                        args = (roots, shifts, int(rng.integers(0, 3)), d_shifts, used)
                        assert corr.coefficient(*args).tobytes() == loop(l, *args)
                        block.append(args)
                    stacked = [np.array(column) for column in zip(*block)]
                    assert corr.coefficient(*stacked).tobytes() == b"".join(
                        loop(l, *args) for args in block)

    @pytest.mark.parametrize("n_zc", [139, 839])
    def test_profile_table_matches_direct_sum(self, n_zc):
        """The closed-form root-pair table equals direct summation at every
        lag, for the pool root sets 1 .. R, R = 1 .. 6, and an unordered set
        that is no such prefix; a root against itself is exactly 0 off lag 0."""
        lags = np.arange(n_zc)
        for roots in [range(1, r + 1) for r in range(1, 7)] + [(5, 2, 7)]:
            table = _root_pair_profiles(n_zc, roots, lags)
            for i, a in enumerate(roots):
                for j, b in enumerate(roots):
                    direct = correlation_profile(generate_root_sequence(n_zc, a),
                                                 generate_root_sequence(n_zc, b))
                    np.testing.assert_allclose(table[i, j], direct, rtol=0, atol=1e-9)
                assert table[i, i, 0] == n_zc and not table[i, i, 1:].any()

    def test_profile_table_at_the_largest_accepted_n_zc(self):
        """At 1073741789, the largest prime below 2**30, the int64 phases of
        the table equal the Gauss-sum formula in Python integers: A, B and C
        as stated, k = C - B^2/(4A) mod N, and the Legendre symbol by Euler's
        criterion.  The same oracle matches direct summation at N = 139."""
        def gauss(n, a, b, tau):
            if a == b:
                return n if tau == 0 else 0
            half = pow(2, -1, n)
            big_a = (a - b) * half % n
            big_b = (a * (2 * tau + 1) - b) * half % n
            big_c = a * tau * (tau + 1) * half % n
            k = (big_c - big_b * big_b * pow(4 * big_a, -1, n)) % n
            legendre = 1 if pow(big_a, (n - 1) // 2, n) == 1 else -1
            eps = 1 if n % 4 == 1 else 1j
            return legendre * eps.conjugate() * math.sqrt(n) * np.exp(-2j * math.pi * k / n)

        roots = (1, 2, 3, 4)
        direct = correlation_profile(generate_root_sequence(139, 2),
                                     generate_root_sequence(139, 5))
        for tau in (0, 1, 70, 138):
            assert abs(gauss(139, 2, 5, tau) - direct[tau]) < 1e-9
        n_zc = 1073741789
        pool = PilotPool(n_zc, len(roots), n_ss=32, l=2)
        lags = np.append(np.arange(-31, 32) * pool.n_cs % n_zc, [n_zc - 1, n_zc // 2])
        table = _root_pair_profiles(n_zc, roots, lags)
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                want = [gauss(n_zc, a, b, int(tau)) for tau in lags]
                np.testing.assert_allclose(table[i, j], want, rtol=0, atol=1e-6)

    def test_fast_path_matches_matrix_route(self, pool):
        """Full estimate: explicit Y-despreading vs coefficient superposition."""
        rng = np.random.default_rng(6)
        m = 4
        assigned = [(0, (0, 1)), (0, (1, 7)), (2, (3, 9))]
        roots, shifts = np.array([0, 0, 2]), rows((0, 1), (1, 7), (3, 9))
        h = (rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))) / math.sqrt(2)
        p_lin = db_to_linear(5.0)
        waveforms = np.array([
            build_pattern(generate_root_sequence(N_ZC, r + 1), s, pool.n_cs)
            for r, s in assigned
        ])
        y = build_received_pilot(h, waveforms, p_lin, rng, noise_variance=0.0)
        # E1 despreading by the free component (shift 0) of the tagged pattern.
        despread = generate_root_sequence(N_ZC, 1)
        g_explicit = mf_channel_estimate(y, despread)

        corr = _PatternCorrelator(pool)
        coefs = corr.coefficient(roots, shifts, 0, np.array([0]), np.ones(1, bool))
        g_fast = math.sqrt(p_lin) * (coefs @ h)
        np.testing.assert_allclose(g_fast, g_explicit, atol=1e-9)


class TestCorrelatorCache:
    """Each pool's lag table is built once per process, whoever asks for it."""

    def test_equal_pools_share_one_correlator(self):
        corr = _correlator(PilotPool(N_ZC, r_roots=3, n_ss=32, l=2))
        assert _correlator(PilotPool(N_ZC, r_roots=3, n_ss=32, l=2)) is corr
        assert _correlator(PilotPool(N_ZC, r_roots=3, n_ss=32, l=1)) is not corr

    def test_fig6_campaign_builds_one_correlator_per_pool(self, monkeypatch):
        """fig6's 16 points hold 4 distinct pools (R = 1 .. 4), so a campaign
        over its grid builds 4 correlators, not one per point."""
        from pdra.bench import build_spec, expand_grid

        spec = build_spec("fig6", flag_fields={"trials": BLOCK_TRIALS})
        configs = {pid: build_scenario(point, spec.n_zc, spec.trials, 3)
                   for pid, point in enumerate(expand_grid(spec))}
        built = []
        init = _PatternCorrelator.__init__
        monkeypatch.setattr(_PatternCorrelator, "__init__",
                            lambda self, pool: built.append(pool) or init(self, pool))
        _correlator.cache_clear()
        results = run_campaign(configs)
        assert all(res.status == "ok" for res in results.values())
        assert len(configs) == 16
        assert sorted(p.r_roots for p in built) == [1, 2, 3, 4]
        assert set(built) == {cfg.pool for cfg in configs.values()}


def correlated_rows_by_hand(raw_rows, exp_rows, coefs, angles, explicit, same, m, p_lin):
    """The SINR of each row of _correlated_sinr from its own normals and
    exponentials: correlated_channels for the explicit UEs, and the dense
    quadratic form g^H R_n g for each same-root other, each set read from its
    mask in column order."""
    out = []
    for raw, exp, c, a, e, s in zip(raw_rows, exp_rows, coefs, angles, explicit, same):
        k = np.count_nonzero(e)
        h = correlated_channels(raw[:k], 0.7, a[e])
        g = math.sqrt(p_lin) * (c[e] @ h) + (raw[k, 0] + 1j * raw[k, 1]) / math.sqrt(2.0)
        terms = [np.vdot(g, correlation_matrix(m, 0.7, d) @ g).real for d in a[s]]
        cross = np.abs(h.conj() @ g) ** 2
        out.append(p_lin * cross[0] / (
            p_lin * (cross[1:].sum() + np.dot(terms, exp)) + np.vdot(g, g).real))
    return np.array(out)


class TestDrawChannels:
    def test_draw_order_and_rows(self):
        """Row by row: one (k + 1, 2, M) draw of normals, the k explicit UE
        rows in column order, steered by their angles (rows against the factor
        oracle: tests/test_geometry.py), and then the noise; then one
        exponential per same-root other in column order, whose term is
        (g^H R_n g) E_n.  The last row interleaves the two sets: tagged,
        same-root, other-root, same-root, other-root, padding."""
        m, p_lin = 16, 0.5
        coefs = np.array([[3.0, 1.0 - 1.0j, 0.5j, 0.0, 0.0, 0.0],
                          [2.0, -1.5, 0.0, 0.0, 0.0, 0.0],
                          [2.5, 0.0, -0.8 + 0.3j, 0.0, 1.2j, 0.0]])
        angles = np.array([[0.3, -1.2, 2.0, 0.7, -2.9, 0.0],
                           [1.1, 0.4, -0.6, 2.5, 0.0, 0.0],
                           [-0.9, 1.7, 0.2, -2.4, 2.8, 0.0]])
        explicit = np.array([[1, 1, 1, 0, 0, 0],
                             [1, 1, 0, 0, 0, 0],
                             [1, 0, 1, 0, 1, 0]], bool)
        same = np.array([[0, 0, 0, 1, 1, 0],
                         [0, 0, 1, 1, 0, 0],
                         [0, 1, 0, 1, 0, 0]], bool)
        got = _correlated_sinr(coefs, angles, explicit, same, 0.7, m, p_lin,
                               np.random.default_rng(8))
        rng = np.random.default_rng(8)
        raw_rows, exp_rows = [], []
        for e, s in zip(explicit, same):
            raw_rows.append(rng.standard_normal((e.sum() + 1, 2, m)))
            exp_rows.append(rng.standard_exponential(s.sum()))
        want = correlated_rows_by_hand(raw_rows, exp_rows, coefs, angles, explicit, same,
                                       m, p_lin)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4, 5, 32, 100, 256])
    def test_same_root_terms_match_dense_matrix(self, m):
        """The FFT autocorrelation and the factored ramps give each same-root
        term g^H R_n g of the dense correlation matrix, at any M."""
        coefs = np.array([[2.0, 0.0, 0.0, 0.0]])
        angles = np.array([[0.4, 0.0, -2.2, 3.1]])
        explicit = np.array([[True, False, False, False]])
        got = _correlated_sinr(coefs, angles, explicit, ~explicit, 0.7, m, 0.8,
                               np.random.default_rng(m))
        rng = np.random.default_rng(m)
        raw, exp = rng.standard_normal((2, 2, m)), rng.standard_exponential(3)
        want = correlated_rows_by_hand([raw], [exp], coefs, angles, explicit, ~explicit, m, 0.8)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestSameRootLaw:
    """The reduced correlated trial against explicit channels for every UE."""

    @pytest.mark.parametrize("m", [4, 32, 256])
    @pytest.mark.parametrize("n_same", [0, 2, 4])
    def test_matches_explicit_channels(self, m, n_same):
        """Two-sample KS test of the tagged SINR, 20,000 draws each, fixed
        coefficients and drop angles.  The row holds the tagged UE, 4 - n_same
        other-root UEs and n_same same-root others (coefficient 0): no, some
        or only same-root others."""
        from scipy.stats import ks_2samp

        coefs = np.array([math.sqrt(N_ZC), 1.3 * np.exp(0.4j), -1.1, 0.2 - 0.9j, 0.7j])
        angles = np.array([0.5, -1.9, 2.6, 0.1, -0.8])
        k = 5 - n_same
        p_lin, draws, chunk = 0.3, 20_000, 500
        first_k = np.tile(np.arange(5) < k, (chunk, 1))
        rows = np.tile(angles, (chunk, 1)), first_k, ~first_k
        rng = np.random.default_rng(300 + m + n_same)
        fast = np.concatenate([
            _correlated_sinr(np.tile(coefs, (chunk, 1)), *rows, 0.7, m, p_lin, rng)
            for _ in range(draws // chunk)
        ])
        explicit = np.append(coefs[:k], np.zeros(n_same))
        rng = np.random.default_rng(400 + m + n_same)
        slow = np.concatenate([
            explicit_correlated_sinr(explicit, angles, 0.7, m, p_lin, rng, chunk)
            for _ in range(draws // chunk)
        ])
        assert ks_2samp(fast, slow).pvalue > 0.01

    def test_same_root_coefficients_vanish(self):
        """The premise of the law: in every E0 or E1 row of a block, each
        same-root other's coefficient is exactly 0."""
        rng = np.random.default_rng(23)
        checked = 0
        for n_zc in (139, N_ZC):
            for _ in range(40):
                l = int(rng.integers(1, 4))
                pool = PilotPool(n_zc, r_roots=int(rng.integers(1, 5)),
                                  n_ss=int(rng.integers(max(l, 2), 17)), l=l)
                n_active = rng.integers(1, 16, size=BLOCK_TRIALS)
                valid = np.arange(n_active.max()) < n_active[:, None]
                roots, ranks = divmod(pool.sample_indices(rng, valid.shape), pool.n_ps)
                shifts = pool.shift_table[ranks]
                events, shared, same = classify_block(roots, shifts, valid)
                live = events < 2
                coefs = _PatternCorrelator(pool).coefficient(
                    roots[live], shifts[live], roots[live, 0], shifts[live, 0],
                    ~shared[live]) * valid[live]
                assert np.all(coefs[same[live]] == 0)
                checked += int(same[live].sum())
        assert checked > 1000


class TestRankOneLaw:
    @pytest.mark.parametrize("m, n", [(1, 3), (4, 6), (64, 6)])
    def test_matches_explicit_channels(self, m, n):
        """Two-sample KS test of the tagged SINR: the rank-one law against
        explicit i.i.d. channels, 20,000 draws each, fixed coefficients.
        M = 1 and M = 4 lie below n + 1, where no Wishart factor exists."""
        from scipy.stats import ks_2samp

        c = np.array([math.sqrt(N_ZC), 1.3 * np.exp(0.4j), 0.7j, -1.1,
                      0.2 - 0.9j, 2.0 * np.exp(-2.0j)])[:n]
        p_lin, draws = 0.1, 20_000
        rng = np.random.default_rng(100 + m)
        fast = _rank_one_sinr(np.tile(c, (draws, 1)), np.full(draws, n), p_lin,
                              rng.standard_gamma(m, draws), rng)
        rng = np.random.default_rng(200 + m)
        slow = [explicit_iid_sinr(c, p_lin, m, rng) for _ in range(draws)]
        assert ks_2samp(fast, slow).pvalue > 0.01

    def test_matches_projection_form(self):
        """P |y_0|^2 / (P sum |y_i|^2 + 1) equals the projection form
        P |x_0|^2 / (P sum |x_i|^2 + gamma), x = gamma u + sqrt(gamma)
        (zeta - u (u^H zeta)), on the same draws, with padded rows."""
        rng = np.random.default_rng(31)
        rows, n, m, p_lin = 40, 7, 32, 0.2
        n_active = rng.integers(1, n + 1, rows)
        valid = np.arange(n) < n_active[:, None]
        c = 3.0 * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
        c[:, 0] = 20.0
        draw = np.random.default_rng(9)
        got = _rank_one_sinr(c * valid, n_active, p_lin, draw.standard_gamma(m, rows), draw)
        rng = np.random.default_rng(9)
        gamma = rng.standard_gamma(m, size=(rows, 1))
        z = rng.standard_normal((rows, 2, n + 1))
        zeta = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
        v = np.append(math.sqrt(p_lin) * c * valid, np.ones((rows, 1)), axis=1)
        u = v / np.linalg.norm(v, axis=1, keepdims=True)
        x = gamma * u + np.sqrt(gamma) * (
            zeta - u * np.sum(u.conj() * zeta, axis=1, keepdims=True))
        power = np.abs(x[:, :n]) ** 2 * valid
        want = p_lin * power[:, 0] / (p_lin * power[:, 1:].sum(axis=1) + gamma[:, 0])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_padding_is_ignored(self):
        """A row padded with zero coefficients gives the SINR of the unpadded
        row from the same gamma and the same leading zeta entries."""
        c = np.array([[5.0, 1.0 + 1.0j, 0.0, 0.0]])
        draw = np.random.default_rng(4)
        padded = _rank_one_sinr(c, np.array([2]), 0.3, draw.standard_gamma(8, 1), draw)
        rng = np.random.default_rng(4)
        gamma = rng.standard_gamma(8, size=(1, 1))
        z = rng.standard_normal((1, 2, 5))
        zeta = ((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0))[:, [0, 1, 4]]
        v = np.array([[math.sqrt(0.3) * 5.0, math.sqrt(0.3) * (1.0 + 1.0j), 1.0]])
        u = v / np.linalg.norm(v)
        x = gamma * u + np.sqrt(gamma) * (zeta - u * np.sum(u.conj() * zeta))
        want = 0.3 * abs(x[0, 0]) ** 2 / (0.3 * abs(x[0, 1]) ** 2 + gamma[0, 0])
        assert padded[0] == pytest.approx(want, rel=1e-12)


class TestRunTrial:
    def test_single_ue_always_succeeds(self):
        cfg = small_config(population=1, m_antennas=64, snr_db=0.0)
        for t in range(20):
            out = run_trial(cfg, t)
            assert out.tagged_event == EVENT_E0
            assert out.success
            assert out.k_other_roots == 0

    def test_degenerate_pool_always_collides(self):
        pool = PilotPool(N_ZC, r_roots=1, n_ss=4, l=4)
        assert pool.n_p == 1
        cfg = small_config(population=2, pool=pool)
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
        cfg = small_config(population=500, p_a=0.01, m_antennas=2)
        counts = np.concatenate([run_block(cfg, b).n_active for b in range(32)])[:2000]
        # n_active - 1 ~ Binomial(499, 0.01): mean 4.99, never below 1 total.
        assert min(counts) >= 1
        assert np.mean(counts) == pytest.approx(1 + 499 * 0.01, abs=0.2)

    def test_event_frequencies_match_conditional_law(self):
        """Conditioned on n same-root others and no identical draw, the
        e0 frequency must match the closed form within Monte Carlo error."""
        cfg = small_config(m_antennas=2, population=10)
        per_n: dict[int, list[str]] = {}
        for block in range(20_000 // BLOCK_TRIALS):
            out = run_block(cfg, block)
            for code, n_same in zip(out.events, out.n_same_root_others):
                if EVENTS[code] != EVENT_IDENTICAL:
                    per_n.setdefault(int(n_same), []).append(EVENTS[code])
        for n in (3, 4, 5):
            events = per_n[n]
            assert len(events) > 1500
            probs = collision_event_probs(n, cfg.pool)
            freq_e0 = sum(e == EVENT_E0 for e in events) / len(events)
            freq_e1 = sum(e == EVENT_E1 for e in events) / len(events)
            sigma0 = math.sqrt(probs.p_e0 * (1 - probs.p_e0) / len(events))
            sigma1 = math.sqrt(probs.p_e1 * (1 - probs.p_e1) / len(events))
            assert freq_e0 == pytest.approx(probs.p_e0, abs=4 * sigma0 + 1e-3)
            assert freq_e1 == pytest.approx(probs.p_e1, abs=4 * sigma1 + 1e-3)

    def test_success_rate_tracks_analytic_reference(self):
        cfg = small_config(
            m_antennas=128,
            population=10,
            pool=PilotPool(N_ZC, r_roots=2, n_ss=32, l=2),
            snr_db=10.0,
            trials=4000,
        )
        s, n = run_point(cfg, point_id=0)
        ref = analytic_reference(cfg)
        sigma = math.sqrt(ref * (1 - ref) / n)
        assert s / n == pytest.approx(ref, abs=4 * sigma)


def block_configs():
    """Random activity (padded rows) over i.i.d. and correlated channels."""
    return [small_config(16, population=2000, p_a=0.004, rho=rho, snr_db=-3.0)
            for rho in (0.0, 0.7)]


class TestBlockEngine:
    @pytest.mark.parametrize("cfg", block_configs())
    def test_run_trial_replays_its_row(self, cfg):
        for t in (0, 5, 63, 64, 130):
            block = run_block(cfg, t // BLOCK_TRIALS, point_id=3)
            assert run_trial(cfg, t, point_id=3) == block.trial(t % BLOCK_TRIALS)

    @pytest.mark.parametrize("cfg", block_configs())
    def test_run_point_counts_each_trial_once(self, cfg):
        """A point of 60 trials is 60 rows of one block, of 100 trials one
        whole block and 36 rows, of 150 trials two whole blocks and 22 rows."""
        for trials in (60, 100, 150):
            cfg = dataclasses.replace(cfg, trials=trials)
            want = sum(run_trial(cfg, t, point_id=2).success for t in range(trials))
            assert run_point(cfg, point_id=2) == (want, trials)

    @pytest.mark.parametrize("cfg", block_configs())
    def test_counted_rows_are_a_prefix_of_the_block(self, cfg):
        """run_block with r counted rows gives the first r rows of the whole
        block, bit for bit: it still draws every live row's gamma or drops."""
        for block in range(3):
            full = run_block(cfg, block, point_id=5)
            assert np.count_nonzero(full.events < 2) > 10
            for rows in (1, 9, 30, 63):
                part = run_block(cfg, block, point_id=5, rows=rows)
                for name in ("n_active", "events", "n_same_root_others",
                             "sinr_linear", "success"):
                    got, want = getattr(part, name), getattr(full, name)[:rows]
                    assert got.tobytes() == want.tobytes(), (block, rows, name)

    def test_counted_rows_without_live_row(self):
        """A correlated block whose counted rows hold no E0 or E1 row, while
        later rows do, gives NaN SINRs and no success."""
        cfg = small_config(16, population=12, pool=PilotPool(N_ZC, r_roots=1, n_ss=4, l=2),
                           rho=0.7)
        for block in range(50):
            full = run_block(cfg, block)
            rows = int(np.argmax(full.events < 2))
            if rows > 0:
                break
        assert rows > 0
        part = run_block(cfg, block, rows=rows)
        assert np.isnan(part.sinr_linear).all() and not part.success.any()
        assert part.events.tobytes() == full.events[:rows].tobytes()

    def test_outcomes_do_not_depend_on_trial_count(self):
        short, long = (small_config(population=2000, p_a=0.004, trials=n)
                       for n in (64, 200))
        assert ([run_trial(short, t) for t in range(64)]
                == [run_trial(long, t) for t in range(64)])
        assert run_point(short)[0] == sum(run_trial(long, t).success for t in range(64))

    def test_block_streams_differ_across_blocks_and_points(self):
        cfg = block_configs()[0]
        base = run_block(cfg, 0, point_id=0)
        for other in (run_block(cfg, 1, point_id=0), run_block(cfg, 0, point_id=1)):
            assert not np.array_equal(base.n_active, other.n_active)
            assert not np.array_equal(base.sinr_linear, other.sinr_linear, equal_nan=True)

    def test_classify_block_matches_row_classifier(self):
        """Per row of a padded block with mixed roots: the event of
        classify_tagged_collision on that row's valid same-root others alone,
        the shared mask of the unpadded one-root row, and the mask of those
        others.  Padding and other roots must not change a row's outcome."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            r, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            table = combination_table(int(rng.integers(l, l + 4)), l)
            n_active = rng.integers(1, 12, size=8)
            valid = np.arange(n_active.max()) < n_active[:, None]
            roots, ranks = divmod(rng.integers(0, r * len(table), valid.shape), len(table))
            shifts = table[ranks]
            events, shared, same_mask = classify_block(roots, shifts, valid)
            for b, n in enumerate(n_active):
                same = shifts[b, 1:n][roots[b, 1:n] == roots[b, 0]]
                assert EVENTS[events[b]] == classify_tagged_collision(shifts[b, 0], same)
                alone = np.vstack([shifts[b, :1], same])[None]
                ones = np.ones(alone.shape[:2], bool)
                _, want_shared, _ = classify_block(np.zeros(ones.shape, np.intp), alone, ones)
                assert shared[b].tolist() == want_shared[0].tolist()
                want = (roots[b] == roots[b, 0]) & valid[b]
                want[0] = False
                assert same_mask[b].tolist() == want.tolist()

    def test_block_coefficients_match_rows(self, pool):
        """Rows despread by their free tagged shifts give, to the last bit, the
        coefficients of the one-row call on those shifts alone."""
        corr = _PatternCorrelator(pool)
        rng = np.random.default_rng(22)
        roots = rng.integers(0, pool.r_roots, (16, 7))
        shifts = pool.shift_table[rng.integers(0, pool.n_ps, (16, 7))]
        used = rng.random((16, 2)) < 0.7
        used[:, 0] |= ~used[:, 1]
        block = corr.coefficient(roots, shifts, roots[:, 0], shifts[:, 0], used)
        for b in range(16):
            row = corr.coefficient(roots[b], shifts[b], roots[b, 0], shifts[b, 0][used[b]],
                                   np.ones(used[b].sum(), bool))
            assert block[b].tobytes() == row.tobytes()


class TestForcedInterference:
    def test_needs_two_roots(self):
        pool = PilotPool(N_ZC, r_roots=1, n_ss=32, l=2)
        with pytest.raises(ValueError):
            run_forced_interference_trial(pool, 8, 1, 10.0, 1, 0)

    def test_deviation_from_limit_shrinks_with_antennas(self):
        """With the pattern draws paired across M (same substream), the
        realized SINR moves toward its pattern-conditional limit as the
        array grows.  High SNR keeps the noise floor out of the comparison.
        Convergence is slow (relative error scales like N_ZC / M), which is
        why only the trend is asserted here."""
        pool = PilotPool(N_ZC, r_roots=4, n_ss=32, l=2)
        mean_devs = []
        for m in (64, 256, 1024):
            ratios = [
                run_forced_interference_trial(
                    pool, m, 2, 30.0, 7, t, point_id=0
                )
                for t in range(300)
            ]
            devs = [abs(s / lim - 1) for s, lim in ratios if math.isfinite(lim)]
            mean_devs.append(np.mean(devs))
        assert mean_devs[0] > mean_devs[1] > mean_devs[2]

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("l", [1, 2])
    def test_draw_order(self, k, l):
        """A twin of the trial's stream replays it: K + 1 pattern ranks, K
        interferer roots, one Gamma(M, 1), then the (1, 2, K + 2) normals of
        zeta, with the SINR in the projection form (TestRankOneLaw)."""
        pool = PilotPool(N_ZC, r_roots=3, n_ss=16, l=l)
        m, p_lin, seed, t = 16, db_to_linear(3.0), 5, 7
        sinr, limit = run_forced_interference_trial(pool, m, k, 3.0, seed, t)
        rng = trial_rng(seed, 0, t)
        shifts = pool.shift_table[rng.integers(0, pool.n_ps, k + 1)]
        roots = np.append(0, 1 + rng.integers(0, pool.r_roots - 1, k))
        gamma = rng.standard_gamma(m, 1)[0]
        z = rng.standard_normal((1, 2, k + 2))[0]
        c = _correlator(pool).coefficient(roots, shifts, 0, shifts[0], np.ones(l, bool))
        zeta = (z[0] + 1j * z[1]) / math.sqrt(2.0)
        v = np.append(math.sqrt(p_lin) * c, 1.0)
        u = v / np.linalg.norm(v)
        x = gamma * u + math.sqrt(gamma) * (zeta - u * np.vdot(u, zeta))
        power = np.abs(x[:k + 1]) ** 2
        want = p_lin * power[0] / (p_lin * power[1:].sum() + gamma)
        assert sinr == pytest.approx(want, rel=1e-12)
        interference = np.sum(np.abs(c[1:]) ** 2)
        assert limit == (math.inf if k == 0 else N_ZC / interference)

    def test_no_interferers_is_noise_limited(self):
        pool = PilotPool(N_ZC, r_roots=2, n_ss=32, l=2)
        sinr, limit = run_forced_interference_trial(pool, 512, 0, 10.0, 3, 0)
        assert limit == math.inf
        # g = sqrt(P) h + noise, so SINR approaches P ||h||^2 ~ P M.
        assert sinr == pytest.approx(10.0 * 512, rel=0.2)


class TestCampaign:
    def test_thread_count_does_not_change_results(self):
        configs = {
            pid: small_config(trials=50, pool=PilotPool(N_ZC, r_roots=r, n_ss=16, l=2))
            for pid, r in enumerate((1, 2))
        }
        seq = run_campaign(configs, threads=1)
        par = run_campaign(configs, threads=2)
        assert seq == par

    def test_worker_count_is_capped_at_the_point_count(self, monkeypatch):
        """A pool forks all its workers at the first submit, so asking for more
        workers than points would start processes with nothing to run."""
        import concurrent.futures

        asked = []

        class InlineExecutor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        configs = {
            pid: small_config(trials=20, pool=PilotPool(N_ZC, r_roots=r, n_ss=16, l=2))
            for pid, r in enumerate((1, 2, 3))
        }
        assert run_campaign(configs, threads=64) == run_campaign(configs, threads=1)
        assert asked == [3]

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
            "alpha_th_db": 3.0, "snr_db": -4.0,
            "p_a": 0.1, "population": 50,
        }
        new = build_scenario(point, N_ZC, trials=7, master_seed=3)
        assert new.pool.n_ss == 32 and new.pool.l == 1
        assert new.pool.r_roots == 3
        assert (new.m_antennas, new.rho) == (16, 0.5)
        assert new.pool.n_zc == N_ZC
        assert (new.population, new.p_a) == (50, 0.1)
        assert (new.snr_db, new.alpha_th_db, new.trials, new.master_seed) == (-4.0, 3.0, 7, 3)

    def test_scenario_rejects_a_bad_channel(self):
        with pytest.raises(ValueError, match="m_antennas must be >= 1, got 0"):
            small_config(m_antennas=0)
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\), got 1.0"):
            small_config(m_antennas=8, rho=1.0)


class TestAnalyticReference:
    def test_fixed_count_is_full_activity(self):
        """A point with n_active N and one with p_a = 1 over N UEs are one
        scenario: the same trials and the same closed form."""
        base = {"n_ss": 16, "l": 2, "r_roots": 2, "m_antennas": 8, "rho": 0.0,
                "alpha_th_db": 5.0, "snr_db": 0.0}
        fixed, full = (build_scenario({**base, **act}, N_ZC, trials=300, master_seed=5)
                       for act in ({"n_active": 6}, {"p_a": 1.0, "population": 6}))
        assert run_point(fixed, 4) == run_point(full, 4)
        assert analytic_reference(fixed) == analytic_reference(full)

    def test_l3_has_no_closed_form(self):
        cfg = small_config(pool=PilotPool(N_ZC, r_roots=1, n_ss=16, l=3))
        assert analytic_reference(cfg) is None

    def test_fixed_activity_uses_pattern_model(self):
        from pdra.analytic import success_probability_random_activity

        pool = PilotPool(N_ZC, r_roots=2, n_ss=32, l=2)
        assert analytic_reference(small_config(pool=pool)) == pytest.approx(
            success_probability_random_activity(1.0, 10, pool, db_to_linear(5.0)), abs=1e-15
        )

    def test_single_sequence_uses_baseline_model(self):
        from pdra.analytic import success_probability_random_activity

        pool = PilotPool(N_ZC, r_roots=2, n_ss=32, l=1)
        assert analytic_reference(small_config(pool=pool)) == pytest.approx(
            success_probability_random_activity(1.0, 10, pool, db_to_linear(5.0)), abs=1e-15
        )
