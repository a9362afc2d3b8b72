import json
import math
from collections import Counter

import numpy as np
import pytest

from prorl.bounds import bc_sample_term
from prorl.classes import WeightClass
from prorl.extraction import extract_policy
from prorl.mdp import exact_occupancy, policy_return, uniform_policy
from prorl.objective import population_lagrangian_members, weighted_l2
from prorl.oracle import (
    capped_unregularized_value,
    solve_unregularized,
    strong_concentrability_check,
)
from prorl.pipelines import (
    CSV_HEADER,
    ExperimentConfig,
    PipelineError,
    resolve_data_dist,
    resolve_mdp,
    run_pro_rl_bc,
)
from prorl import suites
from prorl.regularizers import Regularizer
from prorl.suites import (
    STABILITY_HEADER,
    SUITE_NAMES,
    bc_fixture,
    capped_fixture,
    counterexample_fixture,
    rate_regularized_fixture,
    ring_fixture,
    run_experiment_suite,
)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestRingFixture:
    def setup_method(self):
        self.fx = ring_fixture()
        self.mdp = resolve_mdp(self.fx["mdp"])

    def test_transitions_ignore_the_action(self):
        t = self.mdp.transition
        for a in range(1, self.mdp.num_actions):
            np.testing.assert_allclose(t[:, a, :], t[:, 0, :], atol=0)

    def test_every_policy_shares_the_state_marginal(self):
        dd = exact_occupancy(self.mdp, uniform_policy(8, 3)).mass
        uns = solve_unregularized(self.mdp)
        res = strong_concentrability_check(self.mdp, dd, uns.d_star.state_marginal)
        assert res.holds
        assert res.b_wu == pytest.approx(1.0, abs=1e-9)
        assert res.b_wl == pytest.approx(1.0, abs=1e-9)

    def test_optimal_value_is_flat(self):
        uns = solve_unregularized(self.mdp)
        np.testing.assert_allclose(uns.v_star, 0.9 / (1 - self.mdp.gamma), atol=1e-9)

    def test_deviator_weights_cost_exactly_their_target(self):
        # member k+1 moves one state onto a depressed action; its extracted
        # policy must lose exactly targets[k] of return
        wc = WeightClass.from_config(self.fx["classes"]["weight_class"])
        pi_d = uniform_policy(8, 3)
        uns = solve_unregularized(self.mdp)
        j_star = float((uns.d_star.mass * self.mdp.reward).sum())
        for k, target in enumerate(self.fx["targets"]):
            pi_k = extract_policy(wc.members[k + 1], pi_d)
            gap = j_star - policy_return(self.mdp, pi_k)
            assert gap == pytest.approx(target, abs=1e-10)

    def test_anchor_weight_is_the_exact_ratio(self):
        wc = WeightClass.from_config(self.fx["classes"]["weight_class"])
        dd = exact_occupancy(self.mdp, uniform_policy(8, 3)).mass
        uns = solve_unregularized(self.mdp)
        np.testing.assert_allclose(wc.members[0], uns.d_star.mass / dd, atol=1e-9)


class TestRateRegularizedFixture:
    def setup_method(self):
        self.fx = rate_regularized_fixture()
        self.mdp = resolve_mdp(self.fx["mdp"])
        self.dd, _ = resolve_data_dist(self.mdp, self.fx["data_dist"])
        self.reg = Regularizer.from_config(self.fx["reg"])
        self.wc = WeightClass.from_config(self.fx["classes"]["weight_class"])
        self.v_members = [
            np.asarray(v) for v in self.fx["classes"]["value_class"]["members"]
        ]

    def test_class_sizes(self):
        assert len(self.wc.members) == 31
        assert len(self.v_members) == 31

    def test_members_are_flow_consistent(self):
        # every member is a convex blend of exact occupancy ratios, so the
        # population objective cannot depend on the value candidate
        pop = population_lagrangian_members(
            self.mdp, self.dd, self.reg, self.fx["alpha"],
            self.v_members, self.wc.members,
        )
        assert float((pop.max(axis=1) - pop.min(axis=1)).max()) < 1e-9

    def test_target_wins_the_population_saddle(self):
        pop = population_lagrangian_members(
            self.mdp, self.dd, self.reg, self.fx["alpha"],
            self.v_members, self.wc.members,
        )
        inner = pop.min(axis=1)
        assert inner.argmax() == 0
        assert inner[0] - np.delete(inner, 0).max() > 0.0

    def test_population_margins_are_quadratic_in_blend_depth(self):
        # the target solves the regularized problem in the interior of its
        # face, so the first-order term vanishes and the margin of a blend
        # at depth t is exactly (alpha m_f / 2) t^2 ||far - target||^2
        alpha = self.fx["alpha"]
        pop = population_lagrangian_members(
            self.mdp, self.dd, self.reg, alpha, self.v_members, self.wc.members
        )
        inner = pop.min(axis=1)
        rungs = (0.003, 0.006, 0.012, 0.0225, 0.045, 0.09)
        for direction in range(5):
            base = 1 + 6 * direction
            w_deep = self.wc.members[base + len(rungs) - 1]
            w_far = self.wc.members[0] + (w_deep - self.wc.members[0]) / rungs[-1]
            dist2 = weighted_l2(w_far, self.wc.members[0], self.dd) ** 2
            for j, t in enumerate(rungs):
                margin = inner[0] - inner[base + j]
                want = 0.5 * alpha * self.reg.m_f * dist2 * t * t
                assert margin == pytest.approx(want, rel=1e-6)


class TestCappedFixture:
    def test_capped_value_matches_hand_computation(self):
        # cap 2 binds only on the better covered arm, which then carries
        # eight tenths of the start-state flow: the achievable return is
        # 0.3094 exactly
        fx = capped_fixture()
        mdp = resolve_mdp(fx["mdp"])
        dd, _ = resolve_data_dist(mdp, fx["data_dist"])
        j_cap, d_cap = capped_unregularized_value(mdp, dd, fx["cap"])
        assert j_cap == pytest.approx(0.3094, abs=1e-9)
        w = np.zeros_like(dd)
        pos = dd > 0
        w[pos] = d_cap[pos] / dd[pos]
        assert w.max() <= fx["cap"] + 1e-8

    def test_uncapped_optimum_needs_the_uncovered_action(self):
        fx = capped_fixture()
        mdp = resolve_mdp(fx["mdp"])
        uns = solve_unregularized(mdp)
        assert float((uns.d_star.mass * mdp.reward).sum()) == pytest.approx(0.7, abs=1e-9)
        assert uns.d_star.mass[0, 0] > 0.0  # the action the data never plays


class TestBcFixture:
    def test_policy_class_size_flows_into_sample_term(self):
        fx = bc_fixture(n1=2000)
        cfg = ExperimentConfig(
            mdp=fx["mdp"],
            data_dist=fx["data_dist"],
            reg=fx["reg"],
            alpha=fx["alpha"],
            n=2400,
            n0=200,
            seed=0,
            classes=fx["classes"],
            bc=fx["bc"],
        )
        report = run_pro_rl_bc(cfg)
        # 4 directions x 10 mixes plus the target itself
        want = bc_sample_term(report.b_w, 41, cfg.delta, report.n2)
        assert report.bc_sample_term == pytest.approx(want, rel=1e-12)


class TestCounterexampleSuite:
    def test_summary_and_rows(self, tmp_path):
        out = tmp_path / "cex"
        summary = run_experiment_suite("counterexample", str(out))
        assert summary["max_population_tie_gap"] < 1e-12
        assert summary["worst_instance_gap"] == pytest.approx(0.125, abs=1e-12)
        assert summary["gap_over_regret_ratio"] >= 0.9
        assert summary["friendly_gap_max"] <= 1e-12
        header, rows = read_rows(out / "rows.csv")
        assert tuple(header) == CSV_HEADER
        assert len(rows) == 4
        n2_col = header.index("n2")
        assert all(r[n2_col] == "" for r in rows)

    def test_no_plot_for_this_suite(self, tmp_path):
        out = tmp_path / "cex"
        run_experiment_suite("counterexample", str(out))
        assert not (out / "plot.svg").exists()
        assert (out / "meta.json").exists()


class TestStabilitySuite:
    def test_drift_slope_matches_hand_computation(self, tmp_path):
        # on the constant prefix the dual drift is linear with slope
        # sqrt(124956.25) / 131 in this fixture (weighted norm of the
        # per-state drift direction), and the limit weight minimizes the
        # divergence over the optimal face
        out = tmp_path / "lp"
        summary = run_experiment_suite("lp_stability", str(out))
        assert summary["constant_prefix_len"] == 5
        assert summary["v_gap_slope"] == pytest.approx(math.sqrt(124956.25) / 131.0, rel=1e-6)
        assert abs(summary["v_gap_intercept"]) < 1e-9
        assert summary["v_gap_r2"] > 0.999999
        assert summary["limit_matches_min_divergence_err"] < 1e-6
        assert summary["min_divergence_value"] == pytest.approx(0.74, abs=1e-9)

    def test_rows_use_the_sweep_header(self, tmp_path):
        out = tmp_path / "lp"
        run_experiment_suite("lp_stability", str(out))
        header, rows = read_rows(out / "rows.csv")
        assert tuple(header) == STABILITY_HEADER
        assert len(rows) == 6
        in_prefix = [int(r[-1]) for r in rows]
        assert in_prefix == [0, 1, 1, 1, 1, 1]
        assert (out / "plot.svg").exists()


class TestSuiteArtifacts:
    def test_rate_regularized_small_is_byte_stable(self, tmp_path):
        kwargs = dict(n_grid=(100, 300), num_seeds=2)
        a = tmp_path / "a"
        b = tmp_path / "b"
        s1 = run_experiment_suite("rate_regularized", str(a), **kwargs)
        s2 = run_experiment_suite("rate_regularized", str(b), **kwargs)
        assert s1 == s2
        for name in ("rows.csv", "summary.json", "plot.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_meta_holds_the_only_timestamp(self, tmp_path):
        out = tmp_path / "r"
        run_experiment_suite("rate_regularized", str(out), n_grid=(100, 300), num_seeds=2)
        meta = json.loads((out / "meta.json").read_text())
        assert "written_utc" in meta
        assert "utc" not in (out / "summary.json").read_text()

    def test_alpha_zero_strong_small(self, tmp_path):
        out = tmp_path / "az"
        summary = run_experiment_suite(
            "alpha_zero_strong", str(out), n_grid=(200,), num_seeds=3
        )
        assert summary["strong_concentrability"]["holds"]
        targets = ring_fixture()["targets"]
        header, rows = read_rows(out / "rows.csv")
        gap_col = header.index("gap_ref")
        for row in rows:
            gap = float(row[gap_col])
            nearest = min(abs(gap - t) for t in [0.0] + targets)
            assert nearest < 1e-8

    def test_constrained_coverage_small(self, tmp_path):
        out = tmp_path / "cc"
        summary = run_experiment_suite(
            "constrained_coverage", str(out), num_seeds=2, n=800
        )
        assert summary["envelope_fraction"] == 1.0
        assert summary["cap_respected_fraction"] == 1.0
        assert summary["j_capped_reference"] == pytest.approx(0.3094, abs=1e-9)
        assert summary["reference_consistency_err"] < 1e-10

    def test_robustness_small(self, tmp_path):
        out = tmp_path / "rob"
        summary = run_experiment_suite("robustness", str(out), num_seeds=2)
        assert summary["chain_fraction"] == 1.0
        assert summary["robust_fraction"] == 1.0
        assert summary["worst_gap_over_bound"] < 1.0
        assert not (out / "plot.svg").exists()

    def test_rate_unregularized_small(self, tmp_path):
        out = tmp_path / "ru"
        summary = run_experiment_suite(
            "rate_unregularized", str(out), n_grid=(500, 2000), num_seeds=2
        )
        assert summary["envelope_fraction"] == 1.0
        assert summary["b_f0"] == pytest.approx(0.5 * summary["b_w0"] ** 2, rel=1e-12)
        alphas = [summary["per_n"][k]["alpha"] for k in ("500", "2000")]
        assert alphas[0] > alphas[1]

    def test_bc_scaling_small(self, tmp_path):
        out = tmp_path / "bc"
        summary = run_experiment_suite(
            "bc_scaling", str(out), n2_grid=(300, 600), num_seeds=2, n1=4000
        )
        header, rows = read_rows(out / "rows.csv")
        n2_col = header.index("n2")
        assert sorted({r[n2_col] for r in rows}) == ["300", "600"]
        assert set(summary["per_n2"]) == {"300", "600"}

    def test_unknown_suite_name(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown suite"):
            run_experiment_suite("bogus", str(tmp_path / "x"))

    def test_suite_names_all_dispatch(self):
        assert len(SUITE_NAMES) == 8
        assert len(set(SUITE_NAMES)) == 8


class TestRowsFormat:
    def test_floats_round_trip_through_repr(self, tmp_path):
        out = tmp_path / "rr"
        run_experiment_suite("rate_regularized", str(out), n_grid=(100,), num_seeds=2)
        header, rows = read_rows(out / "rows.csv")
        j_col = header.index("j_hat")
        for row in rows:
            assert float(row[j_col]) == float(repr(float(row[j_col])))

    def test_rows_sorted_by_n_then_seed(self, tmp_path):
        out = tmp_path / "rr"
        run_experiment_suite("rate_regularized", str(out), n_grid=(300, 100), num_seeds=2)
        header, rows = read_rows(out / "rows.csv")
        n_col, seed_col = header.index("n"), header.index("seed")
        keys = [(int(r[n_col]), int(r[seed_col])) for r in rows]
        assert keys == sorted(keys)

    def test_cells_are_written_as_their_plain_spelling(self, tmp_path):
        """None empty, ints and floats as str and repr, the same for their numpy twins,
        nothing quoted. Rows hold no bool and no float32, the two types a
        ``repr(float(x))`` writer and the csv module spell differently."""
        row = (None, "capped", 7, np.int64(-2), 0.1, np.float64(-0.0), np.float64(1e-300),
               np.float64("nan"), float("inf"), np.float64(-np.inf), np.float64(2.5e17))
        path = tmp_path / "rows.csv"
        suites._write_rows(str(path), ("a", "b"), [row])
        assert path.read_bytes() == b"a,b\n,capped,7,-2,0.1,-0.0,1e-300,nan,inf,-inf,2.5e+17\n"


class TestJsonWriter:
    def test_numpy_values_write_as_their_plain_twins(self, tmp_path):
        numpy = {"f": np.float32(0.1), "i": np.int64(-3), "b": np.bool_(True),
                 "a": np.array([[0.5, 2.0], [1e-300, -0.0]]), "t": (np.float64(0.3), 1),
                 "nested": [{"x": np.arange(3)}]}
        plain = {"f": float(np.float32(0.1)), "i": -3, "b": True,
                 "a": [[0.5, 2.0], [1e-300, -0.0]], "t": [0.3, 1], "nested": [{"x": [0, 1, 2]}]}
        suites._write_json(str(tmp_path / "numpy.json"), numpy)
        suites._write_json(str(tmp_path / "plain.json"), plain)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("value", [object(), {1, 2}, 1j])
    def test_other_objects_raise(self, tmp_path, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            suites._write_json(str(tmp_path / "bad.json"), {"x": value})


class TestGridOrder:
    def test_grid_order_does_not_reach_the_artifacts(self, tmp_path):
        # medians and their monotone flag read in ascending n, whatever order the grid has
        for grid, sub in (((300, 100), "down"), ((100, 300), "up")):
            run_experiment_suite("rate_regularized", str(tmp_path / sub), n_grid=grid, num_seeds=2)
        for name in ("rows.csv", "summary.json", "plot.svg"):
            assert (tmp_path / "down" / name).read_bytes() == (tmp_path / "up" / name).read_bytes()
        summary = json.loads((tmp_path / "down" / "summary.json").read_text())
        assert summary["n_grid"] == [100, 300]


class TestOverrideChecks:
    """A bad override is a config error that names the suite, the key and the
    accepted keys, raised before any artifact is written."""

    CASES = {
        "unknown_key": ("counterexample", {"num_seeds": 2}, "is unknown"),
        "scalar_grid": ("rate_regularized", {"n_grid": 100}, "must be a non-empty list"),
        "no_seeds": ("rate_regularized", {"num_seeds": 0}, "must be an integer >= 1"),
        "no_seeds_single_point": ("constrained_coverage", {"num_seeds": 0}, "integer >= 1"),
        "empty_grid": ("alpha_zero_strong", {"n_grid": []}, "non-empty list"),
        "repeated_point": ("rate_regularized", {"n_grid": [100, 300, 100]}, "distinct"),
        "negative_point": ("bc_scaling", {"n2_grid": [300, -1]}, "positive whole"),
        "fractional_size": ("rate_unregularized", {"n_grid": [500.5]}, "positive whole"),
        "zero_alpha": ("lp_stability", {"alpha_grid": [0.1, 0.0]}, "positive numbers"),
        "negative_perturbation": ("robustness", {"perturbations": [-0.1]}, "nonnegative"),
        "boolean_count": ("robustness", {"num_seeds": True}, "integer >= 1"),
        "text_gamma": ("counterexample", {"gamma": "half"}, "finite number"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_before_writing(self, case, tmp_path):
        name, overrides, why = self.CASES[case]
        (key,) = overrides
        out = tmp_path / "out"
        with pytest.raises(PipelineError, match=why) as info:
            run_experiment_suite(name, str(out), **overrides)
        message = str(info.value)
        assert info.value.stage == "config"
        assert f"suite {name!r}" in message and f"override {key}=" in message
        assert "accepted keys:" in message
        assert not (out / "rows.csv").exists()
        assert not (out / "summary.json").exists()

    def test_message_lists_the_accepted_keys(self, tmp_path):
        with pytest.raises(PipelineError) as info:
            run_experiment_suite("bc_scaling", str(tmp_path), n_grid=[100])
        assert str(info.value).endswith(
            "accepted keys: n2_grid=(500, 1000, 2000, 4000, 8000), num_seeds=20, n1=60000"
        )

    def test_zero_stays_valid_in_the_robustness_lists(self, tmp_path):
        summary = run_experiment_suite(
            "robustness", str(tmp_path), perturbations=[0.0], oracle_errors=[0.0], num_seeds=1
        )
        assert summary["perturbations"] == [0.0]


class TestOneDriverCallPerRow:
    """Each pipeline run goes through a driver bound in prorl.suites.

    A timing harness counts operations by rebinding suites.run_pro_rl and
    suites.run_pro_rl_bc, so every counted call must be one rows.csv line.
    """

    TINY = {
        "counterexample": {},
        "rate_regularized": {"n_grid": [100, 300], "num_seeds": 2},
        "rate_unregularized": {"n_grid": [500], "num_seeds": 2},
        "constrained_coverage": {"num_seeds": 2, "n": 800},
        "alpha_zero_strong": {"n_grid": [200], "num_seeds": 2},
        "bc_scaling": {"n2_grid": [300, 600], "num_seeds": 2, "n1": 4000},
        "robustness": {"perturbations": [0.0, 0.1], "oracle_errors": [0.0, 0.02], "num_seeds": 1},
    }

    def test_every_pipeline_suite_is_covered(self):
        assert set(self.TINY) == set(SUITE_NAMES) - {"lp_stability"}

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_counts(self, name, tmp_path, monkeypatch):
        counts = Counter()
        for driver in ("run_pro_rl", "run_pro_rl_bc"):
            def counted(cfg, instance=None, _driver=driver, _original=getattr(suites, driver)):
                counts[_driver] += 1
                return _original(cfg, instance)

            monkeypatch.setattr(suites, driver, counted)
        run_experiment_suite(name, str(tmp_path), **self.TINY[name])
        _, rows = read_rows(tmp_path / "rows.csv")
        assert sum(counts.values()) == len(rows) > 0
        assert counts["run_pro_rl_bc"] == (len(rows) if name == "bc_scaling" else 0)
