import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prorl import classes, datasets, pipelines, suites
from prorl.bounds import performance_gap_bound, residual_bound, stat_error
from prorl.datasets import DatasetSampler
from prorl.extraction import extract_policy
from prorl.mdp import policy_return, random_mdp
from prorl.objective import weighted_l2
from prorl.oracle import capped_unregularized_value
from prorl.pipelines import (
    CSV_HEADER,
    ExperimentConfig,
    PipelineError,
    _staged,
    prepare,
    resolve_data_dist,
    resolve_mdp,
    run_pro_rl,
    run_pro_rl_bc,
)
from prorl.regularizers import Regularizer
from prorl.suites import (
    SUITE_NAMES,
    _sweep,
    bc_fixture,
    capped_fixture,
    counterexample_fixture,
    rate_regularized_fixture,
    run_experiment_suite,
)

REG = Regularizer().to_config()
ROWS_HEADER = "config_hash,seed,variant,alpha,n,n0,n2,j_hat,j_star_alpha,j_star_zero,j_ref,gap_ref,pi_l1,pi_l1_bc,w_dev,eps_hat,eps_stat,rhs_perf_bound,rhs_realized,rhs_capped,bc_sample_term,eps_rv,eps_rw,eps_ov,eps_ow,w_index,v_index,w_max,b_v,b_w,kkt_residual"


def base_config(**over):
    payload = dict(
        mdp={"kind": "random", "num_states": 5, "num_actions": 3, "gamma": 0.8, "seed": 2},
        data_dist={"kind": "uniform_policy"},
        reg=REG,
        alpha=0.3,
        n=1500,
        n0=300,
        seed=0,
        classes={"kind": "realizable", "num_distractors": 6, "seed": 0},
    )
    payload.update(over)
    return ExperimentConfig(**payload)


class TestConfigValidation:
    def test_unknown_variant_kind(self):
        with pytest.raises(PipelineError, match="variant kind"):
            base_config(variant={"kind": "bogus"})

    def test_unknown_classes_kind(self):
        with pytest.raises(PipelineError, match="classes kind"):
            base_config(classes={"kind": "bogus"})

    def test_alpha_zero_requires_matching_variant(self):
        with pytest.raises(PipelineError, match="alpha=0 exactly"):
            base_config(alpha=0.0)
        with pytest.raises(PipelineError, match="alpha=0 exactly"):
            base_config(variant={"kind": "alpha_zero"})

    def test_alpha_zero_rejects_unconstrained_classes(self):
        with pytest.raises(PipelineError, match="floor"):
            base_config(alpha=0.0, variant={"kind": "alpha_zero"})

    def test_capped_needs_cap_and_behavior_data(self):
        with pytest.raises(PipelineError, match="cap"):
            base_config(variant={"kind": "capped"})
        with pytest.raises(PipelineError, match="behavior-policy"):
            base_config(
                variant={"kind": "capped", "cap": 2.0},
                data_dist={"kind": "explicit", "mass": [[1.0]]},
            )

    @pytest.mark.parametrize(
        "over, want",
        [({"alpha": float("inf")}, "alpha must be nonnegative and finite"),
         ({"alpha": float("nan")}, "alpha must be nonnegative and finite"),
         *(({"variant": {"kind": "capped", "cap": cap}}, "cap must be at least 1 and finite")
           for cap in (float("inf"), float("nan"), 0.0, 0.999))],  # below 1: no occupancy
        ids=["alpha_inf", "alpha_nan", "cap_inf", "cap_nan", "cap_zero", "cap_below_one"],
    )
    def test_non_finite_alpha_or_cap_is_a_config_error(self, over, want):
        with pytest.raises(PipelineError, match=rf"^\[config\] .*{want}"):
            base_config(**over)

    def test_inexact_needs_both_slacks(self):
        with pytest.raises(PipelineError, match=r"variant kind 'inexact' needs \['eps_ow'\]"):
            base_config(variant={"kind": "inexact", "eps_ov": 0.01})

    def test_delta_range(self):
        with pytest.raises(PipelineError, match="delta"):
            base_config(delta=0.0)

    def test_from_dict_rejects_unknown_keys(self):
        payload = base_config().to_dict()
        payload["typo"] = 1
        with pytest.raises(PipelineError, match="unknown config keys"):
            ExperimentConfig.from_dict(payload)

    def test_round_trip_preserves_hash(self):
        cfg = base_config(w_order=(1, 0))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.config_hash == cfg.config_hash
        assert again.w_order == (1, 0)

    def test_hash_distinguishes_seeds(self):
        assert base_config(seed=0).config_hash != base_config(seed=1).config_hash

    @pytest.mark.parametrize(
        "classes, unread",
        [
            ({"kind": "realizable", "num_distractor": 6}, "num_distractor"),
            ({"kind": "misspecified", "perturbation": 0.1, "mode": "near"}, "mode"),
            ({"kind": "constrained", "num_distractors": 4, "b_wl": 0.5}, "b_wl"),
            ({**counterexample_fixture()["classes"], "seed": 0}, "seed"),
        ],
        ids=["realizable", "misspecified", "constrained", "explicit"],
    )
    def test_classes_spec_rejects_unread_keys(self, classes, unread):
        want = rf"classes kind '{classes['kind']}' does not read \['{unread}'\]; accepted keys"
        with pytest.raises(PipelineError, match=want):
            base_config(classes=classes)

    @pytest.mark.parametrize(
        "over, want",
        [
            ({"variant": {"kind": "plain", "cap": 2}},
             r"variant kind 'plain' does not read \['cap'\]; accepted keys: \['kind'\]"),
            ({"variant": {"kind": "inexact", "eps_ov": 0.1, "eps_ow": 0.1, "eps": 0.1}},
             r"variant kind 'inexact' does not read \['eps'\]; accepted keys"),
            ({"dataset": {"kind": "sampled", "repeats": 3}},
             r"dataset kind 'sampled' does not read \['repeats'\]; accepted keys: \['kind'\]"),
            ({"dataset": {"kind": "exact_frequency", "repeats": 1}},
             r"dataset kind 'exact_frequency' does not read \['repeats'\]"),
            ({"bc": {"n1": 2000, "mixgrid": [0.1]}},
             r"bc kind 'target_plus_mixes' does not read \['mixgrid'\]; accepted keys"),
            ({"bc": {"kind": "explicit", "probs": []}}, "unknown bc kind 'explicit'"),
            ({"bc": {"kind": "mixes"}}, "unknown bc kind 'mixes'"),
            ({"dataset": {"kind": "bogus"}}, "unknown dataset kind 'bogus'"),
            ({"classes": "realizable"}, "the classes block must be a dict, not 'realizable'"),
            ({"dataset": {"kind": "exact_frequency"}, "bc": {"n1": 5}},
             "the bc cut needs a sampled dataset"),
            ({"reg": {"kind": "shifted_quadratic", "m_f": 1.0, "shift": 0.5}},
             "unknown reg kind 'shifted_quadratic'"),
            ({"reg": {"kind": "quadratic", "m_f": 1.0, "shift": 0.5}},
             r"reg kind 'quadratic' does not read \['shift'\]; accepted keys: \['kind', 'm_f'\]"),
            ({"reg": {"mf": 5.0}}, r"reg kind 'quadratic' does not read \['mf'\]"),
            ({"mdp": {"kind": "random", "num_states": 5, "num_actions": 3, "gamma": 0.8,
                      "seed": 2, "transition_concentration": 0.1}},
             r"mdp kind 'random' does not read \['transition_concentration'\]"),
            ({"mdp": {"kind": "random", "num_states": 5, "num_actions": 3, "gamma": 0.8,
                      "seed": 2, "init_uniform_mix": 0.5}},
             r"mdp kind 'random' does not read \['init_uniform_mix'\]"),
            ({"mdp": {"kind": "mixing", "num_states": 5, "num_actions": 3, "gamma": 0.8,
                      "seed": 2, "mixng": 0.9}},
             r"mdp kind 'mixing' does not read \['mixng'\]"),
            ({"mdp": {"kind": "grid"}}, "unknown mdp kind 'grid'"),
            ({"data_dist": {"kind": "uniform_policy", "mass": [[1.0]]}},
             r"data_dist kind 'uniform_policy' does not read \['mass'\]; accepted keys"),
            ({"data_dist": {"mass": [[1.0]]}}, "unknown data_dist kind None"),
            ({"variant": {"kind": []}}, r"unknown variant kind \[\]"),  # a kind that can't hash
        ],
        ids=["variant", "variant_inexact", "dataset", "dataset_repeats", "bc_typo", "bc_explicit",
             "bc_kind", "dataset_kind", "classes_not_a_dict", "bc_exact_frequency", "reg_shifted_kind",
             "reg_shift", "reg_typo", "mdp_transition_concentration", "mdp_init_uniform_mix",
             "mdp_typo", "mdp_kind", "data_dist_typo", "data_dist_no_kind",
             "variant_list_kind"],
    )
    def test_blocks_reject_unread_keys_and_kinds(self, over, want):
        with pytest.raises(PipelineError, match=want) as info:
            base_config(**over)
        assert info.value.stage == "config"

    @pytest.mark.parametrize(
        "over, want",
        [
            ({"mdp": {"kind": "random", "num_actions": 3, "gamma": 0.8, "seed": 2}},
             r"mdp kind 'random' needs \['num_states'\]"),
            ({"mdp": {"kind": "mixing", "num_states": 5, "num_actions": 3, "gamma": 0.8}},
             r"mdp kind 'mixing' needs \['seed'\]"),
            ({"mdp": {"kind": "inline", **{k: v for k, v in random_mdp(3, 2, 0.8, seed=1)
                                           .to_dict().items() if k != "reward"}}},
             r"mdp kind 'inline' needs \['reward'\]"),
            ({"data_dist": {"kind": "policy"}}, r"data_dist kind 'policy' needs \['probs'\]"),
            ({"classes": {"kind": "misspecified", "num_distractors": 4}},
             r"classes kind 'misspecified' needs \['perturbation'\]"),
            ({"variant": {"kind": "capped"}}, r"variant kind 'capped' needs \['cap'\]"),
            ({"classes": {"kind": "explicit"}},
             r"classes kind 'explicit' needs \['value_class', 'weight_class'\]"),
        ],
        ids=["mdp_random", "mdp_mixing", "mdp_inline", "data_dist_policy",
             "classes_misspecified", "variant_capped", "classes_explicit"],
    )
    def test_blocks_need_every_key_they_read(self, over, want):
        # a missing key fails at config, not later as a KeyError in its stage
        with pytest.raises(PipelineError, match=want) as info:
            base_config(**over)
        assert info.value.stage == "config"

    def test_keys_read_with_a_default_may_be_left_out(self):
        mdp = {"kind": "mixing", "num_states": 4, "num_actions": 2, "gamma": 0.8, "seed": 2}
        cfg = base_config(mdp=mdp, reg={}, classes={"kind": "realizable"}, n=2500,
                          bc={"kind": "target_plus_mixes"})
        assert run_pro_rl(cfg).n == 2500

    @pytest.mark.parametrize("repeats", [0, -1, 1.5, 2.0, True, "2"])
    def test_repeats_must_be_a_positive_integer(self, repeats):
        # exact-frequency data has no repeats key: any value is an unread key
        with pytest.raises(PipelineError, match="repeats") as info:
            base_config(dataset={"kind": "exact_frequency", "repeats": repeats})
        assert info.value.stage == "config"

    @pytest.mark.parametrize("name", ["rollx", "roll", "sideways", "Uniform"])
    def test_unknown_mix_direction_fails_before_the_oracle(self, name):
        want = rf"^\[config\] bc directions must be .*, got \['uniform', '{name}'\]$"
        with pytest.raises(PipelineError, match=want) as info:
            base_config(n=2500, bc={"n1": 2000, "directions": ["uniform", name]})
        assert info.value.stage == "config"

    def test_every_mix_direction_spelling_builds(self):
        bc = {"n1": 2000, "mix_grid": [0.5], "directions": ["uniform", "roll2", "roll-1",
                                                             "complement"]}
        assert len(prepare(base_config(n=2500, bc=bc)).policies) == 1 + 4

    @pytest.mark.parametrize("mdp", [{**base_config().mdp, "num_actions": 1},
                                     {"kind": "inline", **random_mdp(3, 1, 0.8, seed=1).to_dict()}],
                             ids=["random", "inline"])
    def test_complement_direction_needs_two_actions(self, mdp):
        # at one action 1 - pi is 0, and the 0/0 direction once put a NaN policy in the class,
        # which cloning then picked: pi_l1_bc read nan
        want = r"^\[config\] the bc direction 'complement' needs at least 2 actions"
        with pytest.raises(PipelineError, match=want) as info:
            base_config(mdp=mdp, n=2500, bc={"n1": 2000, "directions": ["uniform", "complement"]})
        assert info.value.stage == "config"
        assert len(prepare(base_config(mdp=mdp, n=2500, bc={"n1": 2000})).policies) == 1 + 3

    @pytest.mark.parametrize("spec", [
        {"kind": "realizable", "num_distractors": -3},
        {"kind": "misspecified", "perturbation": 0.05, "num_distractors": -3},
        {"kind": "constrained", "num_distractors": -3},
    ], ids=lambda spec: spec["kind"])
    def test_negative_num_distractors_raises_at_config(self, spec):
        want = (r"^\[config\] classes num_distractors must be an integer >= 0 and below 2\*\*63, "
                r"got -3$")
        with pytest.raises(PipelineError, match=want):
            base_config(classes=spec)

    def test_to_dict_leaves_out_unset_optional_fields(self):
        payload = base_config().to_dict()
        assert "bc" not in payload and "w_order" not in payload
        assert ExperimentConfig.from_dict({**payload, "w_order": []}).w_order is None


MDP_SPEC = {"kind": "random", "num_states": 5, "num_actions": 3, "gamma": 0.8, "seed": 2}
CLASSES_SPEC = {"kind": "realizable", "num_distractors": 6, "seed": 0}


class TestConfigEdges:
    """Each edge value fails at config, read from JSON as ``pro-rl solve`` reads it.

    Under ``no_solver``, so a value the config check misses fails at a later
    stage instead of running a solver: m_f = inf once hung inside LAPACK.
    """

    @pytest.mark.parametrize(
        "over, want",
        [
            ({"reg": {"m_f": float("inf")}}, "m_f must be positive and finite"),
            ({"reg": {"m_f": float("-inf")}}, "m_f must be positive and finite"),
            ({"reg": {"m_f": float("nan")}}, "m_f must be positive and finite"),
            ({"mdp": {**MDP_SPEC, "num_states": 0}},
             r"mdp num_states must be an integer >= 1 and below 2\*\*63, got 0"),
            ({"mdp": {**MDP_SPEC, "num_actions": 0}},
             r"mdp num_actions must be an integer >= 1 and below 2\*\*63, got 0"),
            ({"mdp": {**MDP_SPEC, "num_states": -2}},
             r"mdp num_states must be an integer >= 1 and below 2\*\*63, got -2"),
            ({"n": True}, r"n must be an integer >= 1 and below 2\*\*63, got True"),
            ({"n0": True}, r"n0 must be an integer >= 1 and below 2\*\*63, got True"),
            ({"seed": True}, "seed must be an integer >= 0, got True"),
            ({"mdp": {**MDP_SPEC, "num_states": True}}, "mdp num_states must be an integer"),
            ({"mdp": {**MDP_SPEC, "seed": False}}, "mdp seed must be an integer"),
            ({"classes": {**CLASSES_SPEC, "num_distractors": True}},
             "classes num_distractors must be an integer"),
            ({"classes": {**CLASSES_SPEC, "seed": True}}, "classes seed must be an integer"),
            ({"n": 2500, "bc": {"n1": True}}, "bc n1 must be an integer"),
            ({"mdp": {"kind": "counterexample", "gamma": 0.5, "instance": True}},
             "mdp instance must be 1 or 2, got True"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"mdp": {**MDP_SPEC, "seed": -1}}, "mdp seed must be an integer >= 0, got -1"),
            ({"classes": {**CLASSES_SPEC, "seed": -1}},
             "classes seed must be an integer >= 0, got -1"),
            # each value below once ran as another value or failed after the config check
            ({"n0": 2.5}, r"n0 must be an integer >= 1 and below 2\*\*63, got 2.5"),
            ({"alpha": True}, "alpha must be nonnegative and finite, got True"),
            ({"reg": {"m_f": True}}, "reg m_f must be positive and finite, got True"),
            ({"mdp": {**MDP_SPEC, "kind": "mixing", "mixing": True}},
             r"mdp mixing must be in \(0, 1\], got True"),
            ({"classes": {"kind": "misspecified", "perturbation": True}},
             "classes perturbation must be nonnegative and finite, got True"),
            ({"variant": {"kind": "inexact", "eps_ov": True, "eps_ow": 0.1}},
             "variant eps_ov must be nonnegative, got True"),
            ({"variant": {"kind": "capped", "cap": True}},
             "variant cap must be at least 1 and finite, got True"),
            ({"variant": {"kind": "inexact", "eps_ov": -1, "eps_ow": 0.1}},
             "variant eps_ov must be nonnegative, got -1"),
            ({"variant": {"kind": "inexact", "eps_ov": float("nan"), "eps_ow": 0.1}},
             "variant eps_ov must be nonnegative, got nan"),
            ({"classes": {"kind": "misspecified", "perturbation": -0.1}},
             "classes perturbation must be nonnegative and finite, got -0.1"),
            ({"classes": {**CLASSES_SPEC, "num_distractors": -1}},
             r"classes num_distractors must be an integer >= 0 and below 2\*\*63, got -1"),
            ({"classes": {**CLASSES_SPEC, "num_distractors": 2.5}},
             r"classes num_distractors must be an integer >= 0 and below 2\*\*63, got 2.5"),
            ({"n": float("inf")}, r"n must be an integer >= 1 and below 2\*\*63, got inf"),
            ({"n": 2500, "bc": {"n1": -5}},
             r"bc n1 must be an integer >= 1 and below 2\*\*63, got -5"),
            ({"n": 2500, "bc": {"n1": 3000}},
             "bc n1 must be below n, .* got n1 = 3000 at n = 2500"),
            ({"seed": 2.5}, "seed must be an integer >= 0, got 2.5"),
            ({"mdp": {**MDP_SPEC, "seed": 2.5}}, "mdp seed must be an integer >= 0, got 2.5"),
            ({"mdp": {**MDP_SPEC, "num_states": float("inf")}},
             r"mdp num_states must be an integer >= 1 and below 2\*\*63, got inf"),
            ({"mdp": {**MDP_SPEC, "kind": "mixing", "mixing": 0}},
             r"mdp mixing must be in \(0, 1\], got 0"),
            ({"mdp": {"kind": "counterexample", "gamma": 0.5, "instance": 3}},
             "mdp instance must be 1 or 2, got 3"),
            ({"n": 2500, "bc": {"mix_grid": [2.0]}},
             r"bc mix_grid must be a list of numbers in \[0, 1\], got \[2.0\]"),
            ({"n": 2500, "bc": {"directions": "uniform"}},
             "bc directions must be a list of .*, got 'uniform'"),
            ({"alpha": 10**400}, "alpha must be nonnegative and finite, got 10{400}$"),
            ({"reg": {"m_f": 10**400}}, "reg m_f must be positive and finite, got 10{400}$"),
            ({"variant": {"kind": "capped", "cap": 10**400}},
             "variant cap must be at least 1 and finite, got 10{400}$"),
            # each size below once passed the config check and then spun in the counting loop
            # or failed to allocate: a size is below 2**63, np.intp's bound
            ({"n": 10**400},
             r"^\[config\] n must be an integer >= 1 and below 2\*\*63, got 10{400}$"),
            ({"n0": 2**63}, r"^\[config\] n0 must be an integer >= 1 and below 2\*\*63, "
                            r"got 9223372036854775808$"),
            ({"n": 2500, "bc": {"n1": 2**63}},
             r"^\[config\] bc n1 must be an integer >= 1 and below 2\*\*63, "
             r"got 9223372036854775808$"),
            ({"mdp": {**MDP_SPEC, "num_states": 2**63}},
             r"^\[config\] mdp num_states must be an integer >= 1 and below 2\*\*63, "
             r"got 9223372036854775808$"),
            ({"mdp": {**MDP_SPEC, "num_actions": 10**400}},
             r"^\[config\] mdp num_actions must be an integer >= 1 and below 2\*\*63, "
             r"got 10{400}$"),
            ({"classes": {**CLASSES_SPEC, "num_distractors": 2**63}},
             r"^\[config\] classes num_distractors must be an integer >= 0 and below 2\*\*63, "
             r"got 9223372036854775808$"),
        ],
        ids=["m_f_inf", "m_f_minus_inf", "m_f_nan", "zero_states", "zero_actions",
             "negative_states", "n_bool", "n0_bool", "seed_bool", "states_bool", "mdp_seed_bool",
             "distractors_bool", "classes_seed_bool", "n1_bool", "instance_bool", "negative_seed",
             "negative_mdp_seed", "negative_classes_seed", "n0_fraction", "alpha_bool",
             "m_f_bool", "mixing_bool", "perturbation_bool", "eps_ov_bool", "cap_bool",
             "negative_eps_ov", "eps_ov_nan", "negative_perturbation", "negative_distractors",
             "distractors_fraction", "n_inf", "negative_n1", "n1_above_n", "seed_fraction",
             "mdp_seed_fraction", "states_inf", "zero_mixing", "instance_3", "mix_grid_above_1",
             "directions_string", "alpha_beyond_float", "m_f_beyond_float", "cap_beyond_float",
             "n_beyond_float", "n0_at_2_63", "n1_at_2_63", "states_at_2_63",
             "actions_beyond_float", "distractors_at_2_63"],
    )
    def test_edge_value_fails_at_config(self, no_solver, over, want):
        payload = {**base_config().to_dict(), **over}
        with pytest.raises(PipelineError, match=want) as info:
            run_pro_rl(ExperimentConfig.from_dict(json.loads(json.dumps(payload))))
        assert info.value.stage == "config"

    @pytest.mark.parametrize(
        "over, want",
        [
            ({"classes": {**CLASSES_SPEC, "num_distractors": 2**40}},
             r"^\[config\] classes \(num_distractors \+ 1\)\*\*2, the entries of the payoff "
             r"matrix, must be at most 2\*\*31, got 1208925819616828197961729$"),
            ({"classes": {"kind": "misspecified", "perturbation": 0.1, "num_distractors": 46340}},
             r"^\[config\] classes \(num_distractors \+ 1\)\*\*2, .* got 2147488281$"),
            ({"mdp": {**MDP_SPEC, "num_states": 2**40}},
             r"^\[config\] mdp num_states\*\*2 \* num_actions, the entries of the counts "
             r"N\(s,a,s'\), must be at most 2\*\*31, got 3626777458843887524118528$"),
            ({"mdp": {**MDP_SPEC, "num_states": 26755, "num_actions": 3}},
             r"^\[config\] mdp num_states\*\*2 \* num_actions, .* got 2147490075$"),
        ],
        ids=["distractors_at_2_40", "distractors_past_2_31", "states_at_2_40", "states_past_2_31"],
    )
    def test_a_run_past_2_31_array_entries_fails_before_any_array(self, over, want):
        # num_distractors = 2**40 once passed config and then drew members until memory ran
        # out; num_states = 2**40 failed at [mdp] on numpy's allocation error. The config
        # alone is read here, so a check that let either through could not allocate
        payload = {**base_config().to_dict(), **over}
        with pytest.raises(PipelineError, match=want) as info:
            ExperimentConfig.from_dict(json.loads(json.dumps(payload)))
        assert info.value.stage == "config"

    @pytest.mark.parametrize("classes, mdp", [({"num_distractors": 46339}, {}),
                                              ({}, {"num_states": 26754, "num_actions": 3})],
                             ids=["distractors", "states"])
    def test_arrays_of_2_31_entries_pass_config(self, classes, mdp):
        payload = {**base_config().to_dict(), "classes": {**CLASSES_SPEC, **classes},
                   "mdp": {**MDP_SPEC, **mdp}}
        ExperimentConfig.from_dict(json.loads(json.dumps(payload)))

    @pytest.mark.parametrize("over", [{"seed": 2**63}, {"seed": 10**400},
                                      {"mdp": {**MDP_SPEC, "seed": 2**64}},
                                      {"classes": {**CLASSES_SPEC, "seed": 2**63}}],
                             ids=["seed", "seed_beyond_float", "mdp_seed", "classes_seed"])
    def test_seeds_stay_unbounded(self, over):
        ExperimentConfig.from_dict(json.loads(json.dumps({**base_config().to_dict(), **over})))


SMALL = dict(mdp={"kind": "random", "num_states": 4, "num_actions": 2, "gamma": 0.8, "seed": 1},
             data_dist={"kind": "uniform_policy"}, reg={"kind": "quadratic", "m_f": 1.0},
             alpha=0.3, n=60, n0=10, seed=0, delta=0.1,
             classes={"kind": "realizable", "num_distractors": 2, "seed": 0})
# a small config per (block, kind) whose keys the schema tests, every key written out
GRAMMAR_BASES = {
    ("", None): {},
    ("mdp", "random"): {},
    ("mdp", "mixing"): {"mdp": {**SMALL["mdp"], "kind": "mixing", "mixing": 0.5}},
    ("mdp", "counterexample"): {"mdp": {"kind": "counterexample", "gamma": 0.5, "instance": 1}},
    ("mdp", "inline"): {"mdp": {"kind": "inline", **random_mdp(3, 2, 0.8, seed=1).to_dict()}},
    ("reg", "quadratic"): {},
    ("variant", "inexact"): {"variant": {"kind": "inexact", "eps_ov": 0.05, "eps_ow": 0.05}},
    ("variant", "capped"): {"variant": {"kind": "capped", "cap": 3.0}},
    ("classes", "realizable"): {},
    ("classes", "misspecified"): {"classes": {"kind": "misspecified", "num_distractors": 2,
                                              "seed": 0, "perturbation": 0.1}},
    ("classes", "constrained"): {"classes": {"kind": "constrained", "num_distractors": 2,
                                             "seed": 0}},
    ("bc", "target_plus_mixes"): {"bc": {"kind": "target_plus_mixes", "n1": 50,
                                         "mix_grid": [0.5], "directions": ["uniform"]}},
}
GRAMMAR = [(block, kind, key) for block, kinds in pipelines._BLOCK_KEYS.items()
           for kind, keys in kinds.items() for key, (test, _, _) in keys.items()
           if test is not None]  # a test of None: the key's reader checks it
BASE = object()  # the base config's own value
VALUES = [0, -1, 2.5, float("nan"), float("inf"), float("-inf"), True, "a string", 10**400, 2**63]


class TestConfigGrammar:
    def test_every_tested_key_has_a_base_config(self):
        assert {(block, kind) for block, kind, _ in GRAMMAR} == set(GRAMMAR_BASES)

    @settings(max_examples=200)
    @given(where=st.sampled_from(GRAMMAR), value=st.sampled_from(
        [BASE, *VALUES, *([v] for v in VALUES)]))  # a list where a number is read, or a list key
    def test_a_value_runs_or_fails_at_config(self, where, value):
        """Any value of any key either runs at a small size or fails at ``config``.

        The config is read from JSON, as ``pro-rl solve`` reads it. Memory per unit: a run
        holds S^2 A transition counts and |V| |W| payoff entries, 8 bytes each (here S <= 4,
        A = 2 and |V| = |W| = 3).
        """
        block, _, key = where
        payload = {**SMALL, **GRAMMAR_BASES[where[:2]]}
        if value is not BASE and block:
            payload[block] = {**payload[block], key: value}
        elif value is not BASE:
            payload[key] = value
        try:
            cfg = ExperimentConfig.from_dict(json.loads(json.dumps(payload)))
        except PipelineError as err:
            assert err.stage == "config"
        else:  # any failure from here on is a value that the config let through
            assert run_pro_rl(cfg).n == cfg.n


class TestResolvers:
    def test_inline_mdp_round_trip(self):
        mdp = random_mdp(4, 2, 0.7, seed=9)
        spec = {"kind": "inline", **mdp.to_dict()}
        again = resolve_mdp(spec)
        np.testing.assert_allclose(again.transition, mdp.transition)
        np.testing.assert_allclose(again.reward, mdp.reward)
        assert again.gamma == mdp.gamma

    def test_unknown_mdp_kind(self):
        with pytest.raises(PipelineError, match="mdp kind"):
            resolve_mdp({"kind": "bogus"})

    def test_explicit_data_dist_shape_check(self):
        mdp = random_mdp(3, 2, 0.8, seed=0)
        with pytest.raises(PipelineError, match="shape"):
            resolve_data_dist(mdp, {"kind": "explicit", "mass": [[0.5, 0.5]]})

    def test_behavior_policy_shape_must_match_the_mdp(self):
        with pytest.raises(PipelineError, match=r"policy shape \(1, 3\) .* \(5, 3\)") as info:
            prepare(base_config(data_dist={"kind": "policy", "probs": [[1.0, 0.0, 0.0]]}))
        assert info.value.stage == "data_dist"

    @pytest.mark.parametrize("block, key, want", [
        ("mdp", "reward", "rewards"), ("mdp", "transition", "sum to 1"),
        ("mdp", "init_dist", "init_dist"), ("data_dist", "probs", "policy probabilities")])
    def test_a_nan_in_a_config_file_fails_at_its_block(self, block, key, want, tmp_path):
        # json.load reads NaN literals, and the MDP and policy checks once let each through
        specs = {"mdp": {"kind": "inline", **random_mdp(3, 2, 0.8, seed=1).to_dict()},
                 "data_dist": {"kind": "policy", "probs": [[0.5, 0.5]] * 3}}
        table = np.array(specs[block][key])
        table.flat[0] = np.nan
        specs[block][key] = table.tolist()
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**base_config().to_dict(), **specs}))
        with pytest.raises(PipelineError, match=want) as info:
            run_pro_rl(ExperimentConfig.from_json(str(path)))
        assert info.value.stage == block

    def test_explicit_data_dist_must_normalize(self):
        mdp = random_mdp(3, 2, 0.8, seed=0)
        mass = np.full((3, 2), 0.2)
        with pytest.raises(PipelineError, match="distribution"):
            resolve_data_dist(mdp, {"kind": "explicit", "mass": mass.tolist()})

    def test_explicit_data_dist_conditional_policy(self):
        mdp = random_mdp(3, 2, 0.8, seed=0)
        mass = np.zeros((3, 2))
        mass[0, 0] = 0.75
        mass[1, 1] = 0.25
        dd, pi_d = resolve_data_dist(mdp, {"kind": "explicit", "mass": mass.tolist()})
        np.testing.assert_allclose(dd, mass)
        np.testing.assert_allclose(pi_d.probs[0], [1.0, 0.0])
        np.testing.assert_allclose(pi_d.probs[2], [0.5, 0.5])  # uniform fallback


class TestRunProRl:
    def test_report_row_matches_header(self):
        report = run_pro_rl(base_config())
        assert len(report.to_row()) == len(CSV_HEADER)
        assert tuple(report.to_dict()) == CSV_HEADER
        assert ",".join(CSV_HEADER) == ROWS_HEADER  # the rows.csv header is a published format

    @pytest.mark.parametrize(
        "bc", [None, {"n1": 2000, "kind": "target_plus_mixes"}], ids=["plain", "bc"]
    )
    def test_bound_columns_match_the_formulas(self, bc):
        cfg = base_config(n=2500, bc=bc)
        report = run_pro_rl(cfg)
        reg = Regularizer(m_f=cfg.reg["m_f"])
        n_fit = 2000 if bc else 2500
        eps = stat_error(n_fit, cfg.n0, cfg.alpha, report.b_w, reg.bounds(report.b_w)[0],
                         report.b_v, residual_bound(report.b_v, 0.8), (7, 7), cfg.delta, gamma=0.8)
        assert report.eps_stat == eps
        assert report.rhs_perf_bound == performance_gap_bound(eps, cfg.alpha, reg.m_f, 0.8)
        assert report.rhs_realized == performance_gap_bound(report.eps_hat, cfg.alpha, reg.m_f, 0.8)

    def test_alpha_zero_gap_bounds_are_empty(self):
        report = run_pro_rl(RUN_VARIANTS["alpha_zero"]())
        assert 0.0 < report.eps_stat < float("inf")
        assert report.rhs_perf_bound is None and report.rhs_realized is None

    def test_deterministic_given_config(self):
        a = run_pro_rl(base_config(seed=5))
        b = run_pro_rl(base_config(seed=5))
        assert a.to_row() == b.to_row()

    def test_seed_changes_dataset(self):
        values = {run_pro_rl(base_config(seed=s)).eps_hat for s in range(3)}
        assert len(values) > 1

    def test_gap_chain_and_sanity(self):
        gamma = 0.8
        report = run_pro_rl(base_config(seed=3))
        assert report.j_star_alpha <= report.j_star_zero + 1e-9
        assert report.j_ref == pytest.approx(report.j_star_alpha, abs=1e-12)
        mid = report.pi_l1 / (1 - gamma)
        assert report.gap_ref <= mid + 1e-9
        assert mid <= 2 * report.w_dev / (1 - gamma) + 1e-9
        assert report.w_max <= report.b_w + 1e-9
        assert report.kkt_residual < 1e-8
        assert report.rhs_realized >= 0.0
        assert report.n2 is None and report.pi_l1_bc is None

    def test_realizable_classes_have_zero_approximation_error(self):
        report = run_pro_rl(base_config(seed=1))
        assert report.eps_rv == 0.0 and report.eps_rw == 0.0

    def test_misspecified_classes_report_approximation_error(self):
        report = run_pro_rl(
            base_config(
                classes={
                    "kind": "misspecified",
                    "perturbation": 0.1,
                    "num_distractors": 4,
                    "seed": 1,
                }
            )
        )
        assert report.eps_rv > 0.0 and report.eps_rw > 0.0

    def test_inexact_variant_reports_achieved_slacks(self):
        # the solver draws among qualifying pairs, so the achieved slacks are
        # bounded by the requested ones but need not equal them
        reports = [
            run_pro_rl(
                base_config(
                    seed=s, variant={"kind": "inexact", "eps_ov": 0.05, "eps_ow": 0.05}
                )
            )
            for s in range(4)
        ]
        for report in reports:
            assert report.variant == "inexact"
            assert 0.0 <= report.eps_ov <= 0.05 + 1e-12
            assert 0.0 <= report.eps_ow <= 0.05 + 1e-12
        again = run_pro_rl(
            base_config(seed=0, variant={"kind": "inexact", "eps_ov": 0.05, "eps_ow": 0.05})
        )
        assert again.to_row() == reports[0].to_row()

    def test_capped_reference_matches_oracle(self):
        fx = capped_fixture()
        cfg = ExperimentConfig(
            mdp=fx["mdp"],
            data_dist=fx["data_dist"],
            reg=fx["reg"],
            alpha=0.1,
            n=800,
            n0=80,
            seed=0,
            classes={"kind": "constrained", "num_distractors": 4, "seed": 0},
            variant={"kind": "capped", "cap": fx["cap"]},
        )
        report = run_pro_rl(cfg)
        mdp = resolve_mdp(fx["mdp"])
        dd, _ = resolve_data_dist(mdp, fx["data_dist"])
        j_cap, _ = capped_unregularized_value(mdp, dd, fx["cap"])
        assert report.j_ref == pytest.approx(j_cap, abs=1e-10)
        assert report.rhs_capped is not None and report.rhs_capped > 0
        assert report.w_max <= fx["cap"] + 1e-9

    def test_exact_frequency_dataset_kills_deviation(self):
        # exact per-cell frequencies make the empirical objective equal the
        # population one, so the realized class deviation collapses to zero
        fx = counterexample_fixture()
        cfg = ExperimentConfig(
            mdp=fx["mdp"],
            data_dist=fx["data_dist"],
            reg=fx["reg"],
            alpha=0.0,
            n=12,
            n0=2,
            seed=0,
            classes=fx["classes"],
            variant={"kind": "alpha_zero"},
            dataset={"kind": "exact_frequency"},
        )
        report = run_pro_rl(cfg)
        assert (report.n, report.n0) == (12, 2)
        assert report.eps_hat < 1e-12

    @pytest.mark.parametrize("n, n0", [(6, 1), (10**5, 777)])
    def test_exact_frequency_run_on_a_stochastic_mdp(self, n, n0):
        # the law's own counts exist on any MDP, so the empirical payoff matrix is the
        # population one at every n and n0 and the realizable target wins
        cfg = base_config(mdp={"kind": "random", "num_states": 5, "num_actions": 3,
                               "gamma": 0.8, "seed": 4},
                          n=n, n0=n0, dataset={"kind": "exact_frequency"})
        report = run_pro_rl(cfg)
        assert (report.n, report.n0) == (n, n0)
        assert report.eps_hat <= 1e-12
        assert report.w_index == 0 and report.w_dev == 0.0


class TestStaged:
    def test_foreign_errors_are_wrapped_with_the_stage(self):
        with pytest.raises(PipelineError, match=r"^\[saddle\] boom$") as info:
            with _staged("saddle"):
                raise ValueError("boom")
        assert info.value.stage == "saddle"
        assert isinstance(info.value.__cause__, ValueError)

    def test_pipeline_errors_pass_through(self):
        inner = PipelineError("dataset", "split")
        with pytest.raises(PipelineError) as info:
            with _staged("saddle"):
                raise inner
        assert info.value is inner


class TestRunProRlBc:
    def test_requires_bc_settings(self):
        with pytest.raises(PipelineError, match="bc settings"):
            run_pro_rl_bc(base_config())

    def test_splits_and_reports_cloning_fields(self):
        cfg = base_config(
            n=2500,
            bc={
                "n1": 2000,
                "kind": "target_plus_mixes",
                "mix_grid": [0.1, 0.4],
                "directions": ["uniform", "roll1"],
            },
        )
        report = run_pro_rl_bc(cfg)
        assert report.n2 == 500
        assert report.pi_l1_bc is not None and report.pi_l1_bc >= 0.0
        assert report.bc_sample_term > 0.0

    def test_unknown_mix_direction(self):
        with pytest.raises(PipelineError, match="direction") as info:
            base_config(
                n=2500,
                bc={"n1": 2000, "kind": "target_plus_mixes", "directions": ["sideways"]},
            )
        assert info.value.stage == "config"

    def test_empty_cloning_split_rejected(self):
        # bc n1 defaults to 90 % of n, which rounds to n at n = 4
        for n, bc in ((2000, {"n1": 2000}), (4, {})):
            with pytest.raises(PipelineError, match="cloning split") as info:
                base_config(n=n, bc={"kind": "target_plus_mixes", **bc})
            assert info.value.stage == "config"


def _capped_config():
    fx = capped_fixture()
    return base_config(
        mdp=fx["mdp"],
        data_dist=fx["data_dist"],
        alpha=0.1,
        classes={"kind": "constrained", "num_distractors": 4, "seed": 0},
        variant={"kind": "capped", "cap": fx["cap"]},
    )


def _counterexample_config(alpha, variant):
    fx = counterexample_fixture()
    return base_config(
        mdp=fx["mdp"],
        data_dist=fx["data_dist"],
        alpha=alpha,
        n=6,
        n0=1,
        classes=fx["classes"],
        variant=variant,
        dataset={"kind": "exact_frequency"},
    )


RUN_VARIANTS = {
    "realizable": base_config,
    "misspecified": lambda: base_config(
        classes={"kind": "misspecified", "perturbation": 0.1, "num_distractors": 4, "seed": 1}
    ),
    "constrained": lambda: base_config(classes={"kind": "constrained", "num_distractors": 4}),
    "explicit": lambda: _counterexample_config(0.3, {"kind": "plain"}),
    "capped": _capped_config,
    "inexact": lambda: base_config(variant={"kind": "inexact", "eps_ov": 0.05, "eps_ow": 0.05}),
    "alpha_zero": lambda: base_config(
        alpha=0.0,
        variant={"kind": "alpha_zero"},
        classes={"kind": "constrained", "num_distractors": 4},
    ),
    "alpha_zero_explicit": lambda: _counterexample_config(0.0, {"kind": "alpha_zero"}),
    "bc": lambda: base_config(
        n=2500, bc={"n1": 2000, "kind": "target_plus_mixes", "mix_grid": [0.1, 0.4]}
    ),
}


# config_hash of each RUN_VARIANTS entry; rows.csv publishes these
RUN_VARIANT_HASHES = {
    "alpha_zero": "741a6d2761e9",
    "alpha_zero_explicit": "03ca0bd6b509",
    "bc": "3d27175148fa",
    "capped": "119701601be0",
    "constrained": "ff3702fe4e5c",
    "explicit": "fc261dd045d5",
    "inexact": "cc80328f1d89",
    "misspecified": "9dda9c1a549b",
    "realizable": "5cd03e8a4ffd",
}


class TestConfigRoundTrip:
    @pytest.mark.parametrize("variant", sorted(RUN_VARIANTS))
    def test_from_dict_inverts_to_dict(self, variant):
        cfg = RUN_VARIANTS[variant]()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash == cfg.config_hash == RUN_VARIANT_HASHES[variant]


class TestEachStepOncePerRun:
    """One oracle solve of each kind and one payoff-matrix build per run.

    The counters wrap the names in prorl.pipelines and in every other prorl
    namespace that binds the same function, so a second build anywhere in
    the package is seen.
    """

    COUNTED = ("empirical_lagrangian_members", "solve_regularized", "solve_unregularized")

    def count_calls(self, monkeypatch, names=COUNTED, source=pipelines) -> Counter:
        counts = Counter()
        for name in names:
            original = getattr(source, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "prorl" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("variant", sorted(RUN_VARIANTS))
    def test_counts(self, variant, monkeypatch):
        cfg = RUN_VARIANTS[variant]()
        counts = self.count_calls(monkeypatch)
        inst = prepare(cfg)
        assert counts["empirical_lagrangian_members"] == 1  # the population one, at the law's counts
        run_pro_rl(cfg, inst)
        assert counts["empirical_lagrangian_members"] == 1 + 1
        assert counts["solve_regularized"] <= 1
        assert counts["solve_unregularized"] <= 1

    def test_realizable_run_solves_the_oracle(self, monkeypatch):
        # the counters are live: the one reference solve is seen
        counts = self.count_calls(monkeypatch)
        run_pro_rl(base_config())
        assert counts["solve_regularized"] == 1

    def test_bc_suite_builds_the_witness_set_once(self, monkeypatch, tmp_path):
        # every run of the suite clones over the same policy class
        counts = self.count_calls(monkeypatch, ("witness_class",), source=classes)
        run_experiment_suite(
            "bc_scaling", str(tmp_path), n2_grid=(300, 600), num_seeds=2, n1=4000
        )
        assert counts["witness_class"] == 1

    @pytest.mark.parametrize(
        "suite, overrides, want",
        [
            ("counterexample", {},
             {"solve_unregularized": 2, "population_lagrangian_members": 2}),
            ("constrained_coverage", {"num_seeds": 2, "n": 400},
             {"solve_unregularized": 1, "capped_unregularized_value": 1}),
            ("alpha_zero_strong", {"n_grid": [100, 300], "num_seeds": 2},
             {"solve_unregularized": 1}),
            ("bc_scaling", {"n2_grid": [300, 600], "num_seeds": 2, "n1": 4000},
             {"_resolve_policy_class": 1}),
        ],
        ids=["counterexample", "constrained_coverage", "alpha_zero_strong", "bc_scaling"],
    )
    def test_suite_reads_seed_free_quantities_from_its_instances(
        self, suite, overrides, want, monkeypatch, tmp_path
    ):
        # one call per distinct instance, from prepare (grid points that
        # differ only in n, or in counterexample's weight order, share one);
        # constrained_coverage reads its capped LP value from the instance
        counts = self.count_calls(monkeypatch, tuple(want))
        run_experiment_suite(suite, str(tmp_path), **overrides)
        assert dict(counts) == want

    def test_cloning_run_reuses_the_instance_policy_class(self, monkeypatch):
        cfg = RUN_VARIANTS["bc"]()
        inst = prepare(cfg)
        assert len(inst.policies) == 1 + 2  # the target and its two uniform mixes
        counts = self.count_calls(monkeypatch, ("_resolve_policy_class",))
        run_pro_rl(cfg, inst)
        assert counts["_resolve_policy_class"] == 0
        assert prepare(base_config()).policies is None

    def test_suite_prepares_each_grid_point_once(self, monkeypatch, tmp_path):
        names = ("solve_regularized", "population_lagrangian_members",
                 "empirical_lagrangian_members")
        counts = self.count_calls(monkeypatch, names)
        run_experiment_suite("rate_regularized", str(tmp_path), n_grid=[100, 300], num_seeds=3)
        # the fixture's own solve, then one for the instance both grid points share
        assert counts["solve_regularized"] == 1 + 1
        assert counts["population_lagrangian_members"] == 1
        # the population matrix, at the law's counts, then one per run
        assert counts["empirical_lagrangian_members"] == 1 + 2 * 3

    def test_cloning_guard_matches_single_driver(self):
        cfg = RUN_VARIANTS["bc"]()
        assert run_pro_rl(cfg).to_row() == run_pro_rl_bc(cfg).to_row()


class TestPrepareOnce:
    """prepare() holds the seed- and size-free part of a run; runs at any seed, n and n0 reuse it."""

    @pytest.mark.parametrize("variant", sorted(RUN_VARIANTS))
    def test_instance_from_another_seed_gives_the_same_row(self, variant):
        cfg = RUN_VARIANTS[variant]()
        inst = prepare(replace(cfg, seed=cfg.seed + 7, n=cfg.n + 11, n0=cfg.n0 + 3))
        assert run_pro_rl(cfg, inst).to_row() == run_pro_rl(cfg).to_row()

    @pytest.mark.parametrize(
        "change",
        [{"alpha": 0.2}, {"classes": {"kind": "realizable", "num_distractors": 5, "seed": 0}},
         {"variant": {"kind": "inexact", "eps_ov": 0.05, "eps_ow": 0.05}}],
        ids=["alpha", "classes", "variant"],
    )
    def test_instance_from_a_different_config_is_rejected(self, change):
        inst = prepare(base_config())
        with pytest.raises(PipelineError, match="differs in more than seed, n and n0") as info:
            run_pro_rl(base_config(**change), inst)
        assert info.value.stage == "config"

    def test_cloning_driver_checks_the_instance_too(self):
        cfg = RUN_VARIANTS["bc"]()
        with pytest.raises(PipelineError, match="differs in more than seed, n and n0"):
            run_pro_rl_bc(cfg, prepare(replace(cfg, bc={**cfg.bc, "n1": 1900})))

    @pytest.mark.parametrize("seed", [0, 2, 5], ids=["classes_seed", "mdp_seed", "other"])
    def test_spliced_hash_matches_the_config_hash(self, seed):
        # base_config's mdp spec has seed 2 and its classes spec seed 0; n and
        # n0 take values that also sit in nested blocks (num_states 5, seed 2)
        inst = prepare(base_config(seed=9, n=77, n0=13))
        for n in (1, 2, 5, 1500, 10**6):
            for n0 in (1, 2, 300):
                cfg = base_config(seed=seed, n=n, n0=n0)
                assert inst.config_hash(cfg) == cfg.config_hash
        cfg = base_config(seed=seed)
        assert run_pro_rl(cfg, inst).config_hash == cfg.config_hash

    @pytest.mark.parametrize("variant", sorted(RUN_VARIANTS))
    def test_spliced_hash_matches_every_variant(self, variant):
        # bc sorts before n and w_order after seed
        cfg = RUN_VARIANTS[variant]()
        inst = prepare(replace(cfg, seed=3, n=cfg.n + 1, n0=cfg.n0 + 1))
        assert inst.config_hash(cfg) == cfg.config_hash == RUN_VARIANT_HASHES[variant]

    @pytest.mark.parametrize("w_order", [None, (1, 0)], ids=["unset", "set"])
    def test_spliced_hash_matches_with_and_without_w_order(self, w_order):
        # w_order is a run field: an instance prepared at the other order serves cfg
        cfg = replace(RUN_VARIANTS["explicit"](), w_order=w_order)
        inst = prepare(replace(cfg, seed=4, w_order=(1, 0) if w_order is None else None))
        assert inst.serves(cfg)
        assert inst.config_hash(cfg) == cfg.config_hash
        assert run_pro_rl(cfg, inst).to_row() == run_pro_rl(cfg).to_row()

    def test_spliced_hash_matches_for_values_that_are_not_ints(self):
        # a JSON file may write a whole number as a float; from_dict reads it as an int
        inst, payload = prepare(base_config()), base_config().to_dict()
        for over in ({"n": 1500.0}, {"n0": 300.0, "seed": 3.0}):
            cfg = ExperimentConfig.from_dict({**payload, **over})
            assert inst.config_hash(cfg) == cfg.config_hash == base_config(**{
                k: int(v) for k, v in over.items()}).config_hash

    def test_instance_sampler_draws_what_a_fresh_sampler_draws(self):
        inst = prepare(base_config())
        assert isinstance(inst.dataset, DatasetSampler)
        for n, n0, seed in ((1500, 300, 0), (40, 7, 12)):
            got = inst.dataset.draw(n, n0, seed)
            want = DatasetSampler(inst.mdp, inst.dd).draw(n, n0, seed)
            for name in ("states", "actions", "rewards", "next_states", "init_states"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        # an exact-frequency run reads the law's counts, and the instance holds no sampler
        assert prepare(RUN_VARIANTS["explicit"]()).dataset is None

    def test_grid_points_that_differ_in_size_share_one_instance(self, tmp_path):
        fx = rate_regularized_fixture()
        base = {k: fx[k] for k in ("mdp", "data_dist", "reg", "classes")}
        alpha = fx["alpha"]
        points = {1: {"n": 50, "n0": 50, "alpha": alpha}, 2: {"n": 80, "n0": 8, "alpha": alpha},
                  3: {"n": 50, "n0": 50, "alpha": alpha / 2}}
        instances = _sweep("test", str(tmp_path), 0, 2, base, points, lambda _, inst: inst)
        assert instances[1] is instances[2] is not instances[3]

    @pytest.mark.parametrize("variant", ["realizable", "bc"])
    def test_sampled_runs_hold_no_per_transition_array(self, variant):
        # the dataset stage counts the draws block by block, the bc cut included
        cfg = replace(RUN_VARIANTS[variant](), n=1_000_000, n0=1_000_000)
        if cfg.bc is not None:
            cfg = replace(cfg, bc={**cfg.bc, "n1": 600_000})
        inst = prepare(cfg)
        tracemalloc.start()
        report = run_pro_rl(cfg, inst)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2 * 2**20  # one column of 1e6 int64 alone is 7.6 MiB
        assert report.n == 1_000_000 and report.n2 == (None if cfg.bc is None else 400_000)


class TestSharedCounts:
    """Instances on one (MDP, d^D) share a sampler, which bins each dataset once in a row."""

    @pytest.mark.parametrize("num_seeds", [1, 3])
    def test_robustness_bins_one_dataset_per_seed(self, num_seeds, monkeypatch, tmp_path):
        # its 6 grid points share the MDP, d^D, n and n0, and the sweep runs them seed by seed
        passes, calls, uniforms, count = [], [], datasets._Uniforms, DatasetSampler.count

        def binned(seed):  # a count bins what one stream of uniforms draws
            passes.append(seed)
            return uniforms(seed)

        def counted(self, *args):
            calls.append(args)
            return count(self, *args)

        monkeypatch.setattr(datasets, "_Uniforms", binned)
        monkeypatch.setattr(DatasetSampler, "count", counted)
        run_experiment_suite("robustness", str(tmp_path), seed=4, num_seeds=num_seeds)
        assert len(calls) == 6 * num_seeds
        assert sorted(passes) == [4 + s for s in range(num_seeds)]

    def test_runs_of_a_warm_sweep_bin_nothing(self, monkeypatch, tmp_path):
        # the sweep counts each seed's sizes in one pass before its runs, so no run looks up
        # a draw: bc_scaling's points share their fit cells, rate_regularized's n their cells
        grids = {name: TestInstanceRegistry.GRIDS[name]
                 for name in ("bc_scaling", "rate_regularized")}
        for name, grid in grids.items():  # cold: prepares the instances and samplers
            run_experiment_suite(name, str(tmp_path / "cold" / name), seed=0, **grid)
        lookups, in_run, lookup = Counter(), [False], datasets._GuideTable.lookup

        def counted(self, *args):
            lookups["in a run" if in_run[0] else "outside runs"] += 1
            return lookup(self, *args)

        def as_run(drive):
            def run(*args):
                in_run[0] = True
                try:
                    return drive(*args)
                finally:
                    in_run[0] = False
            return run

        monkeypatch.setattr(datasets._GuideTable, "lookup", counted)
        for name in ("run_pro_rl", "run_pro_rl_bc"):
            monkeypatch.setattr(suites, name, as_run(getattr(suites, name)))
        for name, grid in grids.items():
            run_experiment_suite(name, str(tmp_path / "warm" / name), seed=1, **grid)
        assert lookups["outside runs"] > 0 and lookups["in a run"] == 0

    def test_equal_data_laws_share_one_sampler(self):
        inst = prepare(base_config())
        for over in ({"alpha": 0.5}, {"classes": RUN_VARIANTS["misspecified"]().classes},
                     {"variant": {"kind": "inexact", "eps_ov": 0.1, "eps_ow": 0.1}}):
            assert prepare(base_config(**over)).dataset is inst.dataset
        for over in ({"mdp": {**base_config().mdp, "seed": 3}},
                     {"data_dist": {"kind": "explicit", "mass": np.full((5, 3), 1 / 15).tolist()}}):
            other = prepare(base_config(**over))
            assert isinstance(other.dataset, DatasetSampler) and other.dataset is not inst.dataset

    def test_a_shared_sampler_gives_each_instance_its_own_rows(self):
        # the kept counts serve a second instance at the same key, as a fresh count would
        cfgs = [base_config(), base_config(alpha=0.5)]
        insts = [prepare(cfg) for cfg in cfgs]
        rows = [run_pro_rl(cfg, inst).to_row() for cfg, inst in zip(cfgs, insts)]
        pipelines._registry.clear()
        assert [run_pro_rl(cfg).to_row() for cfg in reversed(cfgs)] == rows[::-1]


def _suite_config(name):
    """One run's config of the rate_regularized, bc_scaling or counterexample suite."""
    if name == "counterexample":
        fx = counterexample_fixture()
        return ExperimentConfig(**{k: fx[k] for k in ("mdp", "data_dist", "reg", "classes")},
                                alpha=0.0, n=6, n0=1, seed=0, variant={"kind": "alpha_zero"},
                                dataset={"kind": "exact_frequency"})
    fx = rate_regularized_fixture() if name == "rate_regularized" else bc_fixture(4000)
    keys = ("mdp", "data_dist", "reg", "alpha", "classes") + (("bc",) if "bc" in fx else ())
    return ExperimentConfig(**{k: fx[k] for k in keys}, n=4300, n0=2000, seed=0)


class TestMemberScores:
    """A run reads its weight member's scores from the instance, which scores each member once."""

    @pytest.mark.parametrize("suite", ["rate_regularized", "bc_scaling", "counterexample"])
    def test_memoized_scores_equal_the_direct_ones(self, suite):
        inst = prepare(_suite_config(suite))
        for index, w in enumerate(inst.wc.members):
            pi = extract_policy(w, inst.pi_d)
            want = (policy_return(inst.mdp, pi), pipelines._policy_l1(inst, pi),
                    weighted_l2(w, inst.w_ref, inst.dd), float(np.asarray(w).max()))
            for _ in range(2):  # scored on the first read, memoized on the second
                got = inst.member_scores(index)
                assert [x.hex() for x in got] == [x.hex() for x in want]  # bit for bit

    @pytest.mark.parametrize("variant", ["realizable", "inexact", "bc"])
    def test_a_run_on_a_scored_member_extracts_nothing(self, variant, monkeypatch):
        cfg = RUN_VARIANTS[variant]()
        inst = prepare(cfg)
        first = run_pro_rl(cfg, inst)
        counts = TestEachStepOncePerRun().count_calls(
            monkeypatch, ("extract_policy", "policy_return"))
        contractions = []
        einsum = np.einsum

        def counted_einsum(subscripts, *operands, **kwargs):
            if subscripts == "hsa,sa->hs":  # a policy's witness contraction h^pi
                contractions.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counted_einsum)
        assert run_pro_rl(cfg, inst).to_row() == first.to_row()
        assert dict(counts) == {} and contractions == []

    @pytest.mark.parametrize(
        "suite, overrides",
        [("rate_regularized", {"n_grid": [100, 300], "num_seeds": 4}),
         ("bc_scaling", {"n2_grid": [300, 600], "num_seeds": 3, "n1": 4000})],
        ids=["rate_regularized", "bc_scaling"],
    )
    def test_suite_scores_each_picked_member_once(self, suite, overrides, monkeypatch, tmp_path):
        # each suite has one instance, so every distinct pick is scored once
        counts = TestEachStepOncePerRun().count_calls(monkeypatch, ("policy_return",))
        run_experiment_suite(suite, str(tmp_path), **overrides)
        rows = (tmp_path / "rows.csv").read_text().splitlines()
        column = rows[0].split(",").index("w_index")
        picks = {row.split(",")[column] for row in rows[1:]}
        assert len(rows) - 1 > len(picks) >= 1  # some runs pick a member already scored
        assert counts["policy_return"] <= len(picks)


class TestInitialStateCount:
    def test_sampled_dataset_needs_initial_states(self):
        # exact-frequency data needs initial states too
        for cfg in (base_config(), _counterexample_config(0.3, {"kind": "plain"})):
            with pytest.raises(PipelineError, match="n0 must be an integer >= 1") as info:
                replace(cfg, n0=0)
            assert info.value.stage == "config"

    def test_stat_error_reads_the_fitted_datasets_initial_states(self):
        cfg = replace(_counterexample_config(0.3, {"kind": "plain"}), n=18, n0=3)
        report = run_pro_rl(cfg)
        reg = Regularizer(m_f=cfg.reg["m_f"])
        gamma = 0.5
        sizes = (1, 2)  # the counterexample's value and weight classes

        def eps(n0):
            return stat_error(report.n, n0, cfg.alpha, report.b_w, reg.bounds(report.b_w)[0],
                              report.b_v, residual_bound(report.b_v, gamma), sizes, cfg.delta,
                              gamma=gamma)

        assert report.n == 18 and report.n0 == 3  # the fitted data's, which the config names
        assert report.eps_stat == eps(3) != eps(1)


def _arrays(obj, seen):
    """Every ndarray reachable from obj through attributes, tuples, lists and dict values."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), seen)


class TestInstanceRegistry:
    """prepare() builds each seed-free instance once per process and keeps the most recent."""

    GRIDS = {  # every suite, at grids small enough for Tier-1
        "counterexample": {},
        "rate_regularized": {"n_grid": [100, 300], "num_seeds": 2},
        "rate_unregularized": {"n_grid": [500, 1000], "num_seeds": 2},
        "lp_stability": {"alpha_grid": [0.2, 0.1, 0.05]},
        "constrained_coverage": {"num_seeds": 2, "n": 800},
        "alpha_zero_strong": {"n_grid": [200, 400], "num_seeds": 2},
        "bc_scaling": {"n2_grid": [300, 600], "num_seeds": 2, "n1": 4000},
        "robustness": {"perturbations": [0.0, 0.1], "oracle_errors": [0.0, 0.02], "num_seeds": 1},
    }
    def test_every_suite_is_covered(self):
        assert set(self.GRIDS) == set(SUITE_NAMES)

    @pytest.mark.parametrize("variant", sorted(RUN_VARIANTS))
    def test_every_array_an_instance_holds_is_read_only(self, variant):
        cfg = RUN_VARIANTS[variant]()
        inst = prepare(cfg)
        run_pro_rl(cfg)  # fills the memoized scores and counts too
        arrays = list(_arrays(inst, set()))
        named = (inst.dd, inst.pop, inst.w_ref, inst.d_ref_state, inst.pi_ref.probs,
                 inst.pi_d.probs, inst.mdp.reward, inst.wc.members[0], inst.vc.stack)
        assert {id(a) for a in named} <= {id(a) for a in arrays}
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("suite", sorted(GRIDS))
    def test_a_second_call_at_another_seed_prepares_nothing(self, suite, monkeypatch, tmp_path):
        counter = TestEachStepOncePerRun()
        solves = counter.count_calls(monkeypatch, (
            "solve_regularized", "solve_unregularized", "population_lagrangian_members"))
        lps = counter.count_calls(monkeypatch, (
            "_stability_solves", "min_f_divergence_weight", "capped_unregularized_value",
            "strong_concentrability_check"), source=suites)
        samplers = []
        build = DatasetSampler.__init__
        monkeypatch.setattr(DatasetSampler, "__init__",
                            lambda self, *args: samplers.append(build(self, *args)))
        run_experiment_suite(suite, str(tmp_path / "first"), seed=0, **self.GRIDS[suite])
        assert solves + lps  # the counters see the cold call
        for seen in (solves, lps, samplers):
            seen.clear()
        run_experiment_suite(suite, str(tmp_path / "second"), seed=1, **self.GRIDS[suite])
        assert (dict(solves), dict(lps), samplers) == ({}, {}, [])

    def test_every_array_a_memoized_suite_value_holds_is_read_only(self, tmp_path):
        for name in SUITE_NAMES:
            run_experiment_suite(name, str(tmp_path / name), **self.GRIDS[name])
        values = [v for v in pipelines._registry.values() if not isinstance(v, pipelines.Instance)]
        samplers = [v for v in values if isinstance(v, DatasetSampler)]
        # six fixtures (counterexample's at two instances), b_w0, the stability solves and their
        # limit, the coverage check, the capped LP and its policy's return; and one sampler
        # per (MDP, d^D) of the six sampled suites
        assert len(values) - len(samplers) == 13 and len(samplers) == 6
        arrays = list(_arrays([v for v in values if v not in samplers], set()))
        # the stability fixture's 5, its solves' 3, its limit weight and the capped occupancy
        assert len(arrays) == 10
        # per sampler: three tables of 2, reward, d^D and the empty part's zeros; and the last
        # seed's kept fit and held counts, whose held transitions are those zeros when the held
        # part is empty
        for sampler in samplers:
            kept = sampler._kept
            assert kept and len({seed for _, _, seed, _ in kept}) == 1
            for (n, n0, _, n1), (fit, held) in kept.items():
                assert (fit.n, fit.n0, held.n, held.n0) == (n1, n0, n - n1, 0)
                assert (held.transitions is sampler._no_transitions) == (n1 == n)
            counts = {id(a) for parts in kept.values() for part in parts for a in part[3:]}
            reached = list(_arrays(sampler, set()))
            assert len(reached) == 9 + len(counts - {id(sampler._no_transitions)})
            assert counts <= {id(a) for a in reached}
            arrays += reached
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_warm_runs_write_the_cold_bytes(self, tmp_path):
        def artifacts(name, seed, out):
            run_experiment_suite(name, str(out), seed=seed, **self.GRIDS[name])
            return [(out / artifact).read_bytes() for artifact in ("rows.csv", "summary.json")]

        cold = {}
        for name in SUITE_NAMES:
            for seed in (0, 1):
                pipelines._registry.clear()
                cold[name, seed] = artifacts(name, seed, tmp_path / f"cold_{name}_{seed}")
        pipelines._registry.clear()
        for i, seed in enumerate((0, 1, 0)):  # every suite in one process, one registry
            for name in SUITE_NAMES:
                got = artifacts(name, seed, tmp_path / f"warm{i}_{name}")
                assert got == cold[name, seed], (name, seed)

    def test_one_config_past_the_bound_evicts_the_least_recently_used(self):
        size = pipelines._REGISTRY_SIZE
        cfgs = [base_config(mdp={"kind": "random", "num_states": 2, "num_actions": 2,
                                 "gamma": 0.5, "seed": 0},
                            classes={"kind": "realizable", "num_distractors": 0, "seed": 0},
                            alpha=0.1 + k / 100)
                for k in range(size)]
        # size - 1 instances and the sampler they share fill the registry
        built = [prepare(cfg) for cfg in cfgs[:-1]]
        assert len(pipelines._registry) == size and len({id(i.dataset) for i in built}) == 1
        assert prepare(replace(cfgs[0], seed=5, n=9, n0=4)) is built[0]  # now the most recent
        prepare(cfgs[-1])
        assert len(pipelines._registry) == size
        assert prepare(cfgs[0]) is built[0] and prepare(cfgs[2]) is built[2]
        assert prepare(cfgs[1]) is not built[1]  # the least recently used went first

    def test_an_instance_does_not_serve_an_equal_config_written_apart(self):
        inst, cfg = prepare(base_config(alpha=1)), base_config(alpha=1.0)
        assert replace(cfg, **pipelines._RUN_FIELDS) == inst.config  # equal, but hashes apart
        assert not inst.serves(cfg)
        with pytest.raises(PipelineError, match="differs") as info:
            run_pro_rl(cfg, inst)
        assert info.value.stage == "config"
        # a config built apart with the same types is served, its fields compared by pickle
        assert inst.serves(replace(base_config(alpha=1), seed=3, n=10, n0=2))

    def test_equal_configs_written_apart_do_not_share_an_instance(self):
        # 1 == 1.0, but the configs hash apart, and an instance splices its own JSON into hashes
        cfgs = [base_config(alpha=1), base_config(alpha=1.0)]
        assert cfgs[0] == cfgs[1] and cfgs[0].config_hash != cfgs[1].config_hash
        assert prepare(cfgs[0]) is not prepare(cfgs[1])
        for cfg in cfgs:
            assert run_pro_rl(cfg).config_hash == cfg.config_hash
