import argparse
import json

import pytest

from prorl import cli
from prorl.cli import main
from prorl.mdp import load_mdp
from prorl.pipelines import PipelineError

BASE_CONFIG = {
    "mdp": {"kind": "random", "num_states": 4, "num_actions": 2, "gamma": 0.8, "seed": 2},
    "data_dist": {"kind": "uniform_policy"},
    "reg": {"kind": "quadratic", "m_f": 1.0, "shift": 0.0},
    "alpha": 0.3,
    "n": 600,
    "n0": 60,
    "seed": 0,
    "classes": {"kind": "realizable", "num_distractors": 4, "seed": 0},
}


def write_config(path, **over):
    payload = dict(BASE_CONFIG)
    payload.update(over)
    path.write_text(json.dumps(payload))
    return str(path)


class TestGenCommands:
    def test_gen_mdp_round_trip(self, tmp_path):
        out = tmp_path / "mdp.json"
        rc = main([
            "gen-mdp", "--kind", "mixing", "--num-states", "4", "--num-actions", "2",
            "--gamma", "0.7", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        mdp = load_mdp(str(out))
        assert (mdp.num_states, mdp.num_actions, mdp.gamma) == (4, 2, 0.7)

    def test_gen_data_is_deterministic(self, tmp_path):
        mdp_path = tmp_path / "mdp.json"
        main(["gen-mdp", "--num-states", "4", "--num-actions", "2", "--gamma", "0.8",
              "--seed", "1", "--out", str(mdp_path)])
        args = ["gen-data", "--mdp", str(mdp_path), "--n", "200", "--n0", "20",
                "--seed", "7"]
        main(args + ["--out-transitions", str(tmp_path / "t1"), "--out-inits", str(tmp_path / "i1")])
        main(args + ["--out-transitions", str(tmp_path / "t2"), "--out-inits", str(tmp_path / "i2")])
        assert (tmp_path / "t1").read_bytes() == (tmp_path / "t2").read_bytes()
        assert (tmp_path / "i1").read_bytes() == (tmp_path / "i2").read_bytes()
        first = json.loads((tmp_path / "t1").read_text().splitlines()[0])
        assert set(first) == {"s", "a", "r", "sp"}

    def test_oracle_output(self, tmp_path):
        mdp_path = tmp_path / "mdp.json"
        main(["gen-mdp", "--num-states", "4", "--num-actions", "2", "--gamma", "0.8",
              "--seed", "1", "--out", str(mdp_path)])
        out = tmp_path / "sol.json"
        rc = main(["oracle", "--mdp", str(mdp_path), "--alpha", "0.2", "--out", str(out)])
        assert rc == 0
        sol = json.loads(out.read_text())
        assert sol["kkt_residual"] < 1e-8
        assert sol["oracle_method"] == "saddle"
        assert isinstance(sol["oracle_iterations"], int) and sol["oracle_iterations"] > 0
        assert sol["j_star_alpha"] <= sol["j_star_zero"] + 1e-9
        assert len(sol["w_star_alpha"]) == 4

    def test_oracle_alpha_zero_skips_regularized_fields(self, tmp_path):
        mdp_path = tmp_path / "mdp.json"
        main(["gen-mdp", "--num-states", "3", "--num-actions", "2", "--gamma", "0.8",
              "--seed", "1", "--out", str(mdp_path)])
        out = tmp_path / "sol.json"
        main(["oracle", "--mdp", str(mdp_path), "--out", str(out)])
        sol = json.loads(out.read_text())
        assert "j_star_zero" in sol and "j_star_alpha" not in sol


class TestRunCommands:
    def test_solve_writes_report(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["variant"] == "plain"
        assert report["gap_ref"] <= report["pi_l1"] / 0.2 + 1e-9

    def test_solve_at_alpha_zero_writes_no_nan(self, tmp_path):
        # an alpha = 0 run has no regularized optimum: its j_star_alpha is null, not NaN
        cfg = write_config(tmp_path / "cfg.json", alpha=0.0, variant={"kind": "alpha_zero"},
                           classes={"kind": "constrained", "num_distractors": 4, "seed": 0})
        out = tmp_path / "report.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "NaN" not in text and json.loads(text)["j_star_alpha"] is None

    def test_extract_bc_writes_cloning_fields(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            n=1000,
            bc={"n1": 700, "kind": "target_plus_mixes", "mix_grid": [0.2],
                "directions": ["uniform"]},
        )
        out = tmp_path / "report.json"
        main(["extract-bc", "--config", cfg, "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["n2"] == 300
        assert report["pi_l1_bc"] is not None

    def test_report_aggregates_rows(self, tmp_path):
        exp = tmp_path / "exp"
        main(["experiment", "--suite", "rate_regularized", "--out", str(exp),
              "--seed", "0", "--set", "n_grid=[100,400]", "--set", "num_seeds=2"])
        out = tmp_path / "agg.json"
        rc = main(["report", "--rows", str(exp / "rows.csv"), "--out", str(out)])
        assert rc == 0
        agg = json.loads(out.read_text())
        assert agg["num_rows"] == 4
        assert "w_dev_median_slope" in agg


class TestExperimentCommand:
    def test_overrides_and_determinism(self, tmp_path):
        args = ["experiment", "--suite", "rate_regularized", "--seed", "0",
                "--set", "n_grid=[100,300]", "--set", "num_seeds=2"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("rows.csv", "summary.json", "plot.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["n_grid"] == [100, 300]
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        assert meta["overrides"]["num_seeds"] == 2

    def test_unknown_suite_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["experiment", "--suite", "bogus", "--out", str(tmp_path / "x")])

    def test_malformed_override(self, tmp_path):
        with pytest.raises(SystemExit, match="key=value"):
            main(["experiment", "--suite", "lp_stability", "--out", str(tmp_path / "x"),
                  "--set", "oops"])

    def test_bad_override_value_is_a_config_error(self, tmp_path):
        out = tmp_path / "x"
        with pytest.raises(PipelineError, match="override n_grid=100 must be a non-empty list"):
            main(["experiment", "--suite", "rate_regularized", "--out", str(out),
                  "--set", "n_grid=100"])
        assert not out.exists()

    # Each --set misuse fails before a suite writes anything. gamma is a
    # counterexample parameter, so --suite all used to write that suite first.
    @pytest.mark.parametrize("pair", ["num_seeds=2", "gamma=0.6"])
    def test_set_with_suite_all_is_a_config_error(self, tmp_path, pair):
        out = tmp_path / "x"
        with pytest.raises(PipelineError, match="--set needs a single --suite"):
            main(["experiment", "--suite", "all", "--out", str(out), "--set", pair])
        assert not out.exists()

    def test_set_seed_points_to_the_seed_flag(self, tmp_path):
        out = tmp_path / "x"
        with pytest.raises(PipelineError, match="with --seed"):
            main(["experiment", "--suite", "lp_stability", "--out", str(out), "--set", "seed=3"])
        assert not out.exists()

    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
        cli.build_parser.cache_clear()
        main(["gen-mdp", "--seed", "0", "--out", str(tmp_path / "a.json")])
        first = len(built)
        main(["gen-mdp", "--seed", "1", "--out", str(tmp_path / "b.json")])
        assert first > 0 and len(built) == first  # the parser and its subcommands, built once
        # the reused parser read each call's own arguments
        assert (tmp_path / "a.json").read_text() != (tmp_path / "b.json").read_text()

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "experiment" in capsys.readouterr().out
