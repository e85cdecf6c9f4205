import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnopt import curvature, harness, linalg, network, optim, pde
from pinnopt.harness import (
    CSV_COLUMNS,
    RunConfig,
    eval_l2,
    eval_points,
    load_checkpoint,
    main,
    run_training,
    save_checkpoint,
)
from pinnopt.network import Parameters, init_params


def tiny_dict(tmp_path, **overrides) -> dict:
    base = dict(
        problem="poisson2d_sin",
        widths=[2, 8, 1],
        optimizer="adam",
        lr=1e-3,
        n_interior=20,
        n_boundary=8,
        max_steps=5,
        eval_every=2,
        n_eval_points=50,
        seed=3,
        output_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return base


def tiny_config(tmp_path, **overrides):
    return RunConfig.from_dict(tiny_dict(tmp_path, **overrides))


def train_cli(tmp_path, **overrides) -> int:
    """``pinnopt train`` on a tiny config written to ``tmp_path``; returns the exit code."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_dict(tmp_path, **overrides)))
    return main(["train", "--config", str(cfg_path)])


def _params():
    return Parameters([np.array([[0.4, -0.2]])], [np.array([0.3])])


def _rigged_problem():
    """poisson2d_sin with the true solution replaced by a known linear net."""
    problem = pde.make_problem("poisson2d_sin")
    return dataclasses.replace(problem, true_solution=lambda x: network.forward_batch(_params(), x)[0])


class TestEvalL2:
    def test_exact_model_gives_zero(self):
        assert eval_l2(_params(), eval_points(_rigged_problem(), 100, seed=0)) == 0.0

    def test_zero_model_gives_one(self):
        problem = pde.make_problem("poisson2d_sin")
        p = Parameters([np.zeros((1, 2))], [np.zeros(1)])
        assert eval_l2(p, eval_points(problem, 200, seed=1)) == 1.0

    def test_scaled_model(self):
        # model = 1.1 * u* exactly, via scaling every parameter of the
        # linear net that defines the rigged truth
        scaled = Parameters([1.1 * _params().weights[0]], [1.1 * _params().biases[0]])
        assert eval_l2(scaled, eval_points(_rigged_problem(), 100, seed=2)) == pytest.approx(0.1, abs=1e-12)


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"problem": "poisson2d_sin", "widths": [2, 1], "optimizer": "adam", "typo": 1})

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing config keys: \\['widths'\\]"):
            RunConfig.from_dict({"problem": "poisson2d_sin", "optimizer": "adam"})

    def test_resample_defaults_per_optimizer(self):
        # every kind's table entry has a default period, which run_training takes.
        # A built config keeps the None it was given.
        expected = {"sgd": 1, "adam": 1, "engd": 1, "kfac": 100, "kfac_star": 100}
        assert {kind: entry.resample_every for kind, entry in optim.KINDS.items()} == expected
        assert set(optim.OPTIMIZER_KINDS) == set(expected)
        for kind in optim.OPTIMIZER_KINDS:
            cfg = RunConfig(problem="poisson2d_sin", widths=[2, 1], optimizer=kind)
            assert cfg.resample_every is None

    def test_replaced_config_takes_the_new_kinds_batch_period(self, tmp_path, monkeypatch):
        # kfac's period of 100 does not stick to a config replaced to sgd, which
        # draws a batch every step as one built with sgd does; the log keeps None
        cfg = dataclasses.replace(tiny_config(tmp_path, optimizer="kfac", max_steps=3), optimizer="sgd")
        draws, sample_batch = [], pde.sample_batch

        def counting(*args, **kwargs):
            draws.append(args)
            return sample_batch(*args, **kwargs)

        monkeypatch.setattr(pde, "sample_batch", counting)
        run_training(cfg)
        assert len(draws) == 3
        with open(os.path.join(cfg.output_dir, "log.csv"), encoding="utf-8") as fh:
            header = json.loads(fh.readline().lstrip("# "))
        assert header["config"]["resample_every"] is None

    def test_init_train_state_rechecks_the_run_fields(self, tmp_path):
        # a config that reaches init_train_state is checked: it cannot change
        # after construction, and a replaced copy runs the run's ranges again
        cfg = tiny_config(tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_interior = 0
        for field in ("n_interior", "n_boundary"):
            with pytest.raises(ValueError, match="batch sizes must be positive"):
                dataclasses.replace(cfg, **{field: 0})

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
    def test_fields_cannot_be_assigned(self, tmp_path, name):
        cfg = tiny_config(tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"damping": 0.0}, "kfac_star requires damping > 0"),
            ({"ema": 1.5}, "ema must lie in \\[0, 1\\), got 1.5"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
        ids=["damping", "ema", "seed"],
    )
    def test_replace_runs_the_checks(self, tmp_path, change, message):
        # a setting changes only through a checked copy, which fails as construction does
        cfg = tiny_config(tmp_path, optimizer="kfac_star")
        before = cfg.to_dict()
        with pytest.raises(ValueError, match=message):
            RunConfig.from_dict({**before, **change})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cfg, **change)
        assert cfg.to_dict() == before

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig(problem="heat", problem_params={"spatial_dim": 1}, widths=[2, 8, 1], optimizer="kfac")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = RunConfig.from_json(str(path))
        assert again.to_dict() == cfg.to_dict()


class TestRunTraining:
    def test_zero_steps_logs_initial_row_only(self, tmp_path):
        log = run_training(tiny_config(tmp_path, max_steps=0))
        assert len(log.rows) == 1
        assert log.rows[0][0] == 0
        assert not log.diverged

    def test_csv_schema_and_rows(self, tmp_path):
        # every eval_every-th step is logged, and the last step also when it is off that grid
        for max_steps, steps in [(4, [0, 2, 4]), (5, [0, 2, 4, 5])]:
            run = tmp_path / f"run{max_steps}"
            log = run_training(tiny_config(tmp_path, max_steps=max_steps, eval_every=2, output_dir=str(run)))
            lines = (run / "log.csv").read_text().splitlines()
            assert lines[0].startswith("# ")
            assert lines[1] == ",".join(CSV_COLUMNS)
            data = lines[2:]
            assert not any(l.startswith("#") for l in data)
            assert [int(l.split(",")[0]) for l in data] == [r[0] for r in log.rows] == steps
            for line in data:
                assert len(line.split(",")) == len(CSV_COLUMNS)

    @pytest.mark.parametrize("kind", ["kfac", "sgd"])
    def test_row_losses_are_taken_before_the_update(self, tmp_path, kind):
        # row t's loss columns are step t's batch at the parameters before the
        # update and its l2_rel_error after it: on a fixed batch row 1 repeats
        # row 0's losses while the error moves
        log = run_training(
            tiny_config(
                tmp_path, optimizer=kind, widths=[2, 8, 1], n_interior=30, n_boundary=10,
                resample_every=0, eval_every=1, max_steps=1,
            )
        )
        (_, _, *losses0, l2_0, _, _), (_, _, *losses1, l2_1, _, _) = log.rows
        np.testing.assert_allclose(losses1, losses0, rtol=1e-12, atol=0.0)
        assert l2_1 != l2_0

    def test_deterministic_excluding_wall_time(self, tmp_path):
        cfg_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_training(cfg_a)
        run_training(cfg_b)

        def strip(path):
            rows = []
            for line in (path / "log.csv").read_text().splitlines():
                if line.startswith("#") or line.startswith("step"):
                    rows.append(line)
                    continue
                cells = line.split(",")
                del cells[1]  # wall_time_s
                rows.append(",".join(cells))
            return rows

        a, b = strip(tmp_path / "a"), strip(tmp_path / "b")
        # config payloads differ in output_dir only; drop the meta line
        assert a[1:] == b[1:]

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, max_steps=3, eval_every=1)
        log = run_training(cfg)
        params, stored = load_checkpoint(str(tmp_path / "run" / "checkpoint.json"))
        problem = pde.make_problem(stored["problem"], **stored["problem_params"])
        err = eval_l2(
            params,
            eval_points(problem, stored["n_eval_points"], harness._stream_seed(stored["seed"], harness.STREAM_EVAL)),
        )
        assert err == log.final[5]

    def test_checkpoint_is_tanh_and_other_activations_are_rejected(self, tmp_path):
        run_training(tiny_config(tmp_path, max_steps=0))
        path = tmp_path / "run" / "checkpoint.json"
        payload = json.loads(path.read_text())
        assert payload["activation"] == "tanh"
        payload["activation"] = "relu"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="relu"):
            load_checkpoint(str(path))

    def test_checkpoint_keeps_the_vector(self, tmp_path):
        p = init_params((3, 5, 4, 1), 11)
        save_checkpoint(str(tmp_path / "checkpoint.json"), p)
        q, _ = load_checkpoint(str(tmp_path / "checkpoint.json"))
        assert q.shapes == p.shapes
        assert q.vector.tobytes() == p.vector.tobytes()

    def test_training_and_eval_streams_disjoint(self, tmp_path):
        cfg = tiny_config(tmp_path, max_steps=0)
        problem = pde.make_problem(cfg.problem)
        batch = pde.sample_batch(
            problem,
            cfg.n_interior,
            cfg.n_boundary,
            harness._stream_seed(cfg.seed, harness.STREAM_BATCH, 0),
        )
        rng = np.random.default_rng(harness._stream_seed(cfg.seed, harness.STREAM_EVAL))
        eval_pts = rng.uniform(problem.lower, problem.upper, size=(cfg.n_eval_points, problem.dim))
        joint = np.concatenate([batch.interior, eval_pts])
        assert np.unique(joint, axis=0).shape[0] == joint.shape[0]

    def test_wall_time_budget_stops_early(self, tmp_path, monkeypatch):
        # the run stops after the step that ran out of time, and logs that step
        steps = []
        inner = harness.optimizer_step

        def counting(*args):
            steps.append(None)
            return inner(*args)

        monkeypatch.setattr(harness, "optimizer_step", counting)
        cfg = tiny_config(tmp_path, max_steps=100_000, max_wall_seconds=0.3, eval_every=100_000)
        log = run_training(cfg)
        assert log.rows[-1][0] == len(steps) < 100_000
        assert not log.diverged
        assert "# diverged" not in (tmp_path / "run" / "log.csv").read_text()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_marks_and_stops(self, tmp_path, monkeypatch, capsys):
        # an absurd sgd learning rate blows the parameters up quickly: the
        # loss of step 14 is non-finite, so that step writes no row and the
        # checkpoint holds the parameters of step 13
        logs = []

        def keeping_the_log(cfg):
            logs.append(run_training(cfg))
            return logs[-1]

        monkeypatch.setattr(harness, "run_training", keeping_the_log)
        assert train_cli(tmp_path, optimizer="sgd", lr=1e12, max_steps=50, eval_every=50) == 3
        assert capsys.readouterr().out == "DIVERGED at step 14\n"
        [log] = logs
        assert log.diverged and log.diverged_step == 14
        assert [r[0] for r in log.rows] == [0]
        last = (tmp_path / "run" / "log.csv").read_text().splitlines()[-1]
        assert last.startswith("# diverged step=14: the loss is non-finite")
        params, _ = load_checkpoint(str(tmp_path / "run" / "checkpoint.json"))
        assert np.all(np.isfinite(params.vector))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_are_not_checkpointed(self, tmp_path, capsys):
        # sgd at lr 1e300 leaves |theta| near 1e300 after step 1, so the loss
        # of step 2 is non-finite; the checkpoint keeps the finite parameters
        code = train_cli(tmp_path, optimizer="sgd", lr=1e300, n_interior=30, n_boundary=10, max_steps=50)
        assert code == 3
        assert "# diverged step=2: the loss is non-finite" in (tmp_path / "run" / "log.csv").read_text()
        params, _ = load_checkpoint(str(tmp_path / "run" / "checkpoint.json"))
        assert np.all(np.isfinite(params.vector))

    def test_non_finite_update_is_divergence(self, tmp_path, monkeypatch, capsys):
        def infinite_update(state, ev, batch, problem):
            return np.full(ev.grad.shape, np.inf), 1.0, 0.0

        monkeypatch.setitem(optim.KINDS, "sgd", dataclasses.replace(optim.KINDS["sgd"], step=infinite_update))
        assert train_cli(tmp_path, optimizer="sgd", max_steps=3, eval_every=1) == 3
        last = (tmp_path / "run" / "log.csv").read_text().splitlines()[-1]
        assert last == "# diverged step=1: parameters became non-finite during the step"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_evaluation_error_is_divergence(self, tmp_path, capsys):
        # after one sgd step at lr 1e300 the parameters are finite but the net
        # overflows on the evaluation set; eval of the checkpoint exits 3 too
        code = train_cli(tmp_path, optimizer="sgd", lr=1e300, n_interior=30, n_boundary=10, eval_every=1)
        assert code == 3
        lines = (tmp_path / "run" / "log.csv").read_text().splitlines()
        assert lines[-1] == "# diverged step=1: the evaluation error is inf"
        assert [l.split(",")[0] for l in lines[2:-1]] == ["0"]
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json")]) == 3
        assert capsys.readouterr().out == "inf\n"

    def test_non_finite_step_0_evaluation_error_is_divergence(self, tmp_path, monkeypatch, capsys):
        make_problem = pde.make_problem

        def nan_truth(name, **params):
            problem = make_problem(name, **params)
            return dataclasses.replace(problem, true_solution=lambda x: np.full(x.shape[0], np.nan))

        monkeypatch.setattr(harness.pde, "make_problem", nan_truth)
        assert train_cli(tmp_path) == 3
        assert capsys.readouterr().out == "DIVERGED at step 0\n"
        lines = (tmp_path / "run" / "log.csv").read_text().splitlines()
        assert lines[2:] == ["# diverged step=0: the evaluation error is nan"]


class TestCli:
    def test_train_eval_round_trip(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, max_steps=2, eval_every=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["train", "--config", str(cfg_path)]) == 0
        out_train = capsys.readouterr().out
        assert "finished" in out_train
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json")]) == 0
        printed = float(capsys.readouterr().out.strip())
        lines = (tmp_path / "run" / "log.csv").read_text().splitlines()
        final_err = float(lines[-1].split(",")[5])
        assert printed == pytest.approx(final_err, abs=1e-12)

    def test_eval_of_non_tanh_checkpoint_returns_2(self, tmp_path, capsys):
        run_training(tiny_config(tmp_path, max_steps=0))
        path = tmp_path / "run" / "checkpoint.json"
        payload = json.loads(path.read_text())
        payload["activation"] = "relu"
        path.write_text(json.dumps(payload))
        assert main(["eval", "--checkpoint", str(path)]) == 2
        assert "relu" in capsys.readouterr().err

    def test_missing_config_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2

    def test_bad_config_path_returns_2(self, capsys):
        assert main(["train", "--config", "/nonexistent/cfg.json"]) == 2

    def test_output_dir_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_dict(tmp_path, max_steps=1)))
        flag_dir = tmp_path / "flag"
        assert main(["train", "--config", str(cfg_path), "--output-dir", str(flag_dir)]) == 0
        assert (flag_dir / "log.csv").exists()
        assert (flag_dir / "checkpoint.json").exists()
        assert not (tmp_path / "run").exists()
        header = json.loads((flag_dir / "log.csv").read_text().splitlines()[0][2:])
        assert header["config"]["output_dir"] == str(flag_dir)
        assert json.loads((flag_dir / "checkpoint.json").read_text())["config"]["output_dir"] == str(flag_dir)

    @pytest.mark.parametrize("override", [{"init_mode": "bogus"}, {"rcond": -1.0}])
    def test_bad_optimizer_field_returns_2_before_logging(self, tmp_path, capsys, override):
        assert train_cli(tmp_path, optimizer="engd", **override) == 2
        assert next(iter(override)) in capsys.readouterr().err
        assert not (tmp_path / "run" / "log.csv").exists()

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("train", {"problem_params": {"dim": 3}}),
            ("train", {"problem_params": [1]}),
            ("train", {"problem": ["poisson2d_sin"]}),
            ("train", {"seed": 1.5}),
            ("train", {"damping": "x"}),
            ("train", {"optimizer": "newton"}),
            ("train", {"n_interior": 10.5}),
            ("train", {"n_eval_points": 10.5}),
            ("train", {"max_steps": 2.5}),
            ("train", {"max_steps": True}),
            ("train", {"max_wall_seconds": "1"}),
            ("train", {"eval_every": 1.5}),
            ("train", {"resample_every": 1.5}),
            ("train", {"widths": [2, 8.7, 1]}),
            ("train", {"optimizer": "kfac", "damping": float("nan")}),
            ("train", {"optimizer": "kfac", "damping": float("inf")}),
            ("train", {"optimizer": "kfac", "momentum": float("nan")}),
            ("train", {"optimizer": "sgd", "lr": float("nan")}),
            ("train", {"optimizer": "adam", "lr": float("nan")}),
            ("train", {"optimizer": "engd", "rcond": float("inf")}),
            ("train", {"max_wall_seconds": float("nan")}),
            ("train", {"max_wall_seconds": -1.0}),
            ("train", {"problem": "heat", "problem_params": {"kappa": float("nan")}}),
            ("train", {"problem": "heat", "problem_params": {"spatial_dim": True}}),
            ("train", {"problem": "poisson_norm2", "problem_params": {"dim": True}, "widths": [1, 8, 1]}),
            ("train", {"widths": [2, True, 1]}),
            ("train", 5),
            ("eval", '{"dim": 3}'),
            ("eval", "[1]"),
        ],
        ids=str,
    )
    def test_malformed_config_returns_2_without_log(self, tmp_path, capsys, command, bad):
        # a config error is reported as one line and exit 2, before log.csv is opened
        if command == "eval":
            run_training(tiny_config(tmp_path, max_steps=0, output_dir=str(tmp_path / "ckpt")))
            checkpoint = str(tmp_path / "ckpt" / "checkpoint.json")
            argv = ["eval", "--checkpoint", checkpoint, "--problem-params", bad]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(tiny_dict(tmp_path, **bad) if isinstance(bad, dict) else bad))
            argv = ["train", "--config", str(cfg_path)]
        # json.dumps writes non-finite floats as the JSON literals NaN and Infinity
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run" / "log.csv").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"widths": [2, 1]},
            [1],
            {"layers": [{"shape": [1, 2], "bias": [0.0]}]},
            {"layers": [{"shape": None, "weight": [0.0, 0.0], "bias": [0.0]}]},
            {"layers": [{"shape": [1, 2], "weight": [float("nan"), 0.0], "bias": [0.0]}]},
        ],
        ids=str,
    )
    def test_eval_of_malformed_checkpoint_returns_2(self, tmp_path, capsys, payload):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(payload))
        argv = ["eval", "--checkpoint", str(path), "--problem", "poisson2d_sin"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint")

    def test_eval_of_wide_output_checkpoint_returns_2(self, tmp_path, capsys):
        # forward_batch reads output 0 only, so a wider head would give a number for another net
        path = tmp_path / "checkpoint.json"
        save_checkpoint(str(path), Parameters([np.ones((3, 2)), np.ones((2, 3))], [np.zeros(3), np.zeros(2)]))
        assert main(["eval", "--checkpoint", str(path), "--problem", "poisson2d_sin"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and "output width 2" in err

    def test_eval_of_unchained_checkpoint_returns_2(self, tmp_path, capsys):
        # layer 1 takes 4 inputs, but layer 0 has 3 outputs
        layers = [
            {"shape": [3, 2], "weight": [0.0] * 6, "bias": [0.0] * 3},
            {"shape": [1, 4], "weight": [0.0] * 4, "bias": [0.0]},
        ]
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"layers": layers}))
        assert main(["eval", "--checkpoint", str(path), "--problem", "poisson2d_sin"]) == 2
        assert capsys.readouterr().err.startswith("error: layer 1: input width")

    @pytest.mark.parametrize(
        "stored",
        [
            [1],
            {"problem": 5},
            {"problem_params": [1]},
            {"n_eval_points": "5"},
            {"n_eval_points": True},
            {"n_eval_points": 2.5},
            {"seed": "x"},
            {"seed": 1.5},
            {"seed": False},
        ],
        ids=str,
    )
    def test_eval_of_bad_stored_config_returns_2(self, tmp_path, capsys, stored):
        # eval checks the stored fields it reads by RunConfig's types; flags override them
        run_training(tiny_config(tmp_path, max_steps=0))
        path = tmp_path / "run" / "checkpoint.json"
        payload = json.loads(path.read_text())
        payload["config"] = dict(payload["config"], **stored) if isinstance(stored, dict) else stored
        path.write_text(json.dumps(payload))
        assert main(["eval", "--checkpoint", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        if isinstance(stored, dict):
            flags = ["--problem", "poisson2d_sin", "--problem-params", "{}", "--n-points", "50", "--seed", "3"]
            assert main(["eval", "--checkpoint", str(path)] + flags) == 0

    def test_eval_of_zero_points_returns_2(self, tmp_path, capsys):
        run_training(tiny_config(tmp_path, max_steps=0))
        path = tmp_path / "run" / "checkpoint.json"
        assert main(["eval", "--checkpoint", str(path), "--n-points", "0"]) == 2
        assert "evaluation point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [np.linalg.LinAlgError, linalg.NotPositiveSemidefiniteError, linalg.NotSymmetricError],
    )
    @pytest.mark.parametrize(
        "optimizer, module, solver",
        [
            ("kfac", curvature, "kron_sum_solve"),
            ("kfac_star", curvature, "kron_sum_solve"),
            ("engd", optim, "pinv_psd"),
        ],
    )
    def test_solver_failure_is_divergence(self, tmp_path, monkeypatch, capsys, optimizer, module, solver, error):
        # a numerical failure inside a step is a diverged run (exit 3), not
        # a usage/config error (exit 2), although all three are ValueErrors
        def failing_solver(*args, **kwargs):
            raise error("injected solver failure")

        monkeypatch.setattr(module, solver, failing_solver)
        assert train_cli(tmp_path, optimizer=optimizer, max_steps=3, eval_every=1) == 3
        assert "DIVERGED" in capsys.readouterr().out
        text = (tmp_path / "run" / "log.csv").read_text()
        assert "# diverged step=1: injected solver failure" in text
        assert (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("optimizer", ["kfac", "kfac_star", "engd"])
    def test_nan_residual_is_divergence(self, tmp_path, monkeypatch, optimizer):
        make_problem = pde.make_problem

        def nan_problem(name, **params):
            problem = make_problem(name, **params)
            return dataclasses.replace(
                problem, residual=lambda x, f, u, grad, op: np.full(x.shape[0], np.nan)
            )

        monkeypatch.setattr(harness.pde, "make_problem", nan_problem)
        assert train_cli(tmp_path, optimizer=optimizer, max_steps=3, eval_every=1) == 3
        assert "# diverged" in (tmp_path / "run" / "log.csv").read_text()
        assert (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "factor, solver_arg",
        [("a_interior", "a1"), ("b_interior", "b1"), ("a_boundary", "a2"), ("b_boundary", "b2")],
    )
    @pytest.mark.parametrize("optimizer", ["kfac", "kfac_star"])
    def test_nan_factor_is_divergence(self, tmp_path, monkeypatch, capsys, optimizer, factor, solver_arg):
        # a NaN Kronecker factor must stop the run at the solver, not turn
        # into a NaN direction; the diverged line names the factor's slot
        precondition = curvature.precondition_gradient

        def poisoned(state, grad, damping):
            getattr(state, factor)[-1][0, 0] = np.nan
            return precondition(state, grad, damping)

        monkeypatch.setattr(curvature, "precondition_gradient", poisoned)
        assert train_cli(tmp_path, optimizer=optimizer, max_steps=3, eval_every=1) == 3
        assert "DIVERGED" in capsys.readouterr().out
        text = (tmp_path / "run" / "log.csv").read_text()
        assert f"# diverged step=1: kron_sum_solve({solver_arg}) has non-finite entries" in text
        assert (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "factor, solver_arg",
        [("a_interior", "a1"), ("b_interior", "b1"), ("a_boundary", "a2"), ("b_boundary", "b2")],
    )
    @pytest.mark.parametrize("optimizer", ["kfac", "kfac_star"])
    def test_indefinite_head_factor_is_divergence(self, tmp_path, monkeypatch, capsys, optimizer, factor, solver_arg):
        # the width-1 head's factors are solved by Cholesky; a factor that is
        # not positive (semi)definite there ends the run as diverged too
        precondition = curvature.precondition_gradient

        def indefinite(state, grad, damping):
            head = getattr(state, factor)[-1]
            head[...] = -1e3 * np.eye(head.shape[0])
            return precondition(state, grad, damping)

        monkeypatch.setattr(curvature, "precondition_gradient", indefinite)
        assert train_cli(tmp_path, optimizer=optimizer, max_steps=3, eval_every=1) == 3
        assert "DIVERGED" in capsys.readouterr().out
        text = (tmp_path / "run" / "log.csv").read_text()
        assert f"# diverged step=1: kron_sum_solve({solver_arg})" in text
        assert (tmp_path / "run" / "checkpoint.json").exists()

    def test_negative_seed_returns_2_before_logging(self, tmp_path, capsys):
        # numpy's SeedSequence would refuse it without naming the field
        assert train_cli(tmp_path, seed=-1) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not (tmp_path / "run" / "log.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "stored"])
    def test_eval_of_negative_seed_returns_2(self, tmp_path, capsys, source):
        run_training(tiny_config(tmp_path, max_steps=0))
        path = tmp_path / "run" / "checkpoint.json"
        argv = ["eval", "--checkpoint", str(path)]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            payload = json.loads(path.read_text())
            payload["config"]["seed"] = -1
            path.write_text(json.dumps(payload))
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    def test_engd_parameter_cap_stays_config_error(self, tmp_path, capsys):
        # 20801 parameters exceed the dense Gramian cap before any numerics run
        assert train_cli(tmp_path, optimizer="engd", widths=[2, 200, 100, 1], max_steps=1) == 2
        assert "exceed the cap" in capsys.readouterr().err
        assert not (tmp_path / "run" / "log.csv").exists()


# the fields of a random run config but its widths: valid, or refused by the config
# checks (ema 1.0; damping 0 for kfac and kfac_star)
RANDOM_RUNS = st.fixed_dictionaries(
    {
        "problem": st.sampled_from(pde.PROBLEM_NAMES),
        "optimizer": st.sampled_from(optim.OPTIMIZER_KINDS),
        "lr": st.one_of(st.integers(-8, 8), st.just(300)).map(lambda e: 10.0**e),
        "momentum": st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        "ema": st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0]),
        "damping": st.sampled_from([0.0, 1e-8, 1e-2, 1.0, 1e300]),
        "init_mode": st.sampled_from(["zero", "identity"]),
        "rcond": st.sampled_from([0.0, 1e-10, 0.5]),
        "n_interior": st.integers(1, 17),
        "n_boundary": st.integers(1, 7),
        "resample_every": st.sampled_from([None, 0, 1, 3]),
        "max_steps": st.integers(1, 4),
        "eval_every": st.integers(1, 4),
        "seed": st.integers(0, 1000),
    }
)


class TestExitContract:
    """``pinnopt train`` on random configs ends in one of three ways: exit 0 with a
    finite final row, exit 3 with a ``# diverged`` line and a checkpoint, or
    exit 2 with no log."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=600, deadline=5000)
    @given(run=RANDOM_RUNS, hidden=st.lists(st.sampled_from([1, 2, 3, 8]), max_size=4))
    def test_every_run_ends_in_one_of_three_ways(self, run, hidden):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "run")
            cfg = dict(run, widths=[pde.make_problem(run["problem"]).dim, *hidden, 1], n_eval_points=20, output_dir=out)
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            code = main(["train", "--config", path])
            log_path = os.path.join(out, "log.csv")
            if code == 2:
                assert not os.path.exists(log_path)
                return
            with open(log_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert os.path.exists(os.path.join(out, "checkpoint.json"))
            if code == 3:
                assert lines[-1].startswith("# diverged step=")
                return
            assert code == 0
            final = [line for line in lines[1:] if not line.startswith("#")][-1]
            assert all(math.isfinite(float(v)) for v in final.split(","))
