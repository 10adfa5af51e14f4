import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psmco
from psmco.cli import main
from psmco.config import (
    ConfigError,
    PROFILES,
    apply_overrides,
    config_to_json,
    emit_config,
    load_profile,
    override_value,
    parse_config,
    to_psgd_config,
)


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# config documents


def test_profiles_parse_and_match_expected_values():
    a = parse_config(load_profile("mixture-5.1"))
    assert (a.problem, a.algorithm) == ("mixture", "psmco")
    assert (a.n, a.m_workers, a.n_particles, a.batch_size) == (1000, 100, 50, 1)
    assert (a.lam, a.r, a.mean_var) == (10.0, 0.2, 0.5)
    assert (a.jitter_var, a.half_width, a.estimate_every) == (0.5, 50.0, 1)
    assert a.init_point is None and a.epsilon is None

    b = parse_config(load_profile("sigmoid-5.2"))
    assert (b.problem, b.n, b.m_workers, b.n_particles, b.batch_size) == (
        "sigmoid", 100000, 25, 40, 100,
    )
    assert (b.x_low, b.x_high, b.theta_true) == (-2.5, 2.5, (1.0, -2.0))
    assert (b.jitter_var, b.half_width) == (1000.0, 200.0)
    assert b.init_point == (-190.0, 0.0)
    assert b.init_var == pytest.approx(1e-8)


def test_unknown_profile():
    with pytest.raises(ConfigError, match="unknown profile"):
        load_profile("nope")


def test_empty_config_lists_required_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config({})
    for key in ("problem", "n", "m_workers", "n_particles", "batch_size", "jitter_var"):
        assert key in str(exc.value)


def test_missing_keys_reported_by_name():
    doc = load_profile("mixture-5.1")
    del doc["n_particles"], doc["jitter_var"]
    with pytest.raises(ConfigError, match="n_particles, jitter_var"):
        parse_config(doc)


def test_unknown_key_rejected_by_name():
    doc = load_profile("mixture-5.1")
    doc["bogus_knob"] = 3
    with pytest.raises(ConfigError, match="bogus_knob"):
        parse_config(doc)


def test_cross_problem_keys_rejected():
    doc = load_profile("mixture-5.1")
    doc["noise_std"] = 0.1  # sigmoid-only key
    with pytest.raises(ConfigError, match="noise_std"):
        parse_config(doc)
    doc = load_profile("sigmoid-5.2")
    doc["lam"] = 5.0  # mixture-only key
    with pytest.raises(ConfigError, match="lam"):
        parse_config(doc)


def test_constraint_violations():
    base = load_profile("mixture-5.1")
    bad = dict(base, n_particles=16, epsilon=0.3)  # cap is 0.25
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config(dict(base, batch_size=base["n"] + 1))
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config(dict(base, batch_size=0))
    with pytest.raises(ConfigError, match="gradient baseline"):
        parse_config(dict(base, algorithm="psgd"))
    with pytest.raises(ConfigError, match="keep_final_particles"):
        parse_config(dict(load_profile("sigmoid-5.2"), algorithm="psgd", keep_final_particles=True))
    with pytest.raises(ConfigError, match="integer"):
        parse_config(dict(base, n=True))  # bools are not counts
    with pytest.raises(ConfigError, match="number"):
        parse_config(dict(base, jitter_var="big"))
    with pytest.raises(ConfigError, match="true or false"):
        parse_config(dict(base, keep_final_particles=1))
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config(dict(base, algorithm="sgd"))
    with pytest.raises(ConfigError, match="problem"):
        parse_config(dict(base, problem="quadratic"))
    with pytest.raises(ConfigError, match="must be a JSON object"):
        parse_config([base])

    # one case per single-key range rule; the message names the key
    sig = load_profile("sigmoid-5.2")
    cases = [
        (base, "n", 0), (base, "m_workers", 0), (base, "n_particles", 0),
        (base, "jitter_var", -1), (base, "init_var", -1), (base, "step_size", -1),
        (base, "estimate_every", 0), (base, "half_width", 0),
        (base, "lam", 0), (base, "r", 0), (base, "mean_var", -1),
        (sig, "x_low", 2.5), (sig, "noise_std", -1),
        (sig, "theta_true", [1.0, -2.0, 0.0]), (sig, "init_point", [-190.0, 0.0, 0.0]),
        # non-finite values, which JSON documents and overrides can carry
        (base, "lam", math.nan), (base, "r", math.nan), (base, "mean_var", math.inf),
        (base, "init_var", math.nan), (base, "init_var", math.inf), (base, "jitter_var", math.nan),
        (sig, "noise_std", math.nan), (sig, "noise_std", math.inf),
        (sig, "step_size", math.nan), (sig, "step_size", math.inf),
        (sig, "x_low", -math.inf), (sig, "x_high", math.inf),
        (sig, "theta_true", [math.nan, -2.0]), (sig, "init_point", [math.nan, 0.0]),
        # points that are not a non-empty list
        (sig, "init_point", -190.0), (sig, "init_point", []), (sig, "theta_true", "1,-2"),
    ]
    for doc, key, value in cases:
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            parse_config(dict(doc, **{key: value}))


def test_epsilon_at_cap_accepted():
    base = load_profile("mixture-5.1")
    cfg = parse_config(dict(base, n_particles=16, epsilon=0.25))
    assert cfg.epsilon == 0.25


def test_round_trip_both_profiles():
    for name in PROFILES:
        cfg = parse_config(load_profile(name))
        again = parse_config(json.loads(config_to_json(cfg)))
        assert again == cfg
        assert parse_config(emit_config(cfg)) == cfg


def test_override_value_forms():
    assert override_value("3") == 3
    assert override_value("0.5") == 0.5
    assert override_value("true") is True
    assert override_value("false") is False
    assert override_value("null") is None
    assert override_value("-190,0") == [-190.0, 0.0]
    assert override_value("[1, 2]") == [1, 2]
    assert override_value("psgd") == "psgd"


def test_apply_overrides():
    doc = apply_overrides({"a": 1}, ["a=2", "b=x,1"])
    assert doc == {"a": 2, "b": "x,1"}  # non-numeric pair stays a string
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["broken"])


def test_psgd_iterations_match_sampler_steps():
    doc = dict(load_profile("sigmoid-5.2"), algorithm="psgd", n=250, batch_size=100)
    cfg = to_psgd_config(parse_config(doc))
    assert cfg.iterations == math.ceil(250 / 100)


# ---------------------------------------------------------------------------
# run subcommand


MIX_ARGS = [
    "run", "--profile", "mixture-5.1",
    "--override", "n=20",
    "--override", "m_workers=3",
    "--override", "n_particles=9",
]


def test_run_mixture_end_to_end(tmp_path):
    out = tmp_path / "a"
    assert run_cli(*MIX_ARGS, "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "summary.txt", "trace.csv",
    ]

    header, rows = read_rows(out / "trace.csv")
    assert header[:6] == ["problem", "t", "m_star", "f_value", "theta_0", "theta_1"]
    assert header[6:] == [f"log_z_{j}" for j in range(3)]
    assert len(rows) == 20  # one emission per step at batch_size 1
    assert [r[0] for r in rows] == ["mixture"] * 20
    assert [int(r[1]) for r in rows] == list(range(1, 21))
    for r in rows:
        log_z = np.array([float(v) for v in r[6:]])
        assert int(r[2]) == int(np.argmax(log_z))

    doc = json.loads((out / "config.json").read_text())
    assert doc["n"] == 20 and doc["m_workers"] == 3 and doc["n_particles"] == 9
    assert parse_config(doc) is not None  # canonical echo re-parses

    summary = dict(
        ln.split("=", 1) for ln in (out / "summary.txt").read_text().splitlines()
    )
    assert summary["problem"] == "mixture"
    assert summary["iterations"] == "20"
    assert float(summary["f_final"]) == float(rows[-1][3])


def test_run_is_byte_deterministic(tmp_path):
    dirs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert run_cli(*MIX_ARGS, "--out", str(out)) == 0
        dirs.append(out)
    for f in ("trace.csv", "summary.txt", "config.json"):
        base = (dirs[0] / f).read_bytes()
        assert all((d / f).read_bytes() == base for d in dirs[1:])


def test_run_seed_changes_trace(tmp_path):
    out1, out2 = tmp_path / "s0", tmp_path / "s1"
    assert run_cli(*MIX_ARGS, "--out", str(out1)) == 0
    assert run_cli(*MIX_ARGS, "--seed", "1", "--out", str(out2)) == 0
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()
    assert json.loads((out2 / "config.json").read_text())["seed"] == 1


def test_run_writes_particles_when_kept(tmp_path):
    out = tmp_path / "p"
    assert run_cli(
        *MIX_ARGS, "--override", "keep_final_particles=true", "--out", str(out)
    ) == 0
    header, rows = read_rows(out / "particles.csv")
    assert header == ["worker", "particle", "theta_0", "theta_1"]
    assert len(rows) == 3 * 9
    assert {int(r[0]) for r in rows} == {0, 1, 2}
    for r in rows:
        assert abs(float(r[2])) <= 50.0 and abs(float(r[3])) <= 50.0


def test_trace_and_particles_headers_follow_dimension():
    """A 3-d library run: one theta_j column per coordinate in both files,
    and every trace row's problem cell is the name passed in."""
    from psmco.cli import particles_lines, psmco_trace_lines
    from psmco.core import CostModel, SearchSpace
    from psmco.parallel import OptimizerConfig, run_psmco

    space = SearchSpace(np.full(3, -2.0), np.full(3, 2.0))
    model = CostModel(n=6, component_eval=lambda i, th: float(th @ th))
    cfg = OptimizerConfig(m_workers=2, n_particles=5, batch_size=2, proposal_std=0.3,
                          estimate_every=1)
    record = run_psmco(model, space, cfg)
    thetas = ["theta_0", "theta_1", "theta_2"]
    trace = [ln.split(",") for ln in psmco_trace_lines("bowl", record)]
    assert trace[0] == ["problem", "t", "m_star", "f_value", *thetas, "log_z_0", "log_z_1"]
    assert len(trace) == 1 + 3
    assert all(len(row) == len(trace[0]) for row in trace[1:])
    assert [row[0] for row in trace[1:]] == ["bowl"] * 3
    particles = [ln.split(",") for ln in particles_lines(record)]
    assert particles[0] == ["worker", "particle", *thetas]
    assert len(particles) == 1 + 2 * 5
    assert all(len(row) == len(particles[0]) for row in particles[1:])


SIG_ARGS = [
    "run", "--profile", "sigmoid-5.2",
    "--override", "n=120",
    "--override", "batch_size=30",
    "--override", "m_workers=2",
    "--override", "n_particles=8",
]


def test_run_sigmoid_profile_small(tmp_path):
    out = tmp_path / "sig"
    assert run_cli(*SIG_ARGS, "--out", str(out)) == 0
    header, rows = read_rows(out / "trace.csv")
    assert [int(r[1]) for r in rows] == [1, 2, 3, 4]
    assert all(r[0] == "sigmoid" for r in rows)


def test_run_psgd_baseline_trace(tmp_path):
    out = tmp_path / "psgd"
    assert run_cli(
        *SIG_ARGS, "--override", "algorithm=psgd",
        "--override", "init_point=0,-100", "--out", str(out),
    ) == 0
    header, rows = read_rows(out / "trace.csv")
    assert header == ["problem", "t", "f_best"]
    assert [int(r[1]) for r in rows] == [0, 1, 2, 3, 4]
    costs = [float(r[2]) for r in rows]
    assert all(np.isfinite(costs))
    assert not (out / "particles.csv").exists()
    summary = dict(
        ln.split("=", 1) for ln in (out / "summary.txt").read_text().splitlines()
    )
    assert summary["algorithm"] == "psgd"
    assert float(summary["f_final"]) == costs[-1] or float(summary["f_final"]) <= costs[-1]


def test_run_config_file_and_bad_documents(tmp_path):
    doc = dict(load_profile("sigmoid-5.2"), n=60, batch_size=30, m_workers=2,
               n_particles=6)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "fromfile"
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 0
    assert (out / "trace.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 2
    assert run_cli(
        "run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "y")
    ) == 2


def test_run_exit_codes(tmp_path, capsys):
    assert run_cli("run", "--profile", "nope", "--out", str(tmp_path / "o")) == 2
    assert "unknown profile" in capsys.readouterr().err
    assert run_cli(*MIX_ARGS, "--override", "epsilon=0.9", "--out", str(tmp_path / "e")) == 2
    assert "epsilon" in capsys.readouterr().err
    assert run_cli(*MIX_ARGS, "--seed", "-3", "--out", str(tmp_path / "s")) == 2
    assert "non-negative" in capsys.readouterr().err
    # values that only fail once a run starts are still configuration errors
    for override in ("seed=-1", "data_seed=-1", "half_width=Infinity", "jitter_var=NaN",
                     "lam=NaN", "mean_var=Infinity", "init_var=NaN"):
        assert run_cli(*MIX_ARGS, "--override", override, "--out", str(tmp_path / "o")) == 2
    assert run_cli("gen-data", "--profile", "mixture-5.1", "--seed", "-1",
                   "--out", str(tmp_path / "o")) == 2
    assert not (tmp_path / "o").exists()


def test_config_with_threads_key_rejected(tmp_path, capsys):
    doc = dict(load_profile("mixture-5.1"), n=20, m_workers=3, n_particles=9, threads=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert "unknown keys: threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_failure_exit_code(tmp_path, monkeypatch):
    from psmco import cli
    from psmco.parallel import RunFailureError

    def boom(*a, **kw):
        raise RunFailureError("all workers sank", np.zeros((1, 1)))

    monkeypatch.setattr(cli, "run_psmco", boom)
    assert run_cli(*MIX_ARGS, "--out", str(tmp_path / "f")) == 3


def test_value_error_inside_run_is_not_a_config_error(tmp_path, monkeypatch):
    from psmco import cli

    def boom(*a, **kw):
        raise ValueError("bug inside a run")

    monkeypatch.setattr(cli, "run_psmco", boom)
    with pytest.raises(ValueError, match="bug inside a run"):
        run_cli(*MIX_ARGS, "--out", str(tmp_path / "f"))  # never exit 2


# ---------------------------------------------------------------------------
# compare subcommand


def write_trace(path, problem, pairs, cost_col="f_best"):
    lines = [f"problem,t,{cost_col}"]
    for t, f in pairs:
        lines.append(f"{problem},{t},{f}")
    path.write_text("\n".join(lines) + "\n")


def test_compare_joins_on_shared_iterations(tmp_path):
    psmco_out = tmp_path / "m"
    psgd_out = tmp_path / "g"
    assert run_cli(*SIG_ARGS, "--out", str(psmco_out)) == 0
    assert run_cli(
        *SIG_ARGS, "--override", "algorithm=psgd",
        "--override", "init_point=0,-100", "--out", str(psgd_out),
    ) == 0
    out = tmp_path / "cmp.csv"
    assert run_cli(
        "compare", "--psmco", str(psmco_out / "trace.csv"),
        "--psgd", str(psgd_out / "trace.csv"), "--out", str(out),
    ) == 0
    header, rows = read_rows(out)
    assert header == ["iter", "f_psmco", "f_psgd_good_init"]
    # the baseline also logs t=0, which the optimizer trace lacks
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
    src = {int(r[1]): float(r[3]) for r in read_rows(psmco_out / "trace.csv")[1]}
    for r in rows:
        assert float(r[1]) == src[int(r[0])]


def test_compare_two_baselines_labelled_by_order(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_trace(a, "sigmoid", [(1, 10.0), (2, 8.0)], cost_col="f_value")
    write_trace(b, "sigmoid", [(1, 5.0), (2, 4.0)])
    write_trace(c, "sigmoid", [(1, 99.0), (2, 98.0)])
    out = tmp_path / "cmp.csv"
    assert run_cli(
        "compare", "--psmco", str(a), "--psgd", str(b), "--psgd", str(c),
        "--out", str(out),
    ) == 0
    header, rows = read_rows(out)
    assert header == ["iter", "f_psmco", "f_psgd_good_init", "f_psgd_bad_init"]
    assert rows[0] == ["1", "10.0", "5.0", "99.0"]


def test_compare_coarser_emission_axis(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, "sigmoid", [(5, 1.0), (10, 0.5)], cost_col="f_value")
    write_trace(b, "sigmoid", [(t, 2.0) for t in range(11)])
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", "--psmco", str(a), "--psgd", str(b), "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert [int(r[0]) for r in rows] == [5, 10]


def test_compare_optimizer_only(tmp_path):
    a = tmp_path / "a.csv"
    write_trace(a, "mixture", [(1, 3.0)], cost_col="f_value")
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", "--psmco", str(a), "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["iter", "f_psmco"]
    assert rows == [["1", "3.0"]]


def test_compare_error_cases(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, "mixture", [(1, 3.0)], cost_col="f_value")
    write_trace(b, "sigmoid", [(1, 5.0)])
    out = tmp_path / "never.csv"
    assert run_cli("compare", "--psmco", str(a), "--psgd", str(b), "--out", str(out)) == 2
    assert "mismatch" in capsys.readouterr().err
    assert not out.exists()

    write_trace(b, "mixture", [(7, 5.0)])  # no shared iterations with a
    assert run_cli("compare", "--psmco", str(a), "--psgd", str(b), "--out", str(out)) == 2
    assert "share no iterations" in capsys.readouterr().err
    assert not out.exists()

    assert run_cli(
        "compare", "--psmco", str(tmp_path / "ghost.csv"), "--out", str(out)
    ) == 4

    write_trace(b, "mixture", [(1, 5.0)])
    for k in range(3):
        write_trace(tmp_path / f"x{k}.csv", "mixture", [(1, 1.0)])
    assert run_cli(
        "compare", "--psmco", str(a),
        "--psgd", str(tmp_path / "x0.csv"),
        "--psgd", str(tmp_path / "x1.csv"),
        "--psgd", str(tmp_path / "x2.csv"),
        "--out", str(out),
    ) == 2  # at most two baselines


def test_compare_malformed_rows(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_trace(good, "sigmoid", [(1, 2.0)])
    out = tmp_path / "never.csv"
    texts = [(f"problem,t,f_best\n{row}\n", "malformed row")
             for row in ("sigmoid,1", "sigmoid,one,2.0", "sigmoid,1,2.0,3.0")]
    # whole files: no lines, no t or problem column, no cost column, no rows
    texts += [("\n", "empty trace file"), ("problem,f_best\nsigmoid,2.0\n", "missing mandatory columns"),
              ("problem,t,cost\nsigmoid,1,2.0\n", "no cost column"), ("problem,t,f_best\n", "header but no rows")]
    for text, message in texts:
        bad.write_text(text)
        for argv in (["--psmco", str(bad)], ["--psmco", str(good), "--psgd", str(bad)]):
            assert run_cli("compare", *argv, "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert str(bad) in err and message in err
    assert not out.exists()


def test_compare_rejects_a_repeated_iteration(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_trace(good, "mixture", [(1, 2.0)], cost_col="f_value")
    write_trace(bad, "mixture", [(1, 4.0), (1, 3.0)])
    out = tmp_path / "never.csv"
    for argv in (["--psmco", str(good), "--psgd", str(bad)], ["--psmco", str(bad)]):
        assert run_cli("compare", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "iteration 1 repeats" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# gen-data subcommand


def test_gen_data_sigmoid(tmp_path):
    out = tmp_path / "data.csv"
    assert run_cli("gen-data", "--profile", "sigmoid-5.2", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["x", "y"]
    assert len(rows) == 100000
    xs = np.array([float(r[0]) for r in rows[:100]])
    assert (xs >= -2.5).all() and (xs <= 2.5).all()

    again = tmp_path / "again.csv"
    assert run_cli("gen-data", "--profile", "sigmoid-5.2", "--out", str(again)) == 0
    assert again.read_bytes() == out.read_bytes()

    other = tmp_path / "other.csv"
    assert run_cli(
        "gen-data", "--profile", "sigmoid-5.2", "--seed", "7", "--out", str(other)
    ) == 0
    assert other.read_bytes() != out.read_bytes()


def test_gen_data_mixture(tmp_path):
    out = tmp_path / "means.csv"
    assert run_cli("gen-data", "--profile", "mixture-5.1", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == [
        "i",
        "mean0_x", "mean0_y", "mean1_x", "mean1_y",
        "mean2_x", "mean2_y", "mean3_x", "mean3_y",
    ]
    assert len(rows) == 1000
    first = np.array([float(v) for v in rows[0][1:]]).reshape(4, 2)
    base = np.array([[4, 4], [-4, -4], [-4, 4], [4, -4]], dtype=float)
    assert np.abs(first - base).max() < 4.0  # noise scale is sqrt(0.5)


def test_gen_data_errors(tmp_path):
    assert run_cli("gen-data", "--profile", "nope", "--out", str(tmp_path / "x")) == 2
    missing_dir = tmp_path / "no" / "such" / "dir.csv"
    assert run_cli("gen-data", "--profile", "mixture-5.1", "--out", str(missing_dir)) == 4


LOADS_SCIPY = """
import sys
import psmco
import psmco.cli
import psmco.parallel
psmco.parallel._usable_cpus = lambda: 2  # two parts, so a run forks where forking is quiet
loaded = ["scipy" in sys.modules]
for i, run in enumerate(sys.argv[1:]):
    assert psmco.cli.main(["run", *run.split(), "--out", f"out{i}"]) == 0
    loaded.append("scipy" in sys.modules)
print(psmco.parallel._fork_is_quiet())
print(sorted(name for name in sys.modules if name.partition(".")[0] == "multiprocessing"))
print(loaded)
"""


def test_scipy_is_never_imported(tmp_path):
    """In a fresh interpreter, neither import psmco nor a mixture, sigmoid
    or psgd run loads scipy: the package depends on numpy alone.  The runs
    take two parts and load no multiprocessing module either."""
    env = dict(os.environ, PYTHONPATH=str(Path(psmco.__file__).resolve().parents[1]))
    small = "--override n=200 --override m_workers=2 --override n_particles=10"
    runs = [f"--profile mixture-5.1 {small}", f"--profile sigmoid-5.2 {small}",
            f"--profile sigmoid-5.2 {small} --override algorithm=psgd"]
    done = subprocess.run([sys.executable, "-c", LOADS_SCIPY, *runs], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    *timings, quiet, mp_modules, loaded = done.stdout.splitlines()
    parts = 2 if quiet == "True" else 1
    assert [line.split()[-1] for line in timings] == [f"parts={parts}"] * 2  # the two psmco runs
    assert mp_modules == "[]"
    assert loaded == str([False] * 4)
