import json
import os

import pytest

from dolab import gameio
from dolab.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_generate_and_round_trip(tmp_path):
    out = tmp_path / "mpc3.json"
    assert run_cli("generate", "--family", "MatchingPenniesChain", "--k", "3",
                   "--out", str(out)) == 0
    g = gameio.read_game(out)
    nonterminal = sum(1 for s in range(g.num_states) if not g.is_terminal(s))
    terminal = g.num_states - nonterminal
    assert (nonterminal, terminal) == (3, 12)
    # generate -> load -> re-generate is byte-identical
    again = tmp_path / "again.json"
    gameio.write_game(again, g)
    assert again.read_bytes() == out.read_bytes()


def test_generate_invalid_k():
    assert run_cli("generate", "--family", "MatchingPenniesChain", "--k", "0",
                   "--out", "/tmp/never.json") == 1


def test_run_t3_summary(tmp_path, capsys):
    out = tmp_path / "t3.trace"
    rc = run_cli("run", "--family", "WeakBiggerNumber", "--k", "4",
                 "--algo", "do", "--eps", "1/1",
                 "--best-response", "scripted", "--schedule", "T3",
                 "--init", "0,0", "--out", str(out))
    assert rc == 0
    msg = capsys.readouterr().out
    assert "iterations: 15" in msg
    assert "all certificates passed" in msg
    assert out.exists()


def test_run_unique_or_fail_bigger_number(capsys):
    rc = run_cli("run", "--family", "BiggerNumber", "--k", "3",
                 "--algo", "do", "--eps", "0/1",
                 "--meta-nash", "unique-or-fail",
                 "--best-response", "unique-or-fail", "--init", "0,0")
    assert rc == 0
    assert "iterations: 7" in capsys.readouterr().out


def test_run_alpha_blocked_schedule(capsys):
    rc = run_cli("run", "--family", "MatchingPenniesChain", "--k", "3",
                 "--algo", "alpha-do", "--eps", "1/3", "--alpha", "1/100",
                 "--meta-nash", "scripted", "--best-response", "scripted",
                 "--schedule", "T5", "--init", "theorem")
    assert rc == 0
    assert "schedule blocked at iteration 1" in capsys.readouterr().out


def test_run_legality_exit_code():
    # unique-or-fail from an off-canonical init trips -> exit code 2
    rc = run_cli("run", "--family", "BiggerNumber", "--k", "3",
                 "--algo", "do", "--eps", "0/1",
                 "--meta-nash", "unique-or-fail",
                 "--best-response", "unique-or-fail", "--init", "5,0")
    assert rc == 2


@pytest.mark.parametrize("rates", [("--eps", "1/0"), ("--eps", "1/2/3"),
                                   ("--eps", "1/"),
                                   ("--eps", "1/2", "--alpha", "1/0")])
def test_run_rejects_malformed_rational(rates, capsys):
    algo = "alpha-do" if "--alpha" in rates else "do"
    rc = run_cli("run", "--family", "BiggerNumber", "--k", "2",
                 "--algo", algo, "--init", "0,0", *rates)
    assert rc == 1
    assert capsys.readouterr().err == f"error: not a rational: {rates[-1]!r}\n"


def test_run_theorem_init_needs_theorem_schedule(capsys):
    rc = run_cli("run", "--family", "WeakBiggerNumber", "--k", "3",
                 "--algo", "do", "--init", "theorem")
    assert rc == 1
    assert "--init theorem needs --schedule T3 or T5" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ("run", "--algo", "do", "--init", "0,0", "--max-iters", "3"),
    ("sweep", "--seeds", "0..3"),
])
def test_negative_eps_rejected_before_any_iteration(cmd, capsys):
    rc = run_cli(*cmd, "--family", "BiggerNumber", "--k", "2",
                 "--eps=-1/2")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eps must be >= 0, got -1/2\n"


@pytest.mark.parametrize("init", ["1", "0,x", "0,1,2", ","])
def test_run_rejects_malformed_init(init, capsys):
    rc = run_cli("run", "--family", "BiggerNumber", "--k", "2",
                 "--algo", "do", "--init", init)
    assert rc == 1
    assert capsys.readouterr().err == (
        f'error: --init expects "i,j" with integer indices, got {init!r}\n')


def test_run_on_game_file(tmp_path, capsys):
    out = tmp_path / "wbn.json"
    run_cli("generate", "--family", "WeakBiggerNumber", "--k", "3",
            "--out", str(out))
    rc = run_cli("run", "--game", str(out), "--algo", "do", "--eps", "0/1",
                 "--init", "0,0")
    assert rc == 0


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "WeakBiggerNumber", "k": 3, "algo": "do", "eps": "0/1",
        "init": "0,0",
    }))
    rc = run_cli("run", "--config", str(cfg))
    assert rc == 0
    first = capsys.readouterr().out
    # a flag overrides the config file's k
    rc = run_cli("run", "--config", str(cfg), "--k", "2")
    assert rc == 0
    second = capsys.readouterr().out
    assert first != second
    # a config key sets a run flag; the parser's own fn and command, and
    # keys no flag has, are ignored
    cfg.write_text(json.dumps({
        "family": "WeakBiggerNumber", "k": 3, "algo": "do", "eps": "0/1",
        "init": "0,0", "max-iters": 1, "fn": "generate",
        "command": "generate", "no-such-flag": 1,
    }))
    assert run_cli("run", "--config", str(cfg)) == 1
    assert "did not terminate within 1 iterations" in capsys.readouterr().err
    assert run_cli("run", "--config", str(cfg), "--max-iters", "50") == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("cmd,config,message", [
    ("run", {"max-iters": "5"}, None),
    ("run", {"max_iters": "5.5"},
     "config key 'max_iters': invalid int value '5.5'"),
    ("run", {"max-iters": True}, "config key 'max-iters': invalid int value True"),
    ("run", {"representation": "bogus", "seed": "x"},
     "config key 'representation': invalid choice 'bogus' "
     "(choose from posg, matrix)"),
    ("run", {"seed": "x"}, "config key 'seed': invalid int value 'x'"),
    ("sweep", {"parallel": "1", "seed": "x"}, None),
    ("sweep", {"parallel": "x"}, "config key 'parallel': invalid int value 'x'"),
])
def test_config_values_parsed_like_flags(cmd, config, message, tmp_path,
                                         capsys):
    # a config value goes through its flag's type= and choices= (sweep has
    # no --seed, so that key is ignored there)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = (("run", "--algo", "do", "--init", "0,0") if cmd == "run"
            else ("sweep", "--seeds", "2"))
    rc = run_cli(*argv, "--family", "BiggerNumber", "--k", "2",
                 "--config", str(cfg))
    err = capsys.readouterr().err
    if message is None:
        assert (rc, err) == (0, "")
    else:
        assert (rc, err) == (1, f"error: {message}\n")


def test_fp_brd_matrix_and_last_added_traces_report_back(tmp_path, capsys):
    d = tmp_path / "traces"
    d.mkdir()
    runs = {
        "fp": ("--family", "MatchingPenniesChain", "--k", "2", "--algo", "fp",
               "--rounds", "6", "--best-response", "seeded-random",
               "--seed", "3", "--init", "0,0"),
        "brd": ("--family", "WeakBiggerNumber", "--k", "2", "--algo", "brd",
                "--rounds", "8", "--init", "0,0"),
        "matrix": ("--family", "BiggerNumber", "--k", "2", "--representation",
                   "matrix", "--algo", "do", "--init", "1,0"),
        "last": ("--family", "Incrementing", "--k", "2", "--algo", "do",
                 "--meta-nash", "scripted", "--schedule", "last-added",
                 "--init", "0,0"),
    }
    for name, argv in runs.items():
        assert run_cli("run", *argv, "--out", str(d / f"{name}.trace")) == 0
    capsys.readouterr()
    header = {}
    result = {}
    for name in runs:
        lines = [json.loads(line) for line in
                 (d / f"{name}.trace").read_text().splitlines()]
        header[name], result[name] = lines[0], lines[-1]
    assert header["fp"]["config"]["best_response_mode"] == "seeded-random"
    assert header["fp"]["config"]["seed"] == 3
    assert header["matrix"]["game"]["representation"] == "matrix"
    assert header["last"]["config"]["meta_nash_mode"] == "scripted"
    scripted = [json.loads(line)["meta_mode"] for line in
                (d / "last.trace").read_text().splitlines()[1:-1]]
    assert scripted and set(scripted) == {"scripted-certified"}
    assert run_cli("report", "--traces", str(d),
                   "--out", str(tmp_path / "report.json")) == 0
    table = capsys.readouterr().out.splitlines()
    rows = json.loads((tmp_path / "report.json").read_text())
    got = {(r["family"], r["algorithm"]):
           (r["runs"], r["iterations_min"], r["statuses"]) for r in rows}
    assert got == {
        ("MatchingPenniesChain", "fp"): (1, 6, {"done": 1}),
        ("WeakBiggerNumber", "brd"):
            (1, result["brd"]["rounds"], {result["brd"]["status"]: 1}),
        ("BiggerNumber", "do"):
            (1, result["matrix"]["iterations"], {"converged": 1}),
        ("Incrementing", "do"):
            (1, result["last"]["iterations"], {"converged": 1}),
    }
    assert len(table) == 1 + len(runs)


@pytest.mark.parametrize("argv", [
    ("run", "--algo", "bogus"),
    ("verify-theorem",),
    ("no-such-command",),
])
def test_usage_errors_exit_config(argv, capsys):
    # 2 is reserved for legality and uniqueness failures
    assert run_cli(*argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_ok(capsys):
    assert run_cli("--help") == 0
    assert run_cli("run", "--help") == 0
    assert "usage: dolab" in capsys.readouterr().out


@pytest.mark.parametrize("algo", ["fp", "brd"])
def test_zero_rounds_rejected(algo, tmp_path, capsys):
    game = ("--family", "MatchingPenniesChain", "--k", "2", "--algo", algo,
            "--init", "0,0")
    assert run_cli("run", *game, "--rounds", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rounds must be >= 1\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 0}))
    assert run_cli("run", *game, "--config", str(cfg)) == 1
    assert capsys.readouterr().err == "error: rounds must be >= 1\n"


@pytest.mark.parametrize("seeds", ["x", "0..x", "1,y", "1..2..3"])
def test_sweep_rejects_malformed_seeds(seeds, capsys):
    rc = run_cli("sweep", "--family", "BiggerNumber", "--k", "2",
                 "--seeds", seeds)
    assert rc == 1
    assert capsys.readouterr().err == (
        f'error: --seeds expects a count, "lo..hi" or a comma list of '
        f'integers, got {seeds!r}\n')


def test_sweep_and_trace_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = run_cli("sweep", "--family", "BiggerNumber", "--k", "2",
                     "--eps", "0/1", "--seeds", "0..5", "--out", str(out))
        assert rc == 0
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_requires_two_seeds():
    assert run_cli("sweep", "--family", "BiggerNumber", "--k", "2",
                   "--seeds", "1") == 1


@pytest.mark.parametrize("keep_traces", [False, True])
def test_sweep_parallel_matches_serial(keep_traces, monkeypatch):
    from dolab import harness
    from dolab.traces import run_trace_lines
    pools = []

    class Pool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    serial, s_sum, s_tr = harness.sweep_double_oracle(
        "BiggerNumber", 2, range(6), parallel=1, keep_traces=keep_traces)
    para, p_sum, p_tr = harness.sweep_double_oracle(
        "BiggerNumber", 2, range(6), parallel=2, keep_traces=keep_traces)
    assert pools == [2]  # kept traces do not force a serial run
    assert serial == para
    assert s_sum == p_sum
    assert len(s_tr) == len(p_tr) == (6 if keep_traces else 0)
    assert [run_trace_lines(tr) for tr in s_tr] == \
        [run_trace_lines(tr) for tr in p_tr]


def test_verify_theorem_cli(tmp_path, capsys):
    out = tmp_path / "verify"
    rc = run_cli("verify-theorem", "--theorem", "T3", "--k-min", "2",
                 "--k-max", "3", "--out", str(out))
    assert rc == 0
    msg = capsys.readouterr().out
    assert "T3 k=2: pass" in msg and "T3 k=3: pass" in msg
    verdicts = json.loads((out / "T3_verdicts.json").read_text())
    assert all(v["passed"] for v in verdicts)
    assert any(name.endswith(".trace") for name in os.listdir(out))


def test_verify_theorem_empty_k_range(capsys):
    rc = run_cli("verify-theorem", "--theorem", "T3", "--k-min", "5",
                 "--k-max", "3")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k-min 5 is greater than --k-max 3" in captured.err


def test_report_cli(tmp_path, capsys):
    d = tmp_path / "traces"
    rc = run_cli("verify-theorem", "--theorem", "T5", "--k-min", "2",
                 "--k-max", "2", "--out", str(d))
    assert rc == 0
    capsys.readouterr()
    rc = run_cli("report", "--traces", str(d), "--out",
                 str(tmp_path / "report.json"))
    assert rc == 0
    table = capsys.readouterr().out
    assert "MatchingPenniesChain" in table
    assert (tmp_path / "report.json").exists()


def test_report_missing_dir_exit_code(tmp_path):
    assert run_cli("report", "--traces", str(tmp_path / "nope")) == 4
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", "--traces", str(empty)) == 4
