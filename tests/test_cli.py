"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        assert parser.parse_args(["run", "E3"]).experiment == "E3"
        assert parser.parse_args(["lattice", "--n", "4"]).n == 4
        demo = parser.parse_args(["demo", "--n", "6", "--t", "3", "--crashes", "1"])
        assert demo.n == 6 and demo.t == 3 and demo.crashes == 1
        conditions = parser.parse_args(
            ["conditions", "check", "hamming-ball", "--param", "radius=1"]
        )
        assert conditions.action == "check"
        assert conditions.family == "hamming-ball"
        assert conditions.param == ["radius=1"]
        check = parser.parse_args(
            ["check", "--n", "4", "--t", "1", "--d", "1", "--k", "1", "--workers", "2"]
        )
        assert check.command == "check"
        assert check.n == 4 and check.workers == 2 and check.differential is None


#: Each command's parsed defaults for the options it shares with others.
_SPEC_DEFAULTS = {
    "conditions": {"n": 6, "t": 2, "d": None, "ell": 1, "k": 2, "m": 4},
    "demo": {"n": 8, "t": 4, "d": 2, "ell": 1, "k": 2, "m": 10},
    "sweep": {"n": 8, "t": 4, "d": 2, "ell": 1, "k": 2, "m": 10},
    "check": {"n": 4, "t": 1, "d": 1, "ell": 1, "k": 1, "m": 3},
}
_CONDITION_DEFAULTS = {"condition": "max-legal", "param": []}
_ENGINE_DEFAULTS = {
    "algorithm": "condition-kset", "backend": "sync", "adversary": None,
    "workers": 1, "store": None,
}
_RUN_DEFAULTS = {"crashes": 0, "seed": 0}


@pytest.mark.parametrize(
    "command, shared",
    [
        ("conditions", {**_SPEC_DEFAULTS["conditions"], "param": []}),
        ("demo", {**_SPEC_DEFAULTS["demo"], **_CONDITION_DEFAULTS, **_ENGINE_DEFAULTS,
                  **_RUN_DEFAULTS}),
        ("sweep", {**_SPEC_DEFAULTS["sweep"], **_ENGINE_DEFAULTS, **_RUN_DEFAULTS}),
        ("check", {**_SPEC_DEFAULTS["check"], **_CONDITION_DEFAULTS, **_ENGINE_DEFAULTS}),
    ],
)
def test_each_command_keeps_its_shared_option_defaults(command, shared):
    """The shared option declarations leave every command its own defaults,
    and give no command an option it did not take."""
    parsed = vars(build_parser().parse_args([command]))
    assert {name: parsed[name] for name in shared} == shared
    others = {*_CONDITION_DEFAULTS, *_ENGINE_DEFAULTS, *_RUN_DEFAULTS} - set(shared)
    assert others & set(parsed) == set()


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E12" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "E3"]) == 0
        output = capsys.readouterr().out
        assert "Theorem 3" in output
        assert "[PASS]" in output

    def test_run_unknown_experiment(self, capsys):
        # Regression (raise-builtin): this used to escape main() as a bare
        # KeyError traceback; it is now a ReproError -> exit-2 diagnostic.
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_lattice_ascii(self, capsys):
        assert main(["lattice", "--n", "4"]) == 0
        output = capsys.readouterr().out
        assert "wait-free line" in output

    def test_lattice_dot(self, capsys):
        assert main(["lattice", "--n", "3", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_demo(self, capsys):
        assert main(["demo", "--n", "6", "--t", "3", "--d", "1", "--k", "2", "--crashes", "1"]) == 0
        output = capsys.readouterr().out
        assert "decisions" in output
        assert "rounds executed" in output

    def test_demo_with_condition_family(self, capsys):
        assert main(
            [
                "demo", "--n", "6", "--t", "2", "--d", "1", "--k", "2",
                "--condition", "hamming-ball", "--param", "radius=1",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "ball(center=[10]*6, r=1, l=1)" in output
        assert "in the condition : True" in output

    def test_conditions_list(self, capsys):
        assert main(["conditions"]) == 0
        output = capsys.readouterr().out
        for family in ("max-legal", "min-legal", "frequency-gap", "hamming-ball", "all-vectors"):
            assert family in output

    def test_conditions_describe(self, capsys):
        assert main(
            ["conditions", "describe", "min-legal", "--n", "5", "--t", "2", "--d", "1", "--m", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "min_1-legal(x=1, n=5, m=3)" in output
        assert "size" in output and "member" in output

    def test_conditions_check_legal_family(self, capsys):
        assert main(
            ["conditions", "check", "frequency-gap", "--n", "5", "--t", "2", "--d", "1", "--m", "3"]
        ) == 0
        assert "(1, 1)-legal" in capsys.readouterr().out

    def test_conditions_check_illegal_family_fails(self, capsys):
        # C_all with x = 1 >= l = 1 is not legal (Theorem 9): exit code 1.
        assert main(
            ["conditions", "check", "all-vectors", "--n", "4", "--t", "2", "--d", "1", "--m", "3"]
        ) == 1
        assert "not (1, 1)-legal" in capsys.readouterr().out

    def test_conditions_action_requires_family(self, capsys):
        assert main(["conditions", "describe"]) == 2
        assert "needs a family name" in capsys.readouterr().err

    def test_algorithms_lists_condition_registry(self, capsys):
        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        assert "conditions:" in output and "max-legal" in output


class TestCheckCommand:
    def test_check_passes_on_a_small_exhaustive_cell(self, capsys):
        assert main(
            ["check", "--n", "3", "--t", "1", "--d", "1", "--k", "1", "--m", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "37 schedules" in output
        assert "verdict          : PASS" in output

    def test_check_fails_on_a_broken_algorithm_and_stores_counterexamples(
        self, capsys, tmp_path
    ):
        from repro.check import MUTANT_HASTY_FLOODMIN, register_mutants
        from repro.store import ResultStore

        register_mutants()
        store_path = tmp_path / "ce.jsonl"
        assert main(
            [
                "check", "--n", "3", "--t", "1", "--d", "1", "--k", "1", "--m", "2",
                "--algorithm", MUTANT_HASTY_FLOODMIN, "--store", str(store_path),
            ]
        ) == 1
        output = capsys.readouterr().out
        assert "verdict          : FAIL" in output
        assert "counterexample records" in output
        assert ResultStore(store_path).load_counterexamples()

    def test_check_differential_mode(self, capsys):
        assert main(
            [
                "check", "--n", "3", "--t", "1", "--d", "1", "--k", "1", "--m", "2",
                "--differential", "condition-kset",
            ]
        ) == 0
        assert "verdict          : PASS" in capsys.readouterr().out

    def test_check_differential_unknown_algorithm(self, capsys):
        assert main(
            ["check", "--n", "3", "--t", "1", "--d", "1", "--k", "1",
             "--differential", "nope"]
        ) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_check_differential_shards_like_the_serial_check(self, capsys):
        from repro.check import MUTANT_HASTY_FLOODMIN, register_mutants

        register_mutants()
        base = ["check", "--n", "3", "--t", "1", "--d", "1", "--k", "1", "--m", "2",
                "--algorithm", MUTANT_HASTY_FLOODMIN, "--differential", "floodmin"]
        assert main(base) == 1
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 1
        assert capsys.readouterr().out == serial
        assert "FAIL   reference-decisions" in serial
        assert f"algorithm        : {MUTANT_HASTY_FLOODMIN} vs floodmin" in serial

    def test_check_differential_stores_replayable_records(self, capsys, tmp_path):
        from repro.check import MUTANT_HASTY_FLOODMIN, register_mutants
        from repro.store import ResultStore

        register_mutants()
        store_path = tmp_path / "diff.jsonl"
        assert main(
            ["check", "--n", "3", "--t", "1", "--d", "1", "--k", "1", "--m", "2",
             "--algorithm", MUTANT_HASTY_FLOODMIN, "--differential", "floodmin",
             "--max-counterexamples", "3", "--store", str(store_path)]
        ) == 1
        assert "(3 counterexample records)" in capsys.readouterr().out
        loaded = ResultStore(store_path).load_counterexamples()
        assert [ce.oracle for ce in loaded] == ["reference-decisions"] * 3
        for counterexample in loaded:
            assert counterexample.replay().decisions == counterexample.decisions

    def test_check_differential_refuses_the_net_backend(self, capsys):
        assert main(
            ["check", "--backend", "net", "--algorithm", "floodmin", "--n", "3",
             "--t", "1", "--d", "1", "--k", "1", "--differential", "floodmin"]
        ) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "the net check does not take reference" in captured.err

    @pytest.mark.parametrize(
        "flag, value, bound",
        [
            ("--depth", "3", "depth"),
            ("--max-crashes", "1", "max_crashes"),
            ("--adversary", "send-omission", "adversary"),
            ("--max-faults", "2", "max_faults"),
        ],
    )
    def test_check_differential_refuses_other_backends_bounds(
        self, capsys, flag, value, bound
    ):
        assert main(
            ["check", "--n", "3", "--t", "1", "--d", "1", "--k", "1",
             "--differential", "floodmin", flag, value]
        ) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert f"the sync check does not take {bound}; it takes rounds" in captured.err


#: A small spec every backend runs in milliseconds.
SMALL = ["--n", "4", "--t", "1", "--d", "1", "--k", "1", "--m", "3"]


@pytest.fixture
def run_knobs(monkeypatch):
    """The keyword arguments each ``Engine.run`` call of the CLI receives."""
    calls = []
    original = Engine.run

    def spy(self, vector, schedule=None, **knobs):
        calls.append(knobs)
        return original(self, vector, schedule, **knobs)

    monkeypatch.setattr(Engine, "run", spy)
    return calls


class TestAdversaryFlag:
    """The shared --adversary flag is forwarded as the backend's engine
    keyword; the engine alone refuses a knob or name the backend lacks."""

    def test_default_knobs(self, capsys, run_knobs):
        assert main(["demo", *SMALL, "--backend", "async"]) == 0
        assert run_knobs == [{"async_adversary": None}]
        default = capsys.readouterr().out
        assert main(["demo", *SMALL, "--backend", "async", "--adversary", "random"]) == 0
        assert capsys.readouterr().out == default
        net = ["demo", *SMALL, "--backend", "net", "--algorithm", "floodmin"]
        assert main(net) == 0
        assert "failure model    : fault-free" in capsys.readouterr().out

    def test_async_name_on_async_backend(self, capsys, run_knobs):
        argv = ["demo", *SMALL, "--backend", "async", "--adversary", "latency-skew"]
        assert main(argv) == 0
        assert run_knobs == [{"async_adversary": "latency-skew"}]

    def test_net_name_on_net_backend(self, capsys, run_knobs):
        argv = ["demo", *SMALL, "--backend", "net", "--algorithm", "floodmin",
                "--adversary", "send-omission"]
        assert main(argv) == 0
        assert run_knobs == [{"net_adversary": "send-omission"}]
        assert "failure model    : send-omission" in capsys.readouterr().out

    def test_async_name_on_net_backend_is_rejected(self, capsys):
        argv = ["demo", *SMALL, "--backend", "net", "--algorithm", "floodmin",
                "--adversary", "latency-skew"]
        assert main(argv) == 2
        assert "unknown net adversary 'latency-skew'" in capsys.readouterr().err

    def test_net_name_on_async_backend_is_rejected(self, capsys):
        argv = ["demo", *SMALL, "--backend", "async", "--adversary", "send-omission"]
        assert main(argv) == 2
        assert "unknown async adversary 'send-omission'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["demo"], ["sweep", "--grid", "k=1"]])
    def test_sync_backend_refuses_an_adversary(self, capsys, command):
        argv = [*command, *SMALL, "--backend", "sync", "--adversary", "latency-skew"]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert "sync backend" in error and "async_adversary" in error


#: A net run of floodmin, whose adversary is a net failure model.
NET = ["--backend", "net", "--algorithm", "floodmin"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["demo", "--algorithm", "no-such"], "unknown algorithm 'no-such'"),
        (["sweep", "--grid", "k=1", "--algorithm", "no-such"], "unknown algorithm 'no-such'"),
        (["check", "--algorithm", "no-such"], "unknown algorithm 'no-such'"),
        (["demo", "--condition", "no-such"], "unknown condition 'no-such'"),
        (["check", "--condition", "no-such"], "unknown condition 'no-such'"),
        (["demo", "--backend", "no-such"], "unknown backend 'no-such'"),
        (["sweep", "--grid", "k=1", "--backend", "no-such"], "unknown backend 'no-such'"),
        (["check", "--backend", "no-such"], "unknown backend 'no-such'"),
        (["demo", *NET, "--adversary", "no-such"], "unknown net adversary 'no-such'"),
        (["demo", "--backend", "async", "--adversary", "no-such"],
         "unknown async adversary 'no-such'"),
        (["demo", "--backend", "async", "--adversary", "no-such", "--runs", "2",
          "--workers", "2"], "unknown async adversary 'no-such'"),
        (["sweep", "--grid", "k=1", *NET, "--adversary", "no-such"],
         "unknown net adversary 'no-such'"),
        (["sweep", "--grid", "k=1", "--backend", "async", "--adversary", "no-such"],
         "unknown async adversary 'no-such'"),
        (["check", *NET, "--adversary", "no-such"], "unknown net adversary 'no-such'"),
        (["sweep", "--grid", "k=1", "--vectors", "no-such"],
         "vectors must be 'in', 'out' or 'random', got 'no-such'"),
    ],
)
def test_an_unknown_name_is_refused_by_its_registry(capsys, argv, message):
    """The parser lists no names: the registry or the engine refuses an
    unknown one before anything runs, and main exits 2 with its message."""
    assert main([*argv[:1], *SMALL, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
