"""Command-line interface: subcommands, exit codes, config files, the
effective-config echo, and output formats."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqca import cli, law, metrics, parties
from cqca.channel import AttackKind, AttackTarget, FakeStrategy
from cqca.cli import (
    RunConfig,
    build_parser,
    format_effective_config,
    main,
    parse_config_file,
)
from cqca.metrics import expected_multi_rate
from cqca.parties import line_to_round


#: Flags that keep a subcommand's run small, where it takes a size.
_SMALL_RUN = {"simulate": ("--n", "2000"), "analyze": ("--grid-points", "3")}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThresholdCommand:
    def test_prints_ten_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "threshold")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert values["theta_star"] == "0.4185071162"
        assert values["e_star"] == "0.141747602"


class TestSimulateCommand:
    def test_honest_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "5000", "--seed", "3")
        assert code == 0
        assert "verdict = KeyProduced" in out
        assert "(expected" in out  # empirical-vs-theory table

    def test_probe_attack_aborts_with_reason(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "5000", "--seed", "3", "--attack", "eve", "--theta", "0.6"
        )
        assert code == 2
        assert "ABORT" in out and "errorRate" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "4000", "--seed", "5", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()[:2]
        assert header == "n,kappa,visibility,bias,errorRate,r,lambda,verdict"
        assert row.split(",")[0] == "4000"

    def test_json_lines_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "4000", "--seed", "5", "--format", "json-lines"
        )
        assert code == 0
        payload = json.loads(out.strip().splitlines()[0])
        assert payload["n"] == 4000
        assert payload["verdict"] == "KeyProduced"
        assert 0.99 <= payload["visibility"] <= 1.0

    def test_expected_column_follows_dark_counts(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--n", "4000", "--seed", "5", "--dark-rate", "0.05",
            "--format", "json-lines",
        )
        expected = json.loads(out.strip().splitlines()[0])["expected"]
        assert expected["coincidence_rate"] == pytest.approx(0.05, abs=1e-9)
        assert expected["multi_rate"] == pytest.approx(expected_multi_rate(0.05), abs=1e-9)

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "simulate", "--n", "4000", "--seed", "9")
        _, second, _ = run_cli(capsys, "simulate", "--n", "4000", "--seed", "9")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "4000", "--seed", "5", "--output", str(target)
        )
        assert code == 0
        assert "verdict = KeyProduced" in target.read_text()


class TestProtocolCommand:
    def test_writes_transcript_and_keys(self, capsys, tmp_path):
        target = tmp_path / "transcript.txt"
        code, out, _ = run_cli(
            capsys,
            "protocol",
            "--n",
            "4000",
            "--seed",
            "7",
            "--output",
            str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 4000
        records = [line_to_round(line) for line in lines]
        key_lines = (tmp_path / "transcript.txt.keys").read_text()
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert values["key_bob_hex"] == values["key_charlie_hex"]
        assert f"key_bits = {sum(r.sifted_bit is not None for r in records)}" in key_lines
        key_ids = [r.round_id for r in records if r.sifted_bit is not None]
        assert key_lines.endswith("\nkey_round_ids = " + ",".join(map(str, key_ids)) + "\n")
        # keys reconstructible from the transcript file alone
        bits = [r.sifted_bit for r in records if r.sifted_bit is not None]
        from cqca.parties import key_to_hex

        assert key_to_hex(bits) == values["key_bob_hex"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_honest_lossy_dark_channel_keeps_its_key(self, capsys, tmp_path, seed):
        code, out, _ = run_cli(
            capsys, "protocol", "--loss", "0.2", "--dark-rate", "0.01", "--n", "100000",
            "--seed", str(seed), "--output", str(tmp_path / "t.txt"),
        )
        assert code == 0, out

    def test_abort_exit_code_and_reason(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "protocol",
            "--n",
            "4000",
            "--seed",
            "7",
            "--attack",
            "alice-double",
            "--p",
            "1.0",
            "--output",
            str(tmp_path / "t.txt"),
        )
        assert code == 2
        abort_lines = [line for line in out.splitlines() if line.startswith("ABORT")]
        assert abort_lines and "coincidence" in abort_lines[0]

    @pytest.mark.parametrize(
        "abort", [("--attack", "alice-double", "--p", "1.0"), ("--n", "3")],
        ids=["verdict", "insufficient-sample"],
    )
    def test_abort_leaves_no_earlier_run_files(self, capsys, tmp_path, abort):
        target = tmp_path / "t.txt"
        keys = tmp_path / "t.txt.keys"
        run = ("protocol", "--n", "4000", "--seed", "7", "--output", str(target))
        assert run_cli(capsys, *run)[0] == 0 and keys.is_file()
        code, _, _ = run_cli(capsys, *run, *abort)
        assert code == 2 and not keys.exists()
        # the verdict abort writes its own transcript; the sample abort has none
        assert target.exists() == (abort[0] == "--attack")

    def test_abort_leaves_what_is_not_a_regular_file(self, capsys, tmp_path):
        target = tmp_path / "t.txt"
        (tmp_path / "t.txt.keys").mkdir()
        code, _, _ = run_cli(capsys, "protocol", "--n", "3", "--output", str(target))
        assert code == 2 and (tmp_path / "t.txt.keys").is_dir()

    def test_failed_removal_exits_one(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "t.txt"
        (tmp_path / "t.txt.keys").write_text("key_bits = 1\n")

        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(os, "unlink", refuse)
        code, out, err = run_cli(
            capsys, "protocol", "--n", "4000", "--seed", "7", "--attack", "alice-double",
            "--p", "1.0", "--output", str(target),
        )
        assert code == 1 and "ABORT" not in out
        assert f"error: cannot write {target}.keys: Permission denied" in err


class TestAnalyzeCommand:
    def test_writes_curve_csv(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "analyze", "--grid-points", "50", "--output", str(target)
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "theta,e,visibility,e1,chi,i_bc,key_rate"
        assert len(lines) == 51


class TestOutputFiles:
    """Output files are rewritten in place and cut to the new length."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "2000", "--format", "csv"),
            ("protocol", "--n", "2000", "--seed", "7"),
            ("analyze", "--grid-points", "3"),
            ("threshold",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_rewrites_a_longer_file_exactly(self, capsys, tmp_path, argv):
        fresh, reused = tmp_path / "fresh.txt", tmp_path / "reused.txt"
        suffixes = ("", ".keys") if argv[0] == "protocol" else ("",)
        if argv[0] == "protocol":
            # an earlier, longer session with more key bits
            run_cli(capsys, "protocol", "--n", "4000", "--seed", "7", "--output", str(reused))
        else:
            reused.write_bytes(b"earlier output\n" * 5000)
        earlier = {suffix: Path(f"{reused}{suffix}").read_text() for suffix in suffixes}
        assert run_cli(capsys, *argv, "--output", str(fresh))[0] == 0
        assert run_cli(capsys, *argv, "--output", str(reused))[0] == 0
        for suffix in suffixes:
            now = Path(f"{reused}{suffix}").read_text()
            assert len(now) < len(earlier[suffix])
            assert now == Path(f"{fresh}{suffix}").read_text()
        if argv[0] == "protocol":
            first, second = (
                int(text.partition("\n")[0].removeprefix("key_bits = "))
                for text in (earlier[".keys"], now)
            )
            assert second < first

    def test_failed_write_leaves_no_earlier_bytes(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "t.txt"
        target.write_bytes(b"earlier transcript\n" * 5000)

        def failing_chunks(rounds):
            yield b"0,first chunk\n"
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(parties, "transcript_chunks", failing_chunks)
        code, out, err = run_cli(capsys, "protocol", "--n", "2000", "--output", str(target))
        assert code == 1 and out == ""
        assert f"error: cannot write {target}: No space left on device" in err
        assert target.read_bytes() == b"0,first chunk\n"

    @pytest.mark.parametrize("command", ["simulate", "analyze", "threshold"])
    def test_device_output_is_not_cut(self, capsys, command):
        size = _SMALL_RUN.get(command, ())
        code, _, err = run_cli(capsys, command, *size, "--output", os.devnull)
        assert code == 0, err


class TestConfigHandling:
    def test_config_file_and_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n = 4000\nseed = 5\ntheta = 0.6  # strong probe\nattack = eve\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--theta", "0.1")
        assert code == 0  # flag override wins: theta 0.1 passes the checks
        assert "verdict = KeyProduced" in out

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        # the abort tolerances are constants, not settings
        for text in ("bogus = 1\n", "floor = 0.02\n"):
            config.write_text(text)
            code, _, err = run_cli(capsys, "simulate", "--config", str(config))
            assert code == 1
            assert "unknown config key" in err

    def test_malformed_config_line_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("just some words\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "error: cannot read /nonexistent.cfg: No such file or directory" in err

    def test_bad_flag_value_exits_one(self, capsys):
        for argv in (
            ("simulate", "--attack", "bogus"),
            # the abort tolerances are constants, not flags
            ("simulate", "--floor", "nan"),
            ("protocol", "--attack", "alice-double", "--p", "1.0", "--n", "2000", "--z", "3"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert "error:" in err and "Traceback" not in err
            assert out == ""

    def test_out_of_range_parameter_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--attack", "eve", "--theta", "3.0")
        assert code == 1
        assert "theta" in err or "angle" in err

    def test_effective_config_round_trips(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "4000", "--seed", "5", "--theta", "0.25")
        assert code == 0
        echo = err.split("# effective-config\n", 1)[1]
        values = parse_config_file(echo)
        command = values.pop("command")
        rebuilt = RunConfig(command=command, **values)
        baseline = RunConfig(command="simulate", n=4000, seed=5, theta=0.25)
        assert rebuilt == baseline

    def test_effective_config_covers_every_field(self, capsys):
        cfg = RunConfig(command="protocol", output="x.txt")
        echo = format_effective_config(cfg)
        for fld in dataclasses.fields(RunConfig):
            assert f"{fld.name} = " in echo

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "3000", "--seed", "4", "--attack", "eve", "--output", "none"),
            ("protocol", "--n", "3000", "--seed", "4", "--output", "t.txt"),
            ("analyze", "--grid-points", "7", "--output", "none"),
            ("threshold", "--output", "none"),
            pytest.param(
                ("protocol", "--n", "3000", "--seed", "4", "--output", "a#b.txt"),
                id="protocol-hash-in-output",
            ),
        ],
        ids=lambda argv: argv[0],
    )
    def test_echo_reruns_the_run(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        config = tmp_path / "echo.cfg"
        config.write_text(err.split("# effective-config\n", 1)[1])
        rerun_code, rerun_out, _ = run_cli(capsys, argv[0], "--config", str(config))
        assert (rerun_code, rerun_out) == (code, out)

    @pytest.mark.parametrize("value", ["a #b.txt", " a.txt", "a.txt ", "#a.txt", "a\nb.txt"])
    def test_flag_its_echo_cannot_carry_exits_one(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "threshold", "--output", value)
        assert code == 1 and out == ""
        assert "error: output " in err and "would not survive its echo" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_choice_names_the_choices(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("format = xml\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1 and out == ""
        choices = "(choose from 'csv', 'json-lines', 'text')"
        assert "format" in err and choices in err
        _, _, flag_err = run_cli(capsys, "simulate", "--format", "xml")
        assert choices in flag_err

    @pytest.mark.parametrize("command", ["simulate", "analyze", "threshold"])
    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_output_none_is_stdout(self, capsys, tmp_path, monkeypatch, command, spelling):
        monkeypatch.chdir(tmp_path)
        if spelling == "flag":
            output_args = ("--output", "none")
        else:
            (tmp_path / "run.cfg").write_text("output = none\n")
            output_args = ("--config", "run.cfg")
        size = _SMALL_RUN.get(command, ())
        code, out, _ = run_cli(capsys, command, *size, *output_args)
        assert code == 0 and out
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("command", ["protocol", "analyze", "threshold"])
    def test_format_only_on_simulate(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--format", "csv")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --format" in err

    @pytest.mark.parametrize(
        "command,key",
        [("threshold", "n"), ("analyze", "seed"), ("simulate", "grid_points"), ("analyze", "f")],
    )
    def test_bounds_checked_only_where_taken(self, capsys, tmp_path, command, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = -1\noutput = {tmp_path / 'out.txt'}\n")
        size = _SMALL_RUN.get(command, ())
        code, _, err = run_cli(capsys, command, *size, "--config", str(config))
        assert code == 0, err

    def test_honest_run_walks_one_law(self, capsys, tmp_path):
        for cached in (law.outcome_law, law.outcome_table, metrics._honest_baseline,
                       parties._sampling_plan):
            cached.cache_clear()
        code, _, _ = run_cli(capsys, "protocol", "--n", "2000", "--output", str(tmp_path / "t"))
        assert code == 0
        assert law.outcome_law.cache_info().misses == 1


class TestRobustness:
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "2000"),
            ("protocol", "--n", "2000"),
            ("analyze", "--grid-points", "5"),
            ("threshold",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_exits_one(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 1
        assert f"error: cannot write {target}: " in err
        assert "Traceback" not in err and out == ""

    def test_directory_as_transcript_output_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "protocol", "--n", "2000", "--output", str(tmp_path))
        assert code == 1
        assert f"error: cannot write {tmp_path}: " in err
        assert "Traceback" not in err and out == ""

    def test_directory_as_keys_file_exits_one(self, capsys, tmp_path):
        target = tmp_path / "t.txt"
        (tmp_path / "t.txt.keys").mkdir()
        code, out, err = run_cli(capsys, "protocol", "--n", "2000", "--output", str(target))
        assert code == 1
        assert f"error: cannot write {target}.keys: " in err
        assert "Traceback" not in err and "key_bits" not in out
        assert len(target.read_text().splitlines()) == 2000

    def test_directory_as_config_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "--config", str(tmp_path))
        assert code == 1
        assert f"error: cannot read {tmp_path}: " in err
        assert "Traceback" not in err and out == ""

    def test_config_that_is_not_utf8_exits_one(self, capsys, tmp_path):
        config = tmp_path / "bin.cfg"
        config.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1
        assert f"error: cannot read {config}: " in err
        assert "Traceback" not in err and out == ""

    def test_config_with_a_byte_order_mark_runs(self, capsys, tmp_path):
        # an editor may save UTF-8 with a leading BOM; it is not part of the first key
        config = tmp_path / "bom.cfg"
        config.write_bytes(b"\xef\xbb\xbfn = 2000\n")
        code, _, err = run_cli(capsys, "threshold", "--config", str(config))
        assert code == 0
        assert "\nn = 2000\n" in err and "error" not in err

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_nul_byte_in_output_exits_one_before_any_session(self, capsys, tmp_path, command):
        # argv cannot carry a NUL byte, so only a config file can
        config = tmp_path / "nul.cfg"
        config.write_bytes(b"n = 2000\ngrid_points = 3\noutput = a\x00b\n")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 1
        assert "error: line 3: bad value for output: 'a\\x00b'" in err
        assert "Traceback" not in err and "effective-config" not in err and out == ""

    def test_null_probe_round_has_no_traceback(self, capsys):
        # a dark D1 on a lost double reflection under a zero-strength probe
        # leaves Eve's probe with no amplitude
        code, _, _ = run_cli(
            capsys, "simulate", "--attack", "eve", "--theta", "0", "--loss", "0.5",
            "--dark-rate", "0.1", "--n", "2000",
        )
        assert code in (0, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", str(10**15)),
            ("protocol", "--n", str(10**15)),
            ("analyze", "--grid-points", str(10**15)),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unallocatable_size_exits_one(self, capsys, tmp_path, argv):
        # numpy refuses a 10**15-element array at once, allocating nothing
        target = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 1
        assert "error: out of memory: " in err
        assert "Traceback" not in err and out == "" and not target.exists()

    @pytest.mark.parametrize(
        "argv", [("simulate", "--n", "5"), ("protocol", "--n", "20", "--f", "0.1")]
    )
    def test_undersized_sample_aborts(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, *argv, "--output", str(tmp_path / "out.txt"))
        assert code == 2
        assert out.strip().splitlines()[-1] == "ABORT reasons=insufficientSample"

    @pytest.mark.parametrize("command", ["simulate", "protocol"])
    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_negative_seed_exits_one(self, capsys, tmp_path, command, spelling):
        if spelling == "flag":
            seed_args = ("--seed", "-1")
        else:
            config = tmp_path / "run.cfg"
            config.write_text("seed = -1\n")
            seed_args = ("--config", str(config))
        output = ("--output", str(tmp_path / "out.txt"))
        code, out, err = run_cli(capsys, command, "--n", "2000", *seed_args, *output)
        assert code == 1
        assert "error: seed must be non-negative" in err
        assert "Traceback" not in err and out == ""

    def test_reused_parser_behaves_like_a_fresh_one(self, capsys, tmp_path, monkeypatch):
        assert build_parser() is build_parser()
        transcript = tmp_path / "t.txt"
        sequence = (
            ("protocol", "--n", "many"),
            ("protocol", "--n", "2000", "--seed", "3", "--output", str(transcript)),
            ("simulate", "--n", "2000", "--seed", "3", "--format", "csv"),
        )

        def run_sequence():
            runs = [run_cli(capsys, *argv) for argv in sequence]
            return runs, transcript.read_bytes()

        reused = run_sequence()
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = run_sequence()
        assert [code for code, _, _ in reused[0]] == [1, 0, 0]
        assert reused == fresh


def _rate(high: float):
    return st.one_of(st.sampled_from([0.0, high]), st.floats(0.0, high))


@st.composite
def _run_argv(draw):
    """``simulate`` or ``protocol`` arguments from across the input space."""
    command = draw(st.sampled_from(["simulate", "protocol"]))
    seed = draw(st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([-1, 2**200])))
    argv = [
        command,
        "--n", str(draw(st.one_of(st.integers(1, 2000), st.just(10**15)))),
        "--seed", str(seed),
        "--attack", draw(st.sampled_from([k.value for k in AttackKind])),
        "--theta", repr(draw(_rate(math.pi / 2))),
        "--p", repr(draw(_rate(1.0))),
        "--strategy", draw(st.sampled_from([s.value for s in FakeStrategy])),
        "--target", draw(st.sampled_from([t.value for t in AttackTarget])),
        "--loss", repr(draw(_rate(0.999))),
        "--dark-rate", repr(draw(_rate(0.5))),
    ]
    if command == "protocol":
        argv += ["--f", repr(draw(st.one_of(st.just(1e-3), st.floats(1e-6, 0.999))))]
    return argv


@settings(max_examples=25, deadline=None)
@given(argv=_run_argv())
def test_run_commands_exit_cleanly(tmp_path_factory, argv):
    argv = [*argv, "--output", str(tmp_path_factory.mktemp("run") / "out.txt")]
    build_parser().parse_args(argv)  # a usage error would only test the parser
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


#: sha256 of the transcript and of the ``.keys`` file (None: none written)
#: of three 20,000-round ``protocol`` runs: honest, Eve on a lossy dark
#: channel, and a double-click source attack that aborts.
_PINNED_OUTPUTS = [
    (
        ("--seed", "1"),
        0,
        "81a074aed3377c272a4105d20a6e284db1dc202445265ce787d122d421822e9a",
        "d07397b2614f43ed4e3678a391335be6e9dd60a4f28eff90230ee904c1df3a8a",
    ),
    (
        ("--attack", "eve", "--theta", "0.3", "--loss", "0.2", "--dark-rate", "0.01", "--seed", "2"),
        0,
        "607eb3f4a04ce277b22a7d11b4e001ca0912aa8a349dd2cfcdc22de0cdf8206d",
        "34f7f6d170eb8e45aa5538761afcf5d44ba1b75c14bead2645344a84157f0a87",
    ),
    (
        ("--attack", "alice-double", "--p", "1.0", "--seed", "3"),
        2,
        "8a286ac03e07c9c5b213203ddecd2239a87e8ca3e31c533b874aaa2e830fecd5",
        None,
    ),
]


@pytest.mark.parametrize(
    "argv,exit_code,transcript_sha,keys_sha", _PINNED_OUTPUTS, ids=["honest", "eve", "double"]
)
def test_protocol_output_bytes_are_pinned(
    capsys, tmp_path, argv, exit_code, transcript_sha, keys_sha
):
    """A ``protocol`` run's files are byte for byte those of the recorded
    runs, so a change to how a session is held or written cannot change
    them unnoticed.  A deliberate change of the file format updates these
    constants, and its change record names the format change."""
    target = tmp_path / "t.txt"
    code, _, _ = run_cli(capsys, "protocol", "--n", "20000", *argv, "--output", str(target))
    assert code == exit_code
    assert hashlib.sha256(target.read_bytes()).hexdigest() == transcript_sha
    keys = tmp_path / "t.txt.keys"
    assert (hashlib.sha256(keys.read_bytes()).hexdigest() if keys.exists() else None) == keys_sha
