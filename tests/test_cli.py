"""Tests for the `repro` command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.server.config import WritePath


class TestParser:
    def test_table_requires_valid_number(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "9"])
        args = parser.parse_args(["table", "3"])
        assert args.number == 3
        assert args.file_mb == 10.0

    def test_copy_defaults(self):
        args = build_parser().parse_args(["copy"])
        assert args.net == "fddi"
        assert args.biods == 7
        assert not args.gather

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_write_path_choices(self):
        args = build_parser().parse_args(["copy", "--write-path", "siva"])
        assert args.write_path == "siva"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["copy", "--write-path", "bogus"])

    def test_net_fault_flags(self):
        for command in ("copy", "laddis", "sweep"):
            prefix = [command] if command != "sweep" else ["sweep", "nbiods", "1"]
            args = build_parser().parse_args(
                prefix + ["--loss-rate", "0.05", "--net-seed", "9"]
            )
            assert args.loss_rate == 0.05
            assert args.net_seed == 9
            defaults = build_parser().parse_args(prefix)
            assert defaults.loss_rate == 0.0
            assert defaults.net_seed is None


class TestWritePathFlags:
    def test_new_flag_selects_path(self, capsys):
        assert (
            main(["copy", "--write-path", "gather", "--biods", "7", "--file-mb", "0.5"])
            == 0
        )
        captured = capsys.readouterr()
        assert "/gather" in captured.out
        assert "deprecated" not in captured.err

    def test_removed_gather_flag_errors_with_pointer(self, capsys):
        assert main(["copy", "--gather", "--file-mb", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "--gather was removed" in err
        assert "--write-path gather" in err

    def test_removed_siva_flag_errors_with_pointer(self, capsys):
        assert main(["copy", "--siva", "--file-mb", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "--siva was removed" in err
        assert "--write-path siva" in err

    def test_enum_round_trip(self):
        assert WritePath.coerce("gather") is WritePath.GATHER
        assert WritePath.coerce(WritePath.SIVA) is WritePath.SIVA
        assert str(WritePath.STANDARD) == "standard"
        assert f"{WritePath.GATHER}" == "gather"
        with pytest.raises(ValueError):
            WritePath.coerce("bogus")


class TestJsonOutput:
    def test_copy_json_includes_phase_percentiles(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--net",
                    "fddi",
                    "--biods",
                    "7",
                    "--write-path",
                    "gather",
                    "--json",
                    "--file-mb",
                    "0.5",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"].endswith("/gather")
        phases = payload["phases"]
        for phase in (
            "net.sockbuf",
            "server.vnode_wait",
            "gather.procrastinate",
            "storage.commit",
            "reply.delay",
        ):
            assert {"p50", "p95", "p99"} <= set(phases[phase]), phase

    def test_table_json(self, capsys):
        assert main(["table", "1", "--file-mb", "0.25", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"] == 1
        assert len(payload["standard"]) == len(payload["biods"])

    def test_sweep_json(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "nbiods",
                    "0",
                    "7",
                    "--write-path",
                    "gather",
                    "--file-mb",
                    "0.25",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["field"] == "nbiods"
        assert len(payload["results"]) == 2


class TestCommands:
    def test_copy_standard(self, capsys):
        assert main(["copy", "--net", "fddi", "--biods", "3", "--file-mb", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "client write speed" in out
        assert "fddi/standard" in out

    def test_copy_gather_shows_batch_stats(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--write-path",
                    "gather",
                    "--biods",
                    "7",
                    "--file-mb",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean gathered batch size" in out

    def test_copy_interval_override(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--write-path",
                    "gather",
                    "--interval-ms",
                    "2",
                    "--file-mb",
                    "0.5",
                ]
            )
            == 0
        )
        assert "gather" in capsys.readouterr().out

    def test_copy_rejects_removed_aliases(self, capsys):
        assert main(["copy", "--gather", "--siva"]) == 2
        assert "--write-path" in capsys.readouterr().err

    def test_copy_presto_stripes(self, capsys):
        assert (
            main(
                ["copy", "--presto", "--stripes", "3", "--file-mb", "0.5"]
            )
            == 0
        )
        assert "presto" in capsys.readouterr().out

    def test_table_small(self, capsys):
        assert main(["table", "1", "--file-mb", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Without Write Gathering" in out
        assert "measured vs paper" in out

    def test_trace(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "standard server" in out
        assert "gathering server" in out

    def test_laddis_tiny(self, capsys):
        assert (
            main(["laddis", "--loads", "60", "--duration", "1.0"]) == 0
        )
        out = capsys.readouterr().out
        assert "capacity" in out

    def test_copy_with_injected_loss_still_converges(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--file-mb",
                    "0.5",
                    "--loss-rate",
                    "0.02",
                    "--net-seed",
                    "9",
                ]
            )
            == 0
        )
        assert "client write speed" in capsys.readouterr().out


class TestClusterCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.servers == [2]
        assert args.clients == [4]
        assert args.vnodes == 64
        assert args.crash_shard is None
        assert not args.presto

    def test_single_run_human_output(self, capsys):
        assert main(["cluster", "--servers", "2", "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 servers x 2 clients" in out
        assert "crash contract held" in out

    def test_json_shape(self, capsys):
        assert (
            main(["cluster", "--servers", "2", "--clients", "2", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["servers"] == 2
        assert payload["clients"] == 2
        assert payload["clean"] is True
        assert len(payload["per_shard"]) == 2
        assert sum(payload["placement"].values()) == 2 * payload["files_per_client"]

    def test_removed_gather_alias_errors(self, capsys):
        assert main(["cluster", "--clients", "1", "--gather"]) == 2
        assert "--write-path gather" in capsys.readouterr().err

    def test_write_path_option_selects_siva(self, capsys):
        assert (
            main(
                ["cluster", "--clients", "1", "--write-path", "siva", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["write_path"] == str(WritePath.SIVA)

    def test_crash_run_exits_zero_when_contract_holds(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--servers",
                    "3",
                    "--clients",
                    "3",
                    "--crash-shard",
                    "1",
                    "--crash-at",
                    "0.05",
                    "--outage",
                    "0.2",
                    "--redirect",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["crashes"] == 1
        assert payload["faults"][0]["redirected"] is True

    def test_sweep_mode_prints_efficiency_table(self, capsys):
        assert (
            main(["cluster", "--servers", "1", "2", "--clients", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "efficiency" in out
        assert "ok" in out

    def test_sweep_rejects_crash_flags(self, capsys):
        assert (
            main(["cluster", "--servers", "1", "2", "--crash-shard", "0"]) == 2
        )
        assert "single-cell" in capsys.readouterr().err


class TestBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.net == "fddi"
        assert args.file_mb == 2.0
        assert args.biods == 7
        assert args.out is None

    def test_json_shape(self, capsys):
        assert main(["bench", "--file-mb", "0.25", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.bench/1"
        assert len(payload["cells"]) == 8  # 4 write paths x presto off/on
        for cell in payload["cells"]:
            assert {"p50", "p99", "mean"} <= set(cell["write_latency_ms"])
            assert cell["client_kb_per_sec"] > 0
            assert cell["disk_writes_per_mb"] > 0
            assert cell["sim_ops"] > 0
            assert cell["sim_ops_per_sec"] > 0

    def test_out_file_written_and_deterministic(self, tmp_path, capsys):
        first = tmp_path / "BENCH_a.json"
        second = tmp_path / "BENCH_b.json"
        assert main(["bench", "--file-mb", "0.25", "--out", str(first)]) == 0
        assert main(["bench", "--file-mb", "0.25", "--out", str(second)]) == 0
        capsys.readouterr()

        def stable(path):
            # sim_ops_per_sec is wall-clock-derived — the one field allowed
            # to differ between same-seed reruns.
            payload = json.loads(path.read_text())
            for cell in payload["cells"]:
                cell.pop("sim_ops_per_sec", None)
            return payload

        assert stable(first) == stable(second)
        payload = json.loads(first.read_text())
        assert payload["file_mb"] == 0.25
        assert payload["payload"] == "flyweight"


#: Positional arguments a command needs, and the params fields they set.
_REQUIRED = {
    "table": (["1"], {"table": 1}),
    "sweep": (["nbiods", "1"], {"sweep_field": "nbiods", "values": (1,)}),
}

#: One invalid value per command that takes flags.
_INVALID = {
    "table": ["table", "1", "--file-mb", "0"],
    "copy": ["copy", "--file-mb", "-1"],
    "laddis": ["laddis", "--duration", "0"],
    "chaos": ["chaos", "--plans", "0"],
    "sweep": ["sweep", "nonsense", "1"],
    "cluster": ["cluster", "--servers", "0"],
    "overload": ["overload", "--clients", "0"],
    "bench": ["bench", "--file-mb", "0"],
    "replica": ["replica", "--quorum", "5", "--replicas", "1"],
    "cache": ["cache", "--clients", "1"],
    "commit": ["commit", "--file-mb", "0"],
    "scrub": ["scrub", "--rates", "2"],
    "tiering": ["tiering", "--policies", "bogus"],
}


class TestCommandContract:
    """One contract body, asserted for every registered command."""

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_parser_defaults_equal_params_defaults(self, name):
        command = COMMANDS[name]
        argv, fields = _REQUIRED.get(name, ([], {}))
        args = build_parser().parse_args([name, *argv])
        defaults = command.params()
        assert command.build(args, defaults) == replace(defaults, **fields)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_bad_value_exits_2_with_one_line(self, name, capsys):
        if name not in _INVALID:
            assert COMMANDS[name].flags(COMMANDS[name].params()) == []
            return
        assert main(_INVALID[name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{name}: ")
        assert captured.err.count("\n") == 1


class TestClosedPipe:
    def test_reader_gone_exits_without_a_traceback(self):
        """``repro scrub --json | head`` must not print a BrokenPipeError
        traceback: the reader closing early is not a crash."""
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "scrub", "--bandwidths", "4194304",
                 "--replicas", "0", "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141
