"""Unit tests for the repro-fib command-line interface."""

import pytest

from repro.cli import main


class TestExperimentsCommands:
    def test_table1_subset(self, capsys):
        assert main(["table1", "--scale", "0.002", "--profiles", "access_v"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "access_v" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--log-length", "10"]) == 0
        out = capsys.readouterr().out
        assert "Fig 7" in out
        assert "0.500" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--scale", "0.002", "--updates", "40", "--step", "16"]) == 0
        assert "Fig 5" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main([
            "table2", "--scale", "0.002", "--packets", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "fib_trie" in out and "FPGA" in out


class TestFileCommands:
    def test_generate_compress_lookup(self, tmp_path, capsys):
        fib_path = str(tmp_path / "test.fib")
        assert main(["generate", "access_v", "--scale", "0.05", "-o", fib_path]) == 0
        assert main(["compress", fib_path, "--barrier", "8"]) == 0
        out = capsys.readouterr().out
        assert "FIB entropy" in out

        assert main(["lookup", fib_path, "10.0.0.1", "--barrier", "8"]) == 0
        out = capsys.readouterr().out
        assert "->" in out

    def test_compress_lists_every_representation(self, tmp_path, capsys):
        from repro import pipeline

        fib_path = str(tmp_path / "test.fib")
        main(["generate", "access_v", "--scale", "0.05", "-o", fib_path])
        capsys.readouterr()
        assert main(["compress", fib_path]) == 0
        out = capsys.readouterr().out
        for name in pipeline.names():
            assert name in out
        assert "lambda" in out and "entropy-chosen" in out

    def test_lookup_default_barrier_is_entropy_chosen(self, tmp_path, capsys):
        fib_path = str(tmp_path / "test.fib")
        main(["generate", "access_v", "--scale", "0.05", "-o", fib_path])
        capsys.readouterr()
        assert main(["lookup", fib_path, "10.0.0.1"]) == 0
        captured = capsys.readouterr()
        assert "->" in captured.out
        assert "lambda=" in captured.err and "entropy-chosen" in captured.err

    def test_lookup_other_representation(self, tmp_path, capsys):
        fib_path = str(tmp_path / "test.fib")
        main(["generate", "access_v", "--scale", "0.05", "-o", fib_path])
        assert main(["lookup", fib_path, "10.0.0.1", "--representation", "xbw"]) == 0
        assert "->" in capsys.readouterr().out

    def test_lookup_rejects_prefix(self, tmp_path, capsys):
        fib_path = str(tmp_path / "test.fib")
        main(["generate", "access_v", "--scale", "0.05", "-o", fib_path])
        assert main(["lookup", fib_path, "10.0.0.0/8"]) == 2

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestPipelineCommands:
    def test_compare_reports_full_parity(self, capsys):
        assert main([
            "compare", "--scale", "0.002", "--packets", "200",
            "--profiles", "access_v",
        ]) == 0
        captured = capsys.readouterr()
        assert "100.0%" in captured.out
        assert "parity OK" in captured.err

    def test_compare_subset(self, capsys):
        assert main([
            "compare", "--scale", "0.002", "--packets", "100",
            "--profiles", "access_v",
            "--representations", "prefix-dag", "tabular",
        ]) == 0
        out = capsys.readouterr().out
        assert "prefix-dag" in out and "xbw" not in out

    def test_bench_reports_speedup(self, capsys):
        assert main([
            "bench", "--scale", "0.002", "--packets", "500", "--repeat", "1",
            "--representations", "prefix-dag", "serialized-dag",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch Mlps" in out and "prefix-dag" in out and "x" in out
        header = next(line for line in out.splitlines() if line.startswith("representation"))
        assert header.split()[1:3] == ["size[KB]", "program[KB]"]
