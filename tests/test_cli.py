"""CLI commands: JSON shape, exit codes and determinism."""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from perronkit import GeneratorSpec, generate_not_strong, write_tensor
from perronkit.cli import _build_parser, main
from perronkit.examples import four_blocks_tensor, majorization_counterexample_tensor

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schemas" / "cli-output.schema.json").read_text())


def child_env() -> dict:
    """This environment with the checkout's src first on PYTHONPATH, for child processes."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def validate(instance, name: str) -> None:
    jsonschema.validate(instance, {"$ref": f"#/$defs/{name}", "$defs": SCHEMA["$defs"]})


@pytest.fixture(scope="module")
def fixture_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "four_blocks.tns"
    write_tensor(four_blocks_tensor(), path)
    return str(path)


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "tiny.tns"
    write_tensor(majorization_counterexample_tensor(), path)
    return str(path)


def subcommands() -> dict:
    """Name -> parser of every subcommand of the CLI's parser."""
    parser = _build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_partition(self, capsys, fixture_file):
        code, out = run(capsys, "partition", fixture_file)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "partition")
        assert payload == {
            "blocks": [[1, 2], [3, 4], [5, 6], [7, 8]],
            "genuine": [False, False, False, True],
            "s": 3,
        }

    def test_majorization(self, capsys, tiny_file):
        code, out = run(capsys, "majorization", tiny_file)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "majorization")
        assert payload == [[0, 1, 1], [1, 0, 1], [0, 0, 1]]

    def test_radius(self, capsys, fixture_file):
        code, out = run(capsys, "radius", fixture_file, "--tol", "1e-8")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "radius")
        assert payload["rho"] == pytest.approx(3.1253, abs=1e-3)
        assert len(payload["block_radii"]) == 4

    def test_classify_strong(self, capsys, fixture_file):
        code, out = run(capsys, "classify", fixture_file)
        assert code == 0
        payload = json.loads(out)
        validate(payload, "classify")
        assert payload["status"] == "strong"

    def test_classify_not_strong_exits_2(self, capsys, tmp_path):
        A = generate_not_strong(GeneratorSpec(block_sizes=(2, 2), rt=2.0, den=0.4, seed=0))
        path = tmp_path / "ns.tns"
        write_tensor(A, path)
        code, out = run(capsys, "classify", str(path))
        assert code == 2
        payload = json.loads(out)
        validate(payload, "classify")
        assert payload["status"] == "nongenuine-too-large"

    def test_perron_strong(self, capsys, fixture_file):
        code, out = run(
            capsys, "perron", fixture_file, "--gamma", "0.5", "--tol", "1e-6"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "perron")
        assert payload["status"] == "strong"
        assert payload["lambda"] == pytest.approx(3.1253, abs=1e-3)
        assert payload["residual"] < 1e-5
        assert len(payload["vector"]) == 8
        assert all(v > 0 for v in payload["vector"])

    def test_perron_without_ascent_from_start(self, capsys, tmp_path):
        # the first fixed-point step lowers row 2 from the default start
        path = tmp_path / "uncoupled_row.tns"
        path.write_text("3 3\n1 2 2 1\n2 1 1 1\n1 3 3 1\n3 3 3 2\n")
        code, out = run(capsys, "perron", str(path))
        assert code == 0
        payload = json.loads(out)
        validate(payload, "perron")
        assert payload["status"] == "strong"
        assert payload["lambda"] == pytest.approx(2.0)
        assert payload["vector"] == pytest.approx([(2 / 3) ** 0.5, (1 / 3) ** 0.5, 1.0], abs=1e-6)

    def test_perron_not_strong_exits_2(self, capsys, tmp_path):
        A = generate_not_strong(GeneratorSpec(block_sizes=(2, 2), rt=2.0, den=0.4, seed=1))
        path = tmp_path / "ns.tns"
        write_tensor(A, path)
        code, out = run(capsys, "perron", str(path))
        assert code == 2
        payload = json.loads(out)
        validate(payload, "perron")
        assert payload["vector"] is None

    def test_perron_trace_csv(self, capsys, fixture_file, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run(
            capsys, "perron", fixture_file, "--gamma", "0.5", "--tol", "1e-6",
            "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,step_norm,residual"
        assert len(lines) > 30
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[2]) > 0

    def test_gen_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "generated.tns"
        code, out = run(
            capsys, "gen", "--blocks", "2,3", "--rt", "2.0", "--den", "0.3",
            "--seed", "11", "-o", str(out_path),
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "gen")
        assert payload["dim"] == 5
        code, out = run(capsys, "radius", str(out_path))
        assert code == 0

    def test_gen_deterministic_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.tns", tmp_path / "b.tns"]
        for p in paths:
            run(capsys, "gen", "--blocks", "3,2", "--rt", "1.5", "--den", "0.2",
                "--seed", "3", "-o", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "verify")
        assert payload["passed"] is True

    def test_verify_plain(self, capsys):
        # Each check is a dict inside the "checks" list: a numbered line marks
        # where it starts and its keys print one level deeper than the list.
        _, out = run(capsys, "verify")
        checks = json.loads(out)["checks"]
        code, out = run(capsys, "verify", "--format", "plain")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "passed: True"
        start = lines.index("checks:") + 1
        items, current = [], None
        for line in lines[start:]:
            if line == f"  [{len(items) + 1}]":
                current = {}
                items.append(current)
            else:
                key, _, value = line.strip().partition(": ")
                assert line.startswith("    ") and current is not None
                current[key] = value
        assert len(items) == len(checks)
        assert [item.keys() for item in items] == [check.keys() for check in checks]
        assert [item["name"] for item in items] == [check["name"] for check in checks]

    def test_repro_example(self, capsys):
        code, out = run(capsys, "repro-example")
        payload = json.loads(out)
        validate(payload, "repro-example")
        assert [r["quantity"] for r in payload["rows"]] == (
            [f"block {j} radius" for j in range(1, 5)]
            + ["lambda"]
            + [f"vector[{i}]" for i in range(1, 9)]
            + ["residual", "iterations"]
        )
        assert payload["passed"] is True
        assert code == 0
        assert all(row["ok"] for row in payload["rows"]), payload["rows"]


class TestErrorHandling:
    def test_usage_error_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["radius"])  # missing file argument
        assert excinfo.value.code == 64

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 64

    def test_missing_file_exits_1(self, capsys):
        code = main(["radius", "/nonexistent/path.tns"])
        assert code == 1
        assert "perronkit:" in capsys.readouterr().err

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.tns"
        for text in [
            "2 2\n1 1\n",
            "3 2\n1 1 1 nan\n",
            "3 2\n1 2.0 1 1\n",
            "3 2\n1 1 1 1 2\n1 2 1\n",
            "3 2\n1 1 1 1 # c\n",
            "3 2\n1 1 1 0\n1 1 1 0\n",
            "3 a\n1 1 1 1\n",
            "1 5\n1 1\n",
        ]:
            bad.write_text(text)
            code = main(["radius", str(bad)])
            assert code == 1, text
            err = capsys.readouterr().err
            assert err.startswith("perronkit: line ") and err.count("\n") == 1, err

    def test_huge_dimension_exits_1_without_traceback(self, tmp_path):
        bad = tmp_path / "huge.tns"
        bad.write_text("3 99999999999999999999\n1 1 1 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "perronkit.cli", "radius", str(bad)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("perronkit: line 1: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("perron", "--tol", "nan"),
            ("perron", "--tol", "inf"),
            ("perron", "--gamma", "nan"),
            ("perron", "--gamma", "inf"),
            ("perron", "--rho-tol", "nan"),
            ("classify", "--rho-tol", "nan"),
            ("classify", "--rho-tol", "inf"),
            ("radius", "--tol", "nan"),
            ("radius", "--tol", "inf"),
            ("repro-example", "--gamma", "nan"),
            ("repro-example", "--tol", "inf"),
        ],
        ids=" ".join,
    )
    def test_non_finite_setting_exits_1(self, capsys, fixture_file, argv):
        command, *options = argv
        files = [] if command == "repro-example" else [fixture_file]
        assert main([command, *files, *options]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("perronkit: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["classify", "perron"])
    def test_rho_tol_of_one_exits_1(self, fixture_file, command):
        proc = subprocess.run(
            [sys.executable, "-m", "perronkit.cli", command, fixture_file, "--rho-tol", "1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "perronkit: rho_equality_tol must be below 1\n"

    def test_overflowing_radius_exits_1(self, capsys, tmp_path):
        big = tmp_path / "big.tns"
        lines = ["3 2"] + [f"{key} 1e308" for key in ("1 1 1", "1 1 2", "2 2 2", "2 1 1")]
        big.write_text("\n".join(lines) + "\n")
        assert main(["radius", str(big)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("perronkit: spectral radius overflowed") and err.count("\n") == 1, err

    @pytest.mark.parametrize("rt, message", [("inf", "rt must be finite"), ("1e308", "overflows")])
    def test_gen_non_finite_values_exit_1_without_file(self, capsys, tmp_path, rt, message):
        out_file = tmp_path / "x.tns"
        assert main(["gen", "--blocks", "2,3", "--rt", rt, "-o", str(out_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not out_file.exists()
        assert err.startswith("perronkit: ") and message in err and err.count("\n") == 1, err

    def test_fixed_point_budget_exhausted_exits_1(self, capsys, fixture_file):
        assert main(["perron", fixture_file, "--max-iter", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("perronkit: fixed-point step norm ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["radius", "classify", "perron"])
    def test_underflowed_iterate_exits_1_without_traceback(self, tmp_path, command):
        # One weakly irreducible block, yet 1e-300 couplings drive a power-method
        # component below the float64 range.
        tiny = tmp_path / "underflow.tns"
        tiny.write_text("3 3\n1 2 2 1e-300\n2 3 3 1e-300\n3 1 1 1.0\n3 3 3 1.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "perronkit.cli", command, str(tiny)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("perronkit: power method iterate lost positivity")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr

    def test_underflowed_power_exits_1_without_traceback(self, tmp_path):
        # A normalisation underflows an iterate component to 0; its next image is positive.
        tiny = tmp_path / "power.tns"
        tiny.write_text("2 2\n1 1 1e300\n1 2 1e-300\n2 1 1e-300\n")
        proc = subprocess.run(
            [sys.executable, "-m", "perronkit.cli", "radius", str(tiny)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("perronkit: power method iterate lost positivity")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr

    def test_overflowing_fixed_point_update_exits_1(self, tmp_path):
        # z1 = 2e154 is finite, but y_1 = A z^2 overflows before its root is taken.
        big = tmp_path / "update.tns"
        big.write_text(
            "3 3\n1 1 1 0.5\n1 2 2 1e308\n1 3 3 1e308\n2 2 2 0.5\n2 3 3 0.5\n3 3 3 1\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "perronkit.cli", "perron", str(big)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "perronkit: fixed-point stage overflowed float64\n"

    def test_overflowing_residual_prints_finite_json(self, tmp_path):
        big = tmp_path / "residual.tns"
        big.write_text(
            "3 2\n1 1 1 7.09126434567812e+305\n2 1 1 8.124361719914801e+305\n"
            "2 1 2 6.5968019214130835e+305\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "perronkit.cli", "perron", str(big)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "")

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        payload = json.loads(proc.stdout, parse_constant=reject)
        validate(payload, "perron")
        assert payload["status"] == "strong" and 0 < payload["residual"] < payload["lambda"]

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 7.1 PiB")])
    def test_out_of_memory_exits_1_with_one_line(self, capsys, monkeypatch, tiny_file, exc):
        def allocate(A):
            raise exc

        monkeypatch.setattr("perronkit.cli.canonical_partition", allocate)
        assert main(["partition", tiny_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("perronkit: out of memory: ") and err.count("\n") == 1, err
        assert err.strip() != "perronkit: out of memory:"


def test_module_entry_point(fixture_file):
    proc = subprocess.run(
        [sys.executable, "-m", "perronkit.cli", "radius", fixture_file],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rho"] == pytest.approx(3.1253, abs=1e-3)


def test_closed_stdout_pipe_exits_1_quietly(tmp_path):
    # A reader that stops after one line, as `head -1` does.  The 600 lines of
    # the majorization overflow the pipe's buffer, so the write finds it closed.
    path = tmp_path / "diagonal.tns"
    path.write_text("3 600\n" + "".join(f"{i} {i} {i} 1\n" for i in range(1, 601)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perronkit.cli", "majorization", str(path), "--format", "plain"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline().startswith(b"1.0 0.0 ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (1, b"")


def loaded_after_solve_and_perron(fixture_file, modules) -> list[str]:
    """Which of modules a fresh process holds after one solve and one ``perron`` command."""
    script = (
        "import contextlib, io, sys\n"
        "import perronkit\n"
        "from perronkit.cli import main\n"
        f"perronkit.positive_perron_vector(perronkit.read_tensor({fixture_file!r}))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['perron', {fixture_file!r}]) == 0\n"
        f"print(*[name for name in {modules!r} if name in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_solve_and_perron_leave_numpy_ma_unimported(fixture_file):
    # np.unique imports numpy.ma on its first call, about 9 ms of process
    # start and several MB of resident memory; the solve path avoids it.
    assert loaded_after_solve_and_perron(fixture_file, ("numpy.ma",)) == []


def test_solve_and_perron_import_neither_scipy_nor_the_oracles(fixture_file):
    # Tests use scipy and the dense oracles as references; the runtime stays
    # numpy-only and never loads them.
    modules = ("scipy", "perronkit.verification", "perronkit.selfcheck")
    assert loaded_after_solve_and_perron(fixture_file, modules) == []


class TestParser:
    """Each subcommand is declared once, and ``--format`` is added to all of them."""

    def test_format_is_every_subcommand_last_option(self):
        for name, parser in subcommands().items():
            last = parser._actions[-1]
            assert last.option_strings == ["--format"], name
            assert (last.choices, last.default) == (("json", "plain"), "json"), name
            assert parser.format_usage().count("--format") == 1, name
            assert "[--format {json,plain}]" in parser.format_usage(), name

    @pytest.mark.parametrize("name", list(subcommands()))
    def test_unknown_format_exits_64(self, capsys, name):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--format", "xml"])
        assert excinfo.value.code == 64
        assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err

    def test_subcommands_match_output_schema(self):
        assert set(subcommands()) == set(SCHEMA["$defs"]) - {"indexBlock"}


class TestDeterminism:
    def test_identical_invocations_identical_stdout(self, capsys, fixture_file):
        outputs = set()
        for _ in range(2):
            _, out = run(capsys, "perron", fixture_file, "--gamma", "0.5", "--tol", "1e-6")
            outputs.add(out)
        assert len(outputs) == 1

    def test_plain_format(self, capsys, fixture_file):
        code, out = run(capsys, "radius", fixture_file, "--format", "plain")
        assert code == 0
        assert "rho:" in out

    def test_plain_format_prints_one_line_per_block(self, capsys):
        with resources.as_file(resources.files("perronkit") / "data" / "four_blocks.tns") as path:
            code, out = run(capsys, "partition", str(path), "--format", "plain")
        assert code == 0
        assert out == (
            "blocks:\n  1 2\n  3 4\n  5 6\n  7 8\n"
            "genuine:\n  False\n  False\n  False\n  True\n"
            "s: 3\n"
        )
