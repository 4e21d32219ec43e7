"""CLI commands: JSON shape, exit codes and determinism."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from perronkit import GeneratorSpec, generate_not_strong, write_tensor
from perronkit.cli import main
from perronkit.examples import four_blocks_tensor, majorization_counterexample_tensor

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "cli-output.schema.json").read_text()
)


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
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rho"] == pytest.approx(3.1253, abs=1e-3)


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
