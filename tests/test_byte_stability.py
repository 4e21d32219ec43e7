"""Byte-level pins on CLI output and generator files.

The benchmark caches its input files by generator recipe, not by code
version, and the CLI promises byte-identical stdout.  These pins catch any
change in either.  They were taken with Python 3.11.7 and numpy 2.4.6; a
different numpy may legitimately draw different random numbers or round a
last bit differently, so a failure there points at the platform first.
"""

import hashlib
from importlib import resources

import pytest

from perronkit import GeneratorSpec, generate, generate_not_strong, write_tensor
from perronkit.cli import main

PLATFORM = "pins taken with Python 3.11.7 and numpy 2.4.6"

RADIUS_STDOUT = (
    '{"rho": 3.125311882289851, "blocks": [[1, 2], [3, 4], [5, 6], [7, 8]], '
    '"block_radii": [1.3183867411065062, 1.258137774893613, 2.6317477506781177, '
    "3.125311882289851]}\n"
)
PERRON_STDOUT = (
    '{"status": "strong", "lambda": 3.125311882289851, "vector": [0.8809322222654915, '
    "0.9555795665265954, 0.8257303021118636, 0.8536597755031705, 0.7374098116557072, "
    '0.705745980414287, 0.5257461218977806, 0.47425387810221936], '
    '"residual": 4.457363698265242e-06, "iterations": 129}\n'
)

REPRO_STDOUT = (
    '{"passed": true, "rows": [{"quantity": "block 1 radius", "expected": 1.3183, '
    '"computed": 1.3183867411065062, "tolerance": 0.001, "ok": true}, '
    '{"quantity": "block 2 radius", "expected": 1.2581, '
    '"computed": 1.258137774893613, "tolerance": 0.001, "ok": true}, '
    '{"quantity": "block 3 radius", "expected": 2.6317, '
    '"computed": 2.6317477506781177, "tolerance": 0.001, "ok": true}, '
    '{"quantity": "block 4 radius", "expected": 3.1253, '
    '"computed": 3.125311882289851, "tolerance": 0.001, "ok": true}, '
    '{"quantity": "lambda", "expected": 3.1253, "computed": 3.125311882289851, '
    '"tolerance": 0.001, "ok": true}, {"quantity": "vector[1]", "expected": 0.8809, '
    '"computed": 0.8809321505090768, "tolerance": 0.005, "ok": true}, '
    '{"quantity": "vector[2]", "expected": 0.9556, "computed": 0.9555794733203197, '
    '"tolerance": 0.005, "ok": true}, {"quantity": "vector[3]", "expected": 0.8257, '
    '"computed": 0.825730221846779, "tolerance": 0.005, "ok": true}, '
    '{"quantity": "vector[4]", "expected": 0.8537, "computed": 0.853659703697235, '
    '"tolerance": 0.005, "ok": true}, {"quantity": "vector[5]", "expected": 0.7374, '
    '"computed": 0.7374097245333745, "tolerance": 0.005, "ok": true}, '
    '{"quantity": "vector[6]", "expected": 0.7057, "computed": 0.705745903264674, '
    '"tolerance": 0.005, "ok": true}, {"quantity": "vector[7]", "expected": 0.5257, '
    '"computed": 0.5257461218977806, "tolerance": 0.005, "ok": true}, '
    '{"quantity": "vector[8]", "expected": 0.4743, "computed": 0.47425387810221936, '
    '"tolerance": 0.005, "ok": true}, {"quantity": "residual", '
    '"expected": "< 1e-05", "computed": 4.54912614490704e-06, "ok": true}, '
    '{"quantity": "iterations", "expected": "[30, 133]", "computed": 125, '
    '"ok": true}]}\n'
)

SPEC = dict(block_sizes=(3, 4, 5), rt=1.3, den=0.1)
GENERATOR_SHA256 = [
    (generate, 7, "f62295136dbafd7ccf3462e78fe9a093d1bd23da113406905f6d01a9dd442032"),
    (generate_not_strong, 7, "d04ce2ee315ff321e2e598720ae3420465a1a5afb23eb0c1ad61eb543de39b03"),
    (generate_not_strong, 8, "4936f82fa97bbb766b0de46d9512866045055b1e1a55e5c53cea595a73395d37"),
]


@pytest.fixture(scope="module")
def bundled_example():
    path = resources.files("perronkit").joinpath("data/four_blocks.tns")
    with resources.as_file(path) as fixture:
        yield str(fixture)


@pytest.mark.parametrize(
    "command, expected", [("radius", RADIUS_STDOUT), ("perron", PERRON_STDOUT)]
)
def test_cli_stdout_on_bundled_example(capsys, bundled_example, command, expected):
    assert main([command, bundled_example]) == 0
    out = capsys.readouterr().out
    assert out == expected, f"`perronkit {command}` stdout changed ({PLATFORM})"


def test_repro_example_stdout(capsys):
    assert main(["repro-example", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == REPRO_STDOUT, f"`perronkit repro-example` stdout changed ({PLATFORM})"


@pytest.mark.parametrize("build, seed, digest", GENERATOR_SHA256)
def test_generator_file_bytes(tmp_path, build, seed, digest):
    path = tmp_path / "out.tns"
    write_tensor(build(GeneratorSpec(seed=seed, **SPEC)), path)
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == digest, f"{build.__name__} seed {seed} wrote different bytes ({PLATFORM})"
