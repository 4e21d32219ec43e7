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

MAJORIZATION_PLAIN_STDOUT = (
    '1.852 1.4228999999999998 0.1548 0.1999 0.0 0.588 1.3965 0.7617\n'
    '0.641 1.8064 1.5743 1.7487 0.0 1.5807 0.0 1.0\n'
    '0.0 0.9009 1.1054000000000002 1.6511 1.4615 0.0 0.9296 0.0\n'
    '0.8452 0.0 1.3245 0.9801 0.5747 1.5838 1.3246 0.8214\n'
    '0.0 0.0 0.1465 0.1891 2.0221999999999998 2.3381 0.1891 0.1465\n'
    '0.0 0.0 0.0 0.2819 1.6352000000000002 2.9008 0.2819 0.5801\n'
    '0.0 0.0 0.0 0.0 0.0 0.0 2.5004 3.1612999999999998\n'
    '0.0 0.0 0.0 0.0 0.0 0.0 1.7945 2.1870000000000003\n'
)

REPRO_PLAIN_STDOUT = (
    'block 1 radius  expected       1.3183  got 1.3183867411065062      ok\n'
    'block 2 radius  expected       1.2581  got 1.258137774893613       ok\n'
    'block 3 radius  expected       2.6317  got 2.6317477506781177      ok\n'
    'block 4 radius  expected       3.1253  got 3.125311882289851       ok\n'
    'lambda          expected       3.1253  got 3.125311882289851       ok\n'
    'vector[1]       expected       0.8809  got 0.8809321505090768      ok\n'
    'vector[2]       expected       0.9556  got 0.9555794733203197      ok\n'
    'vector[3]       expected       0.8257  got 0.825730221846779       ok\n'
    'vector[4]       expected       0.8537  got 0.853659703697235       ok\n'
    'vector[5]       expected       0.7374  got 0.7374097245333745      ok\n'
    'vector[6]       expected       0.7057  got 0.705745903264674       ok\n'
    'vector[7]       expected       0.5257  got 0.5257461218977806      ok\n'
    'vector[8]       expected       0.4743  got 0.47425387810221936     ok\n'
    'residual        expected      < 1e-05  got 4.54912614490704e-06    ok\n'
    'iterations      expected    [30, 133]  got 125                     ok\n'
    'all values reproduced\n'
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


def test_majorization_plain_stdout(capsys, bundled_example):
    assert main(["majorization", bundled_example, "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert out == MAJORIZATION_PLAIN_STDOUT, f"`perronkit majorization` stdout changed ({PLATFORM})"


def test_repro_example_plain_stdout(capsys):
    assert main(["repro-example", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert out == REPRO_PLAIN_STDOUT, f"`perronkit repro-example` stdout changed ({PLATFORM})"


@pytest.mark.parametrize("build, seed, digest", GENERATOR_SHA256)
def test_generator_file_bytes(tmp_path, build, seed, digest):
    path = tmp_path / "out.tns"
    write_tensor(build(GeneratorSpec(seed=seed, **SPEC)), path)
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == digest, f"{build.__name__} seed {seed} wrote different bytes ({PLATFORM})"
