"""Byte-level pins on CLI output, generator files and block spectra.

The benchmark caches its input files by generator recipe, not by code
version, and the CLI promises byte-identical stdout; the power method's
results are pinned on the benchmark's shapes, so a change to its arithmetic
shows here and not only against a reference.  These pins catch any change
in any of them.  They were taken with Python 3.11.7 and numpy 2.4.6; a
different numpy may legitimately draw different random numbers or round a
last bit differently, so a failure there points at the platform first.
"""

import hashlib
import shutil
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from perronkit import GeneratorSpec, block_spectra, generate, generate_not_strong, write_tensor
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


# The power method's bits on the benchmark's three workload shapes and on a
# shape whose partition leaves 1x1 blocks: the sha256 of every block's rho,
# gap, bracket, vector bytes and iteration count, from
# generate(GeneratorSpec(shape, 1.3, 0.1, 1)).
SPECTRA_SHA256 = [
    ((30, 30, 30, 30), "071d4deef36f2e0418e8ff6c6aae44089031c25078237be4ee860cc7384f067f"),
    ((2,) * 20 + (10,), "c61d77f3fb0f359456a7f48d630b84d853db67ead88493f60dbe12f1183839f7"),
    ((8, 9, 10, 10), "81c266907c7047ecd6b84f91aa6520237aee1d696ef2203ec07c0368ea87e5b8"),
    ((1, 1, 3, 1, 4), "eee453e8c31f2954f2ff8a632743cf319e73eaf70adbca55e4a0f58ead8184d0"),
]


# Every subcommand in both formats, run from a scratch directory holding
# example.tns (the bundled example) and rejected.tns (generate_not_strong,
# SPEC, seed 8); missing.tns does not exist.  `--max-iter 3` is a budget
# the fixed-point stage cannot meet, and `--tol 1e-3` makes a value miss.
# Each digest is the sha256 of the exit code, stdout, stderr and the file
# the command wrote, if any.
CLI_SHA256 = [
    ("partition example.tns --format json", None,
     "9dbaf3e51a786fb790f424ba5dfbbf5a195e494d2aa603f179b05fcc2ecb014d"),  # exit 0
    ("partition rejected.tns --format json", None,
     "2b7be7c462a276f0bef659f3b444bd47c13e2aaf2a8b97de429bc4c981e19dc6"),  # exit 0
    ("partition missing.tns --format json", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("majorization example.tns --format json", None,
     "3461d5d20e5cc8d4e7f319ad50811a263baf8479d5277da4812bf0336ff119d0"),  # exit 0
    ("majorization rejected.tns --format json", None,
     "e69ca9515ef549432b818e6c69965451b5012bde07770e2512b140a22c900714"),  # exit 0
    ("majorization missing.tns --format json", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("radius example.tns --format json", None,
     "ba6706cdcbaec9fe1a2d6ee7d970334854a43bb5b8acfc86acb4c80fb42427f6"),  # exit 0
    ("radius rejected.tns --format json", None,
     "8ca3839e87351419831c07b2a2c2c5e5059a27ee4ed840a69c6f1c4f7603d725"),  # exit 0
    ("radius missing.tns --format json", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("classify example.tns --format json", None,
     "5f109cefdd7f50e98f8e6dd072ca0e1310fb586be82b1aa07952c9442499eb30"),  # exit 0
    ("classify rejected.tns --format json", None,
     "61539b92f17f1eeb4c18978063174b61db93feb6f438d12d81f1387989683c4c"),  # exit 2
    ("classify missing.tns --format json", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("perron example.tns --format json", None,
     "8159498f06f1ed90ba7486fd3ff8d941a08a5ee519604fba4c16ae042836d9aa"),  # exit 0
    ("perron rejected.tns --format json", None,
     "bab2778886d126ea7d6768f307e7a2700bad00347057b14a758ad6426b538b90"),  # exit 2
    ("perron missing.tns --format json", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("perron example.tns --max-iter 3 --format json", None,
     "665098da08081ee3dea708af4ae85168c6162af237d03b26343dde77895cc00f"),  # exit 1
    ("perron example.tns --trace trace.csv --format json", 'trace.csv',
     "12d9c7f8a81a0d2aecf2ccac16b74a880514d6cff7204aab20d95e0d643a9cb2"),  # exit 0
    ("gen --blocks 3,4,5 --rt 1.3 --seed 7 -o out.tns --format json", 'out.tns',
     "9641822231c227518af48eaabbe9d1a20953bcbc113cadc7b0a4214afb81c964"),  # exit 0
    ("verify --format json", None,
     "cb806784b1b9a31a1d87834f0f6c28edcc45b83bf97156d983cef8fc367f01a1"),  # exit 0
    ("repro-example --format json", None,
     "dfa98faf5dfe1bc4c7cce2f2d0f2a2c11eaa08349f99d2bc363f5e3e4bb7b8e8"),  # exit 0
    ("repro-example --tol 1e-3 --format json", None,
     "085103f13aaaef1c2e39c831b56121c1d53c621d445404bd14682bb1a2986e3b"),  # exit 1
    ("partition example.tns --format plain", None,
     "09fd9920f40ff4151293a521f99e549875c22c249b1d16435b2dcacc776548a7"),  # exit 0
    ("partition rejected.tns --format plain", None,
     "89b6c2d21787a8a9b7e26bf4303f8239268488ffbfe6e85b33fcf2e96f6da93b"),  # exit 0
    ("partition missing.tns --format plain", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("majorization example.tns --format plain", None,
     "418249b5e69b4b9e4c9ec3a653eab2b30c4ce8e1353f9cbffcf0dc3d92feddb0"),  # exit 0
    ("majorization rejected.tns --format plain", None,
     "06f2c07196baf9328105bcddc557b4e07162fd250d8698983967da6bdb237439"),  # exit 0
    ("majorization missing.tns --format plain", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("radius example.tns --format plain", None,
     "54af55504a7c6c054102c79c19d918a276543ed5fdbb53f66942af6d41fdf37d"),  # exit 0
    ("radius rejected.tns --format plain", None,
     "a5b6a7d56d0641be1665995350e72081231318e308cc17c5269b50b5c6f00242"),  # exit 0
    ("radius missing.tns --format plain", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("classify example.tns --format plain", None,
     "4a2de34ea436f8c665f0aa450e502628d33968a55f6e62bbe8facedfc207498c"),  # exit 0
    ("classify rejected.tns --format plain", None,
     "fdbc77dc776c2dd1d58dbc1dc9768a0c543dac0d80b35c33f9122401527aa479"),  # exit 2
    ("classify missing.tns --format plain", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("perron example.tns --format plain", None,
     "2d8d002174d14a53e8f2db36390105a153c6272583571a9d636c584178ffb603"),  # exit 0
    ("perron rejected.tns --format plain", None,
     "a1032aa78639d36ec0d9e637988e5d96941fd005b724e4354a52f52c56619885"),  # exit 2
    ("perron missing.tns --format plain", None,
     "9514f14fde0ea349df9bcecfecacd285a1f9487749df98527dd8373fa066e05f"),  # exit 1
    ("perron example.tns --max-iter 3 --format plain", None,
     "665098da08081ee3dea708af4ae85168c6162af237d03b26343dde77895cc00f"),  # exit 1
    ("perron example.tns --trace trace.csv --format plain", 'trace.csv',
     "9eaf6bc018653031ac43df68f63033ee4b2fc2b5a4828c048706dfd7be36d2ac"),  # exit 0
    ("gen --blocks 3,4,5 --rt 1.3 --seed 7 -o out.tns --format plain", 'out.tns',
     "ac68a6d4c34bad97c7ee170f86c8b66b0b8449dcd7d3138675c6073b9d3d6041"),  # exit 0
    ("verify --format plain", None,
     "df2026b328f7e861d97a7e999927cb53197322472c609fd08742c66a8dafb8be"),  # exit 0
    ("repro-example --format plain", None,
     "0a059eb13cdc1fdc259d5b61c0c119086f649ec2f59b47e38bfa5a27ac4a50b4"),  # exit 0
    ("repro-example --tol 1e-3 --format plain", None,
     "440df599e01059523d03f217bfd2b340a3afcc0fcb06dcacada7e537863f82f5"),  # exit 1
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


@pytest.mark.parametrize("shape, digest", SPECTRA_SHA256)
def test_block_spectra_bits(shape, digest):
    h = hashlib.sha256()
    for sp in block_spectra(generate(GeneratorSpec(shape, 1.3, 0.1, 1)))[1]:
        h.update(np.array([sp.rho, sp.gap, *sp.bracket]).tobytes())
        h.update(sp.vector.tobytes())
        h.update(str(sp.iterations).encode())
    assert h.hexdigest() == digest, f"block_spectra on blocks {shape} changed ({PLATFORM})"


@pytest.mark.parametrize("argv, written, digest", CLI_SHA256, ids=[c[0] for c in CLI_SHA256])
def test_every_command_output(
    capsys, monkeypatch, tmp_path, bundled_example, argv, written, digest
):
    monkeypatch.chdir(tmp_path)
    shutil.copy(bundled_example, "example.tns")
    write_tensor(generate_not_strong(GeneratorSpec(seed=8, **SPEC)), "rejected.tns")
    code = main(argv.split())
    out, err = capsys.readouterr()
    record = [str(code), out, err] + ([Path(written).read_text()] if written else [])
    got = hashlib.sha256("\0".join(record).encode()).hexdigest()
    assert got == digest, f"`perronkit {argv}` output changed ({PLATFORM})"
