"""Seeded inputs for the perronkit benchmark.

Each workload is a list of instances.  An instance is a generator recipe
(block sizes, instance seed and kind) plus the ``.tns`` file built from it.
``run.py`` starts this file as a child process, once per workload, seed and
size, so that generation never counts toward the measuring process's peak
RSS; the library then sees only the files::

    python3 bench/inputs.py WORKLOAD SEED SIZE OUTDIR

writes ``OUTDIR/*.tns``, the bundled example among them, and, last,
``OUTDIR/manifest.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

RT = 1.3
DEN = 0.1

# kind -> what positive_perron_vector must do on the instance.
STRONG = "strong"
TOO_LARGE = "nongenuine-too-large"
MISMATCH = "genuine-mismatch"

# Block sizes per workload and size.  "tiny" keeps the same structure at a
# size the self-test can run in seconds.  Every genuine block is 10 wide or
# more: with a narrower one, a row of the block just before it can draw no
# coupling into it (probability 0.9**(g*g) per row at density 0.1), which
# trips the fixed-point stage's MonotonicityViolated defect (see README.md).
SHAPES = {
    "full": {
        "gen-large": (30, 30, 30, 30),
        "block-chain": (2,) * 20 + (10,),
        "small-mixed": (8, 9, 10, 10),
    },
    "tiny": {
        "gen-large": (4, 4, 4, 10),
        "block-chain": (2,) * 4 + (10,),
        "small-mixed": (5, 10),
    },
}
SMALL_MIXED_COUNT = {"full": 40, "tiny": 4}
WORKLOADS = tuple(SHAPES["full"])

# The bundled four-block example: order 3, four 2x2x2 blocks, last genuine.
# Every workload's folder holds it, because the CLI runs on it everywhere.
EXAMPLE_BLOCKS = (2, 2, 2, 2)
EXAMPLE_FILE = "four-blocks.tns"


def instance_specs(workload: str, seed: int, size: str) -> list[dict]:
    """The instances of one workload run, in the order they are solved."""
    sizes = SHAPES[size][workload]
    if workload != "small-mixed":
        return [{"name": workload, "kind": STRONG, "block_sizes": sizes, "seed": seed}]
    count = SMALL_MIXED_COUNT[size]
    specs = []
    for k in range(count):
        inst_seed = seed * 100 + k
        if k < count // 2:
            kind = STRONG
        else:
            # generate_not_strong picks its construction by seed parity.
            kind = TOO_LARGE if inst_seed % 2 == 0 else MISMATCH
        specs.append({"name": f"mixed-{k:02d}", "kind": kind, "block_sizes": sizes, "seed": inst_seed})
    specs.append({"name": "four-blocks", "kind": STRONG, "block_sizes": EXAMPLE_BLOCKS, "seed": None})
    return specs


def build(workload: str, seed: int, size: str, outdir: Path) -> None:
    from perronkit import GeneratorSpec, generate, generate_not_strong, write_tensor
    from perronkit.examples import four_blocks_tensor

    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for spec in instance_specs(workload, seed, size):
        if spec["seed"] is None:
            A = four_blocks_tensor()
        else:
            gspec = GeneratorSpec(spec["block_sizes"], RT, DEN, spec["seed"])
            A = generate(gspec) if spec["kind"] == STRONG else generate_not_strong(gspec)
        path = outdir / f"{spec['name']}.tns"
        write_tensor(A, path)
        manifest.append({**spec, "file": path.name, "n": A.dim, "nnz": A.nnz})
    if not (outdir / EXAMPLE_FILE).is_file():
        write_tensor(four_blocks_tensor(), outdir / EXAMPLE_FILE)
    tmp = outdir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest))
    os.replace(tmp, outdir / "manifest.json")


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit("usage: inputs.py WORKLOAD SEED SIZE OUTDIR")
    build(sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4]))
