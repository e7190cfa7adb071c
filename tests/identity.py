"""Output-identity harness: one digest per CLI command of a fixed list.

The commands run in-process, in order, in one directory; later ones read the
meshes that earlier ones wrote.  A command's digest covers its exit code, its
stderr, the command, seed, parameters and payload of its report (sorted-key
JSON, never `wall_time_s`) and the bytes of every other file it wrote.  The
directory's path reads "<dir>" in all of them, so runs in different
directories compare.  Digests depend on the BLAS build, so none is checked in:
compare two runs on one machine instead.

    python tests/identity.py --out FILE       # write every command's digest
    python tests/identity.py --compare A B    # list the commands that differ

To compare two source trees, run `--out` once with each tree's `src` on
PYTHONPATH, then `--compare` the two files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# options whose value names a file the command writes; --out names its report
OUTPUT_OPTIONS = ("--out", "--mesh-out", "--traces", "--table")

COMMANDS = {
    "mesh:ball2": "mesh --family disk --n 2 --delta 1 --h 0.3 --mesh-out <dir>/ball2.json",
    "mesh:ball3": "mesh --family ball --n 3 --delta 1 --h 0.5 --mesh-out <dir>/ball3.json",
    "mesh:ball2g": "mesh --family disk --n 2 --delta 1 --h 0.15 --h-boundary 0.003125 "
                   "--mesh-out <dir>/ball2g.json",
    "mesh:annulus2": "mesh --family annulus --n 2 --eps 1 --delta 2 --h 0.1 "
                     "--mesh-out <dir>/annulus2.json",
    "mesh:annulus3": "mesh --family annulus --n 3 --eps 1 --delta 2 --h 0.6 "
                     "--mesh-out <dir>/annulus3.json",
    "mesh:cylinder": "mesh --family cylinder --radius 1 --L 1 --h 0.1 "
                     "--mesh-out <dir>/cylinder.json",
    "mesh:sphere2": "mesh --family circle --n 2 --eps 1 --h 0.05 --mesh-out <dir>/sphere2.json",
    "mesh:sphere3": "mesh --family sphere --n 3 --eps 1 --h 0.4 --mesh-out <dir>/sphere3.json",
    "mesh:torus": "mesh --family torus --major-radius 2 --minor-radius 1 --h 0.3 "
                  "--mesh-out <dir>/torus.json",
    "mesh:revolution": "mesh --family revolution-closure --n 2 --eps 0.5 --delta 2 --h 0.3 "
                       "--mesh-out <dir>/revolution.json",
    "mesh:product": "mesh --family product --n 2 --eps 0.5 --delta 2 --R 0.3 --h 0.4 "
                    "--mesh-out <dir>/product.json",
    "spectrum:disk": "spectrum --mesh <dir>/ball2.json --kmax 6 --traces <dir>/t1.csv",
    "spectrum:annulus-sn": "spectrum --mesh <dir>/annulus2.json --kind steklov-neumann "
                           "--kmax 2 --traces <dir>/t2.csv",
    "spectrum:cylinder": "spectrum --mesh <dir>/cylinder.json --kmax 5 --traces <dir>/t3.csv "
                         "--out <dir>/r3.json",
    "index:circle": "index --mesh <dir>/sphere2.json --samples 200 --seed 7 --degrees 2",
    "index:torus": "index --mesh <dir>/torus.json --samples 200 --seed 3",
    "index:circle-blocks": "index --mesh <dir>/sphere2.json --samples 1000 --seed 11 --degrees 2",
    "index:revolution-no-climb": "index --mesh <dir>/revolution.json --samples 300 --seed 2 "
                                 "--no-hill-climb",
    # two hill-climb improvements: candidate blocks rebuilt from a new witness
    "index:torus-climb": "index --mesh <dir>/torus.json --samples 1 --seed 6",
    "certify:disk": "certify --mesh <dir>/ball2g.json --k 1 --i-sigma 2 --seed 5",
    "certify:annulus-c64": "certify --mesh <dir>/annulus2.json --k 1 --i-sigma 2 --covering 2",
    "bounds:volume": "bounds --n 2 --m 2 --volume-m 3.14159 --volume-sigma 6.28319 --i-m 1 "
                     "--i-sigma 2 --k 1 --sigma-k 1.0",
    "bounds:both": "bounds --n 3 --m 4 --volume-m 2 --volume-sigma 5 --i-m 2 --i-sigma 3 --k 2 "
                   "--r0 0.5 --d-ball 2",
    "oracle:annulus-sn": "oracle annulus-sn --n 2 --eps 1 --delta 2 --mode 1",
    "oracle:cylinder": "oracle cylinder --L 1 --count 6",
    "oracle:cylinder-lambdas": "oracle cylinder --L 1 --count 4 --lambdas 0,2,2,6",
    "oracle:sphere-laplace": "oracle sphere-laplace --n 3",
    "oracle:disk": "oracle disk --radius 2",
    "oracle:separated-mode": "oracle separated-mode --n 2 --eps 1 --delta 2 --mu 1 --lam 1 "
                             "--resolution 256",
    "oracle:blowup-constant": "oracle blowup-constant --n 3",
    "experiment:asymptotics-disk": "experiment asymptotics --k-hi 80 --table <dir>/a.csv",
    "experiment:asymptotics-cylinder": "experiment asymptotics --source cylinder --k-lo 10 "
                                       "--k-hi 60 --table <dir>/ac.csv",
    "experiment:blowup": "experiment blowup --eps 0.4,0.2 --max-degree 4 --max-circle-mode 4 "
                         "--resolution 256 --table <dir>/b.csv",
    "experiment:obstruction": "experiment obstruction --k-max 60 --table <dir>/o.csv "
                              "--out <dir>/ro.json",
    "fail:certify-literal": "certify --mesh <dir>/ball2.json --k 1 --i-sigma 2 "
                            "--covering literal",
    "bounds:no-r0": "bounds --n 2 --m 2 --volume-m 3 --volume-sigma 6 --i-m 1 --i-sigma 2",
    "fail:spectrum-closed": "spectrum --mesh <dir>/torus.json",
    "fail:spectrum-kind-mismatch": "spectrum --mesh <dir>/ball2.json --kind steklov-neumann "
                                   "--kmax 3",
    "fail:certify-closed": "certify --mesh <dir>/torus.json --k 1 --i-sigma 2",
    "fail:missing-mesh": "index --mesh <dir>/absent.json",
    "fail:out-missing-dir": "oracle disk --out <dir>/absent/r.json",
    "fail:mesh-nan": "mesh --family disk --delta 1 --h nan --mesh-out <dir>/x.json",
    "fail:oracle-cylinder-empty-lambdas": "oracle cylinder --L 1 --count 4 --lambdas=",
    "fail:obstruction-empty-range": "experiment obstruction --k-min 3 --k-max 2",
}
_BOUNDS = "bounds --n 2 --m 2 --volume-m 3.14 --volume-sigma 6.28 --i-m 1 --i-sigma 2"
COMMANDS.update({
    "x:bounds-c7": f"{_BOUNDS} --covering 7",
    "x:bounds-empirical": f"{_BOUNDS} --covering empirical",
    "x:bounds-junk": f"{_BOUNDS} --covering junk",
    "x:bounds-c-huge": f"{_BOUNDS} --covering {10**400}",
    "x:bounds-c0": f"{_BOUNDS} --covering 0",
    "x:bounds-dball-inf": f"{_BOUNDS} --d-ball=inf",
    "x:bounds-dball-0": f"{_BOUNDS} --d-ball=0",
    "x:bounds-dball-2-both": f"{_BOUNDS} --d-ball 3 --r0 0.7 --covering 5",
    "x:bounds-m204": _BOUNDS.replace("--m 2 ", "--m 204 "),
    "x:bounds-m205": _BOUNDS.replace("--m 2 ", "--m 205 "),
    "x:bounds-m1e6": _BOUNDS.replace("--m 2 ", "--m 1000000 "),
    "x:bounds-k-huge": f"{_BOUNDS} --k {10**400}",
    "x:bounds-vol-tiny": f"{_BOUNDS} --volume-sigma 1e-200",
    "x:oracle-sl-16-72": "oracle sphere-laplace --n 16 --max-degree 72",
    "x:oracle-sl-5-30": "oracle sphere-laplace --n 5 --max-degree 30",
    "x:oracle-cyl-n4": "oracle cylinder --L 1 --count 40 --n 4 --max-degree 20",
    "x:obstruction-1k": "experiment obstruction --k-min 5 --k-max 5",
    "x:obstruction-2k": "experiment obstruction --k-min 5 --k-max 6",
    "x:obstruction-n3": "experiment obstruction --n 3 --k-min 5 --k-max 30 --beta 0.5",
    "spectrum:disk-dense": "spectrum --mesh <dir>/ball2.json --kmax 15 --traces <dir>/t4.csv",
    "spectrum:annulus-sn-dense": "spectrum --mesh <dir>/annulus2.json --kind steklov-neumann "
                                 "--kmax 60 --traces <dir>/t5.csv",
    # the face tags pose the mixed problem: spectrum:annulus-sn without --kind
    "spectrum:annulus-sn-inferred": "spectrum --mesh <dir>/annulus2.json --kmax 2 "
                                    "--traces <dir>/t6.csv",
    # boundary-graded meshes and the certificates on them
    "mesh:annulus2g": "mesh --family annulus --n 2 --eps 1 --delta 2 --h 0.15 "
                      "--h-boundary 0.003125 --mesh-out <dir>/annulus2g.json",
    "mesh:cylinderg": "mesh --family cylinder --radius 1 --L 1 --h 0.15 --h-boundary 0.00625 "
                      "--mesh-out <dir>/cylinderg.json",
    "certify:annulus-sn": "certify --mesh <dir>/annulus2g.json --k 3 --i-sigma 2 --seed 7",
    "certify:cylinder": "certify --mesh <dir>/cylinderg.json --k 2 --i-sigma 2",
    "certify:disk-k3": "certify --mesh <dir>/ball2g.json --k 3 --i-sigma 2 --seed 7",
    "certify:annulus-sn-k1": "certify --mesh <dir>/annulus2g.json --k 1 --i-sigma 2",
    "certify:cylinder-k1": "certify --mesh <dir>/cylinderg.json --k 1 --i-sigma 2 --seed 7",
    "certify:cylinder-k3": "certify --mesh <dir>/cylinderg.json --k 3 --i-sigma 2",
})


def _hash(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def run_command(text: str, directory: Path) -> dict:
    """Run one command in-process; its exit code and the digests of its parts."""
    from steklab.cli import main  # not at the top: main() pins the BLAS threads first

    argv = text.replace("<dir>", str(directory)).split()
    outputs = {option: argv[i + 1] for i, option in enumerate(argv) if option in OUTPUT_OPTIONS}
    for path in outputs.values():  # so a failed run leaves no older file to read
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            os.remove(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code

    def read(path):
        try:
            return Path(path).read_bytes()
        except OSError:
            return None

    def anonymous(text):
        return text.replace(str(directory), "<dir>")

    parts = {"exit": code, "stderr": _hash(anonymous(stderr.getvalue()).encode())}
    report = read(outputs["--out"]) if "--out" in outputs else stdout.getvalue().encode()
    if report:
        doc = json.loads(anonymous(report.decode()))
        parts.update({key: _hash(doc[key]) for key in ("command", "seed", "parameters", "payload")})
    for option, path in sorted(outputs.items()):
        if option != "--out":
            data = read(path)
            parts[option] = None if data is None else _hash(data)
    return {"digest": _hash(parts), "parts": parts}


def run_commands(directory) -> dict:
    """Every command of COMMANDS, in order, in `directory`: name -> result."""
    return {name: run_command(text, Path(directory)) for name, text in COMMANDS.items()}


def compare(a: dict, b: dict) -> list[str]:
    """One line per command whose digest differs, naming the parts that differ."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {'the first' if name in a else 'the second'} run")
        elif a[name]["digest"] != b[name]["digest"]:
            pa, pb = a[name]["parts"], b[name]["parts"]
            differ = sorted(key for key in pa.keys() | pb.keys() if pa.get(key) != pb.get(key))
            lines.append(f"{name}: {', '.join(differ)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write every command's digest to this JSON file")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"all {len(a)} digests are identical")
        return 1 if lines else 0
    # one BLAS and OpenMP thread, set before numpy starts its pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    with tempfile.TemporaryDirectory() as directory:
        results = run_commands(directory)
    Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
