"""Command-line front end.

Subcommands: mesh, spectrum, oracle, index, certify, bounds, experiment.
Every run emits a JSON report (stdout or --out) echoing all parameters,
and experiment tables additionally serialize to CSV with the fixed header
k, epsilon, value, bound, satisfied.

Exit codes: 0 success, 2 usage error (including an output that cannot be
written), 3 numerical failure (including an arithmetic overflow), 4
precondition / hypothesis failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__, bounds as bounds_mod, closed_forms, intersection, packing
from .errors import MeshError, NumericalError, PreconditionError, SteklabError, UsageError
from .families import KINDS, FamilyDescriptor, generate_mesh, geometric_summary
from .mesh import EmbeddedMesh
from .report import run_report, write_boundary_traces, write_report, write_table
from .spectral import SpectralProblem, solve_steklov

# short names accepted by --family next to the family kinds themselves
_FAMILY_ALIASES = {
    "ball": "ball-flat",
    "disk": "ball-flat",
    "annulus": "annulus-flat",
    "cylinder": "cylinder-surface",
    "sphere": "sphere-boundary",
    "circle": "sphere-boundary",
    "torus": "torus-surface",
    "product": "product-annulus-circle",
}


def _number_list(text: str, kind=float) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{text!r} is not a comma-separated list of numbers") from None


def _covering_config(choice: str) -> packing.ConstantsConfig:
    if choice in ("empirical", "literal"):
        return packing.ConstantsConfig(use_empirical=choice == "empirical")
    try:
        value = int(choice)
    except ValueError:
        raise UsageError(f"--covering must be 'empirical', 'literal' or an integer, got {choice!r}")
    return packing.ConstantsConfig(use_empirical=False, c_cover=value)


def _echo(args) -> dict:
    skip = {"func", "out", "table", "traces"}
    return {k: v for k, v in vars(args).items() if k not in skip and not k.startswith("_")}


# ---------------------------------------------------------------------------
# leaf subcommands: each maps the parsed arguments to its report payload, and
# an experiment to its payload and table rows


def _mesh(args) -> dict:
    # every descriptor field but the kind has a parser option of the same dest
    sizes = {f.name: getattr(args, f.name) for f in fields(FamilyDescriptor) if f.name != "kind"}
    desc = FamilyDescriptor(kind=_FAMILY_ALIASES.get(args.family, args.family), **sizes)
    mesh = generate_mesh(desc)
    mesh.save(args.mesh_out)
    summary = geometric_summary(mesh, desc)
    return {
        "mesh_file": args.mesh_out,
        "n_vertices": mesh.n_vertices,
        "n_cells": len(mesh.cells),
        "n_boundary_faces": len(mesh.boundary_faces),
        "boundary_components": mesh.boundary_components(),
        "summary": summary.to_payload(),
    }


def _spectrum(args) -> dict:
    mesh = EmbeddedMesh.load(args.mesh)
    problem = SpectralProblem(mesh, kind=args.kind, k_max=args.kmax, tolerance=args.tol)
    result = solve_steklov(problem)
    if args.traces:
        write_boundary_traces(args.traces, result)
    return result.to_payload()


def _oracle_annulus_sn(args) -> dict:
    value = closed_forms.annulus_sn_eigenvalue(args.n, args.eps, args.delta, args.mode)
    return {"eigenvalue": value}


def _oracle_cylinder(args) -> dict:
    if args.lambdas is not None:
        lams = _number_list(args.lambdas)
    else:
        pairs = closed_forms.sphere_laplace_spectrum(args.n, args.radius, args.max_degree)
        lams = closed_forms.expand_multiplicities(pairs)
    return {"eigenvalues": closed_forms.cylinder_steklov_spectrum(lams, args.length, args.count)}


def _oracle_sphere_laplace(args) -> dict:
    pairs = closed_forms.sphere_laplace_spectrum(args.n, args.radius, args.max_degree)
    return {"spectrum": [{"eigenvalue": v, "multiplicity": m} for v, m in pairs]}


def _oracle_disk(args) -> dict:
    return {"eigenvalues": closed_forms.disk_steklov_spectrum(args.radius, args.count)}


def _oracle_separated_mode(args) -> dict:
    value = closed_forms.separated_mode_sn_eigenvalue(
        args.n, args.eps, args.delta, args.mu, args.lam, resolution=args.resolution
    )
    return {"eigenvalue": value}


def _oracle_blowup_constant(args) -> dict:
    return {"constant": closed_forms.blowup_constant(args.n)}


def _index(args) -> dict:
    mesh = EmbeddedMesh.load(args.mesh)
    degree_bound = None
    if args.degrees:
        degree_bound = intersection.degree_upper_bound([_number_list(d, int) for d in args.degrees])
    estimate = intersection.estimate_index(
        mesh,
        samples=args.samples,
        seed=args.seed,
        hill_climb=args.hill_climb,
        degree_bound=degree_bound,
    )
    return estimate.to_payload()


def _certify(args) -> dict:
    mesh = EmbeddedMesh.load(args.mesh)
    config = _covering_config(args.covering)
    cert = packing.certify_sigma_k(
        mesh, args.k, config, i_sigma=args.i_sigma, seed=args.seed
    )
    return cert.to_payload()


def _bounds(args) -> dict:
    config = _covering_config(args.covering)
    if config.use_empirical:
        raise UsageError(
            "the bounds need a literal or integer covering constant; an empirical "
            "one is measured on a mesh (certify)"
        )
    inputs = bounds_mod.BoundInputs(
        n=args.n,
        m=args.m,
        volume_m=args.volume_m,
        volume_sigma=args.volume_sigma,
        i_m=args.i_m,
        i_sigma=args.i_sigma,
        k=args.k,
        r_0=args.r0,
        covering=config.c_cover,
        d_ball=args.d_ball,
    )
    return bounds_mod.evaluate_bounds(inputs, sigma_k=args.sigma_k).to_payload()


def _experiment_asymptotics(args) -> tuple[dict, list]:
    count, n = args.k_hi + 2, 2
    if args.source == "disk":
        spectrum = closed_forms.disk_steklov_spectrum(args.radius, count)
        volume_sigma = 2.0 * np.pi * args.radius
    else:
        pairs = closed_forms.sphere_laplace_spectrum(2, args.radius, count + 4)
        lams = closed_forms.expand_multiplicities(pairs)
        spectrum = closed_forms.cylinder_steklov_spectrum(lams, args.length, count)
        volume_sigma = 4.0 * np.pi * args.radius
    fit = bounds_mod.fit_asymptotics(spectrum, n, volume_sigma, args.k_lo, args.k_hi)
    rows = [
        {
            "k": k,
            "value": spectrum[k],
            "bound": fit.reference_coefficient * k ** fit.reference_exponent,
        }
        for k in range(args.k_lo, args.k_hi + 1)
    ]
    return {"fit": fit.to_payload(), "source": args.source}, rows


def _experiment_blowup(args) -> tuple[dict, list]:
    table = bounds_mod.blowup_experiment(
        args.n,
        _number_list(args.eps),
        max_sphere_degree=args.max_degree,
        max_circle_mode=args.max_circle_mode,
        resolution=args.resolution,
    )
    rows = [
        {
            "epsilon": row.eps,
            "value": row.mode_min,
            "bound": row.reference,
            "satisfied": row.satisfied,
        }
        for row in table
    ]
    return {"rows": [row.to_payload() for row in table]}, rows


def _experiment_obstruction(args) -> tuple[dict, list]:
    ks = range(args.k_min, args.k_max + 1)
    result = bounds_mod.obstruction_experiment(args.n, args.beta, ks)
    rows = [{"k": row.k, "value": row.value} for row in result.rows]
    return result.to_payload(), rows


# ---------------------------------------------------------------------------
# parser


@functools.cache  # nothing mutates the parser, so one process builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklab",
        description="Steklov eigenvalue laboratory for meshed submanifolds of R^m",
    )
    parser.add_argument("--version", action="version", version=f"steklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # --out on every leaf subcommand, --table on every experiment
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="report path (default stdout)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--table", help="CSV output path")

    p = sub.add_parser("mesh", parents=[out], help="generate a family mesh and its summary")
    p.add_argument("--family", required=True, help="|".join(sorted({*_FAMILY_ALIASES, *KINDS})))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--L", dest="length", type=float)
    p.add_argument("--R", dest="circle_radius", type=float)
    p.add_argument("--major-radius", type=float)
    p.add_argument("--minor-radius", type=float)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--h-boundary", type=float)
    p.add_argument("--mesh-out", required=True, help="output mesh document path")
    p.set_defaults(func=_mesh)

    p = sub.add_parser(
        "spectrum", parents=[out], help="solve the Steklov eigenproblem on a mesh"
    )
    p.add_argument("--mesh", required=True)
    p.add_argument("--kind", choices=["steklov", "steklov-neumann"],
                   help="must be the kind the face tags pose, which is the default")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--traces", help="CSV path for eigenvector boundary traces")
    p.set_defaults(func=_spectrum)

    p = sub.add_parser("oracle", help="closed-form reference values")
    osub = p.add_subparsers(dest="oracle", required=True)

    o = osub.add_parser("annulus-sn", parents=[out])
    o.add_argument("--n", type=int, default=2)
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--delta", type=float, required=True)
    o.add_argument("--mode", type=int, default=1)
    o.set_defaults(func=_oracle_annulus_sn)

    o = osub.add_parser("cylinder", parents=[out])
    o.add_argument("--L", dest="length", type=float, required=True)
    o.add_argument("--count", type=int, default=6)
    o.add_argument("--n", type=int, default=2, help="boundary sphere dimension parameter")
    o.add_argument("--radius", type=float, default=1.0)
    o.add_argument("--max-degree", type=int, default=64)
    o.add_argument("--lambdas", help="explicit comma-separated Laplace eigenvalues")
    o.set_defaults(func=_oracle_cylinder)

    o = osub.add_parser("sphere-laplace", parents=[out])
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--radius", type=float, default=1.0)
    o.add_argument("--max-degree", type=int, default=8)
    o.set_defaults(func=_oracle_sphere_laplace)

    o = osub.add_parser("disk", parents=[out])
    o.add_argument("--radius", type=float, default=1.0)
    o.add_argument("--count", type=int, default=7)
    o.set_defaults(func=_oracle_disk)

    o = osub.add_parser("separated-mode", parents=[out])
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--delta", type=float, required=True)
    o.add_argument("--mu", type=float, required=True)
    o.add_argument("--lam", type=float, required=True)
    o.add_argument("--resolution", type=int, default=2048)
    o.set_defaults(func=_oracle_separated_mode)

    o = osub.add_parser("blowup-constant", parents=[out])
    o.add_argument("--n", type=int, required=True)
    o.set_defaults(func=_oracle_blowup_constant)

    p = sub.add_parser("index", parents=[out], help="Monte Carlo intersection-index estimate")
    p.add_argument("--mesh", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hill-climb", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument(
        "--degrees",
        action="append",
        help="comma-separated polynomial degrees of one piece; repeat per piece",
    )
    p.set_defaults(func=_index)

    p = sub.add_parser("certify", parents=[out], help="packing certificate for sigma_k")
    p.add_argument("--mesh", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i-sigma", type=int, required=True)
    p.add_argument("--covering", default="empirical", help="empirical | literal | integer")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_certify)

    p = sub.add_parser("bounds", parents=[out], help="evaluate the explicit eigenvalue bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--volume-m", type=float, required=True)
    p.add_argument("--volume-sigma", type=float, required=True)
    p.add_argument("--i-m", type=int, required=True)
    p.add_argument("--i-sigma", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r0", type=float, help="injectivity radius; also report the injectivity bound")
    p.add_argument("--sigma-k", type=float, help="computed eigenvalue to compare against")
    p.add_argument("--covering", default="literal", help="literal | integer")
    p.add_argument("--d-ball", type=float, default=1.0)
    p.set_defaults(func=_bounds)

    p = sub.add_parser("experiment", help="experiment drivers with CSV tables")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("asymptotics", parents=[out, table])
    e.add_argument("--source", choices=["disk", "cylinder"], default="disk")
    e.add_argument("--radius", type=float, default=1.0)
    e.add_argument("--L", dest="length", type=float, default=1.0)
    e.add_argument("--k-lo", type=int, default=20)
    e.add_argument("--k-hi", type=int, default=200)
    e.set_defaults(func=_experiment_asymptotics)

    e = esub.add_parser("blowup", parents=[out, table])
    e.add_argument("--n", type=int, default=3)
    e.add_argument("--eps", required=True, help="comma-separated epsilons in (0, 1)")
    e.add_argument("--max-degree", type=int, default=12)
    e.add_argument("--max-circle-mode", type=int, default=12)
    e.add_argument("--resolution", type=int, default=1024)
    e.set_defaults(func=_experiment_blowup)

    e = esub.add_parser("obstruction", parents=[out, table])
    e.add_argument("--n", type=int, default=2)
    e.add_argument("--beta", type=float, default=0.0)
    e.add_argument("--k-min", type=int, default=10)
    e.add_argument("--k-max", type=int, default=200)
    e.set_defaults(func=_experiment_obstruction)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # non-finite intermediates surface as residual, solver or strict-JSON
        # failures below, so NumPy's floating-point warnings are only noise
        with np.errstate(all="ignore"):
            start = time.perf_counter()
            result = args.func(args)
            wall_times = {"run": time.perf_counter() - start}
            payload, rows = result if "table" in args else (result, None)
            command = " ".join(vars(args)[key] for key in ("command", "oracle", "experiment")
                               if key in args)
            doc = run_report(command, _echo(args), payload, seed=getattr(args, "seed", None),
                             wall_times=wall_times)
            write_report(doc, args.out)
            if rows is not None and args.table:
                write_table(args.table, rows)
            return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:  # or an overflow no check anticipated
        reason = exc if isinstance(exc, NumericalError) else "a value overflows double precision"
        print(f"numerical failure: {reason}", file=sys.stderr)
        return 3
    except MemoryError:  # a request within SIZE_BUDGET can still exceed the machine
        print("numerical failure: out of memory", file=sys.stderr)
        return 3
    except (PreconditionError, MeshError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 4
    except SteklabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
