"""Command-line front end.

Subcommands: mesh, spectrum, oracle, index, certify, bounds, experiment.
Every run emits a JSON report (stdout or --out) echoing all parameters,
and experiment tables additionally serialize to CSV with the fixed header
k, epsilon, value, bound, satisfied.

Exit codes: 0 success, 2 usage error, 3 numerical failure (including an
arithmetic overflow), 4 precondition / hypothesis failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, bounds as bounds_mod, closed_forms, intersection, packing
from .errors import MeshError, NumericalError, PreconditionError, SteklabError, UsageError
from .families import KINDS, FamilyDescriptor, generate_mesh, geometric_summary
from .mesh import EmbeddedMesh
from .report import StageTimer, run_report, write_boundary_traces, write_report, write_table
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


def _covering_config(args) -> packing.ConstantsConfig:
    choice, d_ball = args.covering, args.d_ball
    if choice == "empirical":
        return packing.ConstantsConfig(use_empirical=True, d_ball=d_ball)
    if choice == "literal":
        return packing.ConstantsConfig(use_empirical=False, d_ball=d_ball)
    try:
        value = int(choice)
    except ValueError:
        raise UsageError(f"--covering must be 'empirical', 'literal' or an integer, got {choice!r}")
    return packing.ConstantsConfig(use_empirical=False, c_cover=value, d_ball=d_ball)


def _echo(args) -> dict:
    skip = {"func", "out", "table", "traces"}
    return {k: v for k, v in vars(args).items() if k not in skip and not k.startswith("_")}


def _emit(args, command, payload, seed=None, timer=None, table_rows=None):
    doc = run_report(
        command,
        _echo(args),
        payload,
        seed=seed,
        wall_times=timer.times if timer else {},
    )
    write_report(doc, getattr(args, "out", None))
    if table_rows is not None and getattr(args, "table", None):
        write_table(args.table, table_rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_mesh(args) -> int:
    kind = _FAMILY_ALIASES.get(args.family, args.family)
    if kind not in KINDS:
        raise UsageError(f"unknown family {args.family!r}")
    desc = FamilyDescriptor(
        kind=kind,
        h=args.h,
        n=args.n,
        eps=args.eps,
        delta=args.delta,
        radius=args.radius,
        length=args.length,
        circle_radius=args.circle_radius,
        major_radius=args.major_radius,
        minor_radius=args.minor_radius,
        h_boundary=args.h_boundary,
    )
    timer = StageTimer()
    with timer.stage("generate"):
        mesh = generate_mesh(desc)
    mesh.save(args.mesh_out)
    summary = geometric_summary(mesh, desc)
    payload = {
        "mesh_file": args.mesh_out,
        "n_vertices": mesh.n_vertices,
        "n_cells": len(mesh.cells),
        "n_boundary_faces": len(mesh.boundary_faces),
        "boundary_components": mesh.boundary_components(),
        "summary": summary.to_payload(),
    }
    _emit(args, "mesh", payload, timer=timer)
    return 0


def _cmd_spectrum(args) -> int:
    mesh = EmbeddedMesh.load(args.mesh)
    problem = SpectralProblem(mesh, kind=args.kind, k_max=args.kmax, tolerance=args.tol)
    timer = StageTimer()
    with timer.stage("solve"):
        result = solve_steklov(problem)
    if args.traces:
        write_boundary_traces(args.traces, result)
    _emit(args, "spectrum", result.to_payload(), timer=timer)
    return 0


def _cmd_oracle(args) -> int:
    name = args.oracle
    if name == "annulus-sn":
        value = closed_forms.annulus_sn_eigenvalue(args.n, args.eps, args.delta, args.mode)
        payload = {"eigenvalue": value}
    elif name == "cylinder":
        if args.lambdas:
            lams = _number_list(args.lambdas)
        else:
            pairs = closed_forms.sphere_laplace_spectrum(
                args.n, args.radius, args.max_degree
            )
            lams = closed_forms.expand_multiplicities(pairs)
        values = closed_forms.cylinder_steklov_spectrum(lams, args.length, args.count)
        payload = {"eigenvalues": values}
    elif name == "sphere-laplace":
        pairs = closed_forms.sphere_laplace_spectrum(args.n, args.radius, args.max_degree)
        payload = {"spectrum": [{"eigenvalue": v, "multiplicity": m} for v, m in pairs]}
    elif name == "disk":
        payload = {"eigenvalues": closed_forms.disk_steklov_spectrum(args.radius, args.count)}
    elif name == "separated-mode":
        value = closed_forms.separated_mode_sn_eigenvalue(
            args.n, args.eps, args.delta, args.mu, args.lam, resolution=args.resolution
        )
        payload = {"eigenvalue": value}
    elif name == "blowup-constant":
        payload = {"constant": closed_forms.blowup_constant(args.n)}
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown oracle {name!r}")
    _emit(args, f"oracle {name}", payload)
    return 0


def _cmd_index(args) -> int:
    mesh = EmbeddedMesh.load(args.mesh)
    degree_bound = None
    if args.degrees:
        degree_bound = intersection.degree_upper_bound([_number_list(d, int) for d in args.degrees])
    timer = StageTimer()
    with timer.stage("sample"):
        estimate = intersection.estimate_index(
            mesh,
            samples=args.samples,
            seed=args.seed,
            hill_climb=args.hill_climb,
            degree_bound=degree_bound,
        )
    _emit(args, "index", estimate.to_payload(), seed=args.seed, timer=timer)
    return 0


def _cmd_certify(args) -> int:
    mesh = EmbeddedMesh.load(args.mesh)
    config = _covering_config(args)
    timer = StageTimer()
    with timer.stage("certify"):
        cert = packing.certify_sigma_k(
            mesh, args.k, config, i_sigma=args.i_sigma, seed=args.seed
        )
    _emit(args, "certify", cert.to_payload(), seed=args.seed, timer=timer)
    return 0


def _cmd_bounds(args) -> int:
    which = args.bound
    if which in ("injectivity", "both") and args.r0 is None:
        raise UsageError(f"--bound {which} requires --r0")
    config = _covering_config(args)
    inputs = bounds_mod.BoundInputs(
        n=args.n,
        m=args.m,
        volume_m=args.volume_m,
        volume_sigma=args.volume_sigma,
        i_m=args.i_m,
        i_sigma=args.i_sigma,
        k=args.k,
        r_0=args.r0 if which in ("injectivity", "both") else None,
        config=config,
    )
    report = bounds_mod.evaluate_bounds(inputs, sigma_k=args.sigma_k)
    payload = report.to_payload()
    if args.check_identity:
        lhs_factor, iso_rhs = payload["isoperimetric_lhs_factor"], payload["isoperimetric_rhs"]
        identity_err = abs(iso_rhs - lhs_factor * payload["volume_bound_rhs"]) / iso_rhs
        payload["identity_check"] = {"relative_error": identity_err, "ok": identity_err < 1e-12}
    _emit(args, "bounds", payload)
    return 0


def _cmd_experiment(args) -> int:
    name = args.experiment
    timer = StageTimer()
    if name == "asymptotics":
        count = args.k_hi + 2
        if args.source == "disk":
            spectrum = closed_forms.disk_steklov_spectrum(args.radius, count)
            volume_sigma = 2.0 * np.pi * args.radius
            n = 2
        else:
            pairs = closed_forms.sphere_laplace_spectrum(2, args.radius, count + 4)
            lams = closed_forms.expand_multiplicities(pairs)
            spectrum = closed_forms.cylinder_steklov_spectrum(lams, args.length, count)
            volume_sigma = 4.0 * np.pi * args.radius
            n = 2
        with timer.stage("fit"):
            fit = bounds_mod.fit_asymptotics(spectrum, n, volume_sigma, args.k_lo, args.k_hi)
        rows = [
            {
                "k": k,
                "value": spectrum[k],
                "bound": fit.reference_coefficient * k ** fit.reference_exponent,
            }
            for k in range(args.k_lo, args.k_hi + 1)
        ]
        payload = {"fit": fit.to_payload(), "source": args.source}
        _emit(args, "experiment asymptotics", payload, timer=timer, table_rows=rows)
    elif name == "blowup":
        with timer.stage("sweep"):
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
        payload = {"rows": [row.to_payload() for row in table]}
        _emit(args, "experiment blowup", payload, timer=timer, table_rows=rows)
    else:  # obstruction
        ks = range(args.k_min, args.k_max + 1)
        with timer.stage("evaluate"):
            result = bounds_mod.obstruction_experiment(args.n, args.beta, ks)
        rows = [{"k": row.k, "value": row.value} for row in result.rows]
        payload = result.to_payload()
        _emit(args, "experiment obstruction", payload, timer=timer, table_rows=rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklab",
        description="Steklov eigenvalue laboratory for meshed submanifolds of R^m",
    )
    parser.add_argument("--version", action="version", version=f"steklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a family mesh and its summary")
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
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("spectrum", help="solve the Steklov eigenproblem on a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--kind", choices=["steklov", "steklov-neumann"], default="steklov")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--traces", help="CSV path for eigenvector boundary traces")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("oracle", help="closed-form reference values")
    osub = p.add_subparsers(dest="oracle", required=True)

    o = osub.add_parser("annulus-sn")
    o.add_argument("--n", type=int, default=2)
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--delta", type=float, required=True)
    o.add_argument("--mode", type=int, default=1)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    o = osub.add_parser("cylinder")
    o.add_argument("--L", dest="length", type=float, required=True)
    o.add_argument("--count", type=int, default=6)
    o.add_argument("--n", type=int, default=2, help="boundary sphere dimension parameter")
    o.add_argument("--radius", type=float, default=1.0)
    o.add_argument("--max-degree", type=int, default=64)
    o.add_argument("--lambdas", help="explicit comma-separated Laplace eigenvalues")
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    o = osub.add_parser("sphere-laplace")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--radius", type=float, default=1.0)
    o.add_argument("--max-degree", type=int, default=8)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    o = osub.add_parser("disk")
    o.add_argument("--radius", type=float, default=1.0)
    o.add_argument("--count", type=int, default=7)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    o = osub.add_parser("separated-mode")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--delta", type=float, required=True)
    o.add_argument("--mu", type=float, required=True)
    o.add_argument("--lam", type=float, required=True)
    o.add_argument("--resolution", type=int, default=2048)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    o = osub.add_parser("blowup-constant")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("index", help="Monte Carlo intersection-index estimate")
    p.add_argument("--mesh", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hill-climb", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument(
        "--degrees",
        action="append",
        help="comma-separated polynomial degrees of one piece; repeat per piece",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("certify", help="packing certificate for sigma_k")
    p.add_argument("--mesh", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i-sigma", type=int, required=True)
    p.add_argument("--covering", default="empirical", help="empirical | literal | integer")
    p.add_argument("--d-ball", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bounds", help="evaluate the explicit eigenvalue bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--volume-m", type=float, required=True)
    p.add_argument("--volume-sigma", type=float, required=True)
    p.add_argument("--i-m", type=int, required=True)
    p.add_argument("--i-sigma", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r0", type=float)
    p.add_argument("--bound", choices=["volume", "injectivity", "both"], default="volume")
    p.add_argument("--sigma-k", type=float, help="computed eigenvalue to compare against")
    p.add_argument("--covering", default="literal", help="literal | integer")
    p.add_argument("--d-ball", type=float, default=1.0)
    p.add_argument("--check-identity", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="experiment drivers with CSV tables")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("asymptotics")
    e.add_argument("--source", choices=["disk", "cylinder"], default="disk")
    e.add_argument("--radius", type=float, default=1.0)
    e.add_argument("--L", dest="length", type=float, default=1.0)
    e.add_argument("--k-lo", type=int, default=20)
    e.add_argument("--k-hi", type=int, default=200)
    e.add_argument("--out")
    e.add_argument("--table", help="CSV output path")
    e.set_defaults(func=_cmd_experiment)

    e = esub.add_parser("blowup")
    e.add_argument("--n", type=int, default=3)
    e.add_argument("--eps", required=True, help="comma-separated epsilons in (0, 1)")
    e.add_argument("--max-degree", type=int, default=12)
    e.add_argument("--max-circle-mode", type=int, default=12)
    e.add_argument("--resolution", type=int, default=1024)
    e.add_argument("--out")
    e.add_argument("--table")
    e.set_defaults(func=_cmd_experiment)

    e = esub.add_parser("obstruction")
    e.add_argument("--n", type=int, default=2)
    e.add_argument("--beta", type=float, default=0.0)
    e.add_argument("--k-min", type=int, default=10)
    e.add_argument("--k-max", type=int, default=200)
    e.add_argument("--out")
    e.add_argument("--table")
    e.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # non-finite intermediates surface as residual, solver or strict-JSON
        # failures below, so NumPy's floating-point warnings are only noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:  # or an overflow no check anticipated
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, MeshError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 4
    except SteklabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
