"""Command-line front end: `hotspots table|bound|zeros|asymptotic|verify-vbound`.

Output formats: human tables (`--format text`, mirroring the displayed
precision conventions of the bound table), machine JSON (full precision,
deterministic byte-for-byte for a fixed parameter set — sorted keys, no
timestamps, sha256 output checksum in the manifest), and CSV.

Exit codes: 0 success, 2 usage error, 3 infeasible parameters, 4 internal
accuracy failure, 5 V-bound check failure.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import sys
from typing import Any, Callable

import click
from click.core import ParameterSource

from . import __version__
from ._format import canonical_json, format_sig, payload_checksum
from .asymptotic import A_SLOPE, sweep
from .bound import BoundQuery, optimize_bound
from .errors import AccuracyError, InfeasibleParameterError
from .montecarlo import (
    SimConfig,
    SimDomain,
    check_grid_dt,
    check_vbound,
    default_dt,
    default_t_grid,
    estimate_survival,
    principal_eigenvalue,
    sample_exit_times,
)
from .ratio import (
    RatioBoundSpec,
    RatioKind,
    bessel_exact_from_records,
    displayed_squares,
    ratio_upper_bound,
)
from .vfunction import CustomTable, VKind, load_custom_table
from .zeros import RootFamily, first_bessel_zero, first_p_root

EXIT_INFEASIBLE = 3
EXIT_ACCURACY = 4
EXIT_VBOUND_FAILED = 5


def _guard(fn: Callable) -> Callable:
    """Map domain errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return fn(*args, **kwargs)
        except InfeasibleParameterError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)
        except OverflowError as exc:
            # a parameter so large that a float derived from it overflows
            click.echo(f"error: parameter out of range: {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)
        except AccuracyError as exc:
            click.echo(f"accuracy error: {exc}", err=True)
            sys.exit(EXIT_ACCURACY)

    return wrapper


def _emit_json(subcommand: str, parameters: dict, result: dict) -> None:
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "version": __version__,
        "output_checksum": payload_checksum(result),
    }
    click.echo(canonical_json({"manifest": manifest, "result": result}))


def _emit_csv(header: list[str], rows: list[list[Any]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


def _parse_ratio(spec: str, d: int) -> RatioBoundSpec:
    if spec.startswith("custom:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError:
            raise click.UsageError(f"bad custom ratio {spec!r}")
        return ratio_upper_bound(d, RatioKind.CUSTOM, custom_value=value)
    try:
        kind = RatioKind(spec)
    except ValueError:
        raise click.UsageError(
            f"--ratio must be bessel|closed|4overd|custom:<v>, got {spec!r}"
        )
    if kind is RatioKind.CUSTOM:
        raise click.UsageError("custom ratio needs a value: custom:<v>")
    return ratio_upper_bound(d, kind)


def _parse_vfunction(spec: str) -> tuple[VKind, CustomTable | None]:
    if spec.startswith("custom:"):
        path = spec.split(":", 1)[1]
        try:
            return VKind.CUSTOM, load_custom_table(path)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise click.UsageError(f"cannot read V table {path!r}: {exc}")
    try:
        kind = VKind(spec)
    except ValueError:
        raise click.UsageError(
            f"--vfunction must be vogt|improved|custom:<file>, got {spec!r}"
        )
    if kind is VKind.CUSTOM:
        raise click.UsageError("custom V-function needs a file: custom:<file>")
    return kind, None


def _parse_dims(spec: str) -> list[int]:
    try:
        dims = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"--dims must be comma-separated integers, got {spec!r}")
    if not dims:
        raise click.UsageError("--dims is empty")
    return dims


@click.group()
@click.version_option(version=__version__, prog_name="hotspots")
def main() -> None:
    """Upper bounds on the Hot Spots constant for Lipschitz domains."""


# ---------------------------------------------------------------- table


def compute_table_rows(dims: list[int], vkind: VKind,
                       vtable: CustomTable | None = None,
                       tolerance: float = 1e-9) -> list[dict]:
    """One bound-table row per dimension (the `table` subcommand's core).

    Each row carries the directed display cells (p^2 rounded up and j^2
    rounded down at 5 significant figures, their quotient rounded up at 4
    decimals) alongside the full-precision roots and the minimizer.
    """
    rows = []
    for d in dims:
        p_rec = first_p_root(d)
        j_rec = first_bessel_zero(0.5 * d - 1.0)
        p2_cell, j2_cell = displayed_squares(p_rec, j_rec)
        r_value = bessel_exact_from_records(p_rec, j_rec)
        ratio_spec = RatioBoundSpec(kind=RatioKind.BESSEL_EXACT, d=d, value=r_value)
        res = optimize_bound(BoundQuery(d=d, ratio=ratio_spec, vkind=vkind,
                                        tolerance=tolerance, vtable=vtable))
        rows.append({
            "d": d,
            "p_squared_cell": p2_cell,
            "j_squared_cell": j2_cell,
            "p_squared": p_rec.value * p_rec.value,
            "j_squared": j_rec.value * j_rec.value,
            "r": r_value,
            "epsilon": res.epsilon_star,
            "a": res.a_star,
            "bound": res.bound,
        })
    return rows


def _table_text(rows: list[dict]) -> str:
    header = f"{'d':>4} {'p^2':>10} {'j^2':>10} {'r':>8} {'epsilon':>9} {'a':>9} {'bound':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['d']:>4} {format_sig(row['p_squared_cell'], 5):>10}"
            f" {format_sig(row['j_squared_cell'], 5):>10}"
            f" {row['r']:>8.4f}"
            f" {format_sig(row['epsilon'], 5):>9}"
            f" {format_sig(row['a'], 5):>9}"
            f" {format_sig(row['bound'], 5):>9}"
        )
    return "\n".join(lines)


@main.command()
@click.option("--dims", default="2,3,4,10,100", show_default=True,
              help="Comma-separated dimensions.")
@click.option("--vfunction", default="improved", show_default=True,
              help="vogt|improved|custom:<file>.")
@click.option("--tolerance", default=1e-9, show_default=True, type=float,
              help="Golden-section tolerance on epsilon.")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json", "csv"]))
@_guard
def table(dims: str, vfunction: str, tolerance: float, fmt: str) -> None:
    """Bound table over dimensions (defaults reproduce the reference rows)."""
    dim_list = _parse_dims(dims)
    vkind, vtable = _parse_vfunction(vfunction)
    rows = compute_table_rows(dim_list, vkind, vtable=vtable, tolerance=tolerance)
    if fmt == "json":
        _emit_json("table", {"dims": dim_list, "vfunction": vfunction,
                             "tolerance": tolerance}, {"rows": rows})
    elif fmt == "csv":
        header = ["d", "p_squared", "j_squared", "r", "epsilon", "a", "bound"]
        _emit_csv(header, [[row["d"], row["p_squared_cell"], row["j_squared_cell"],
                            row["r"], row["epsilon"], row["a"], row["bound"]]
                           for row in rows])
    else:
        click.echo(_table_text(rows))


# ---------------------------------------------------------------- bound


@main.command()
@click.option("--dim", required=True, type=int, help="Dimension d >= 2.")
@click.option("--ratio", "ratio_spec", default="bessel", show_default=True,
              help="bessel|closed|4overd|custom:<v>.")
@click.option("--vfunction", default="improved", show_default=True,
              help="vogt|improved|custom:<file>.")
@click.option("--tolerance", default=1e-9, show_default=True, type=float)
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json", "csv"]))
@_guard
def bound(dim: int, ratio_spec: str, vfunction: str, tolerance: float,
          fmt: str) -> None:
    """Minimize the bound for one dimension."""
    ratio = _parse_ratio(ratio_spec, dim)
    vkind, vtable = _parse_vfunction(vfunction)
    res = optimize_bound(BoundQuery(d=dim, ratio=ratio, vkind=vkind,
                                    tolerance=tolerance, vtable=vtable))
    result = {
        "d": res.d,
        "ratio_kind": ratio.kind.value,
        "r": res.r,
        "vkind": res.vkind.value,
        "epsilon": res.epsilon_star,
        "a": res.a_star,
        "bound": res.bound,
        "evaluations": res.evaluations,
    }
    params = {"dim": dim, "ratio": ratio_spec, "vfunction": vfunction,
              "tolerance": tolerance}
    if fmt == "json":
        _emit_json("bound", params, result)
    elif fmt == "csv":
        header = ["d", "ratio_kind", "r", "vkind", "epsilon", "a", "bound"]
        _emit_csv(header, [[res.d, ratio.kind.value, res.r, res.vkind.value,
                            res.epsilon_star, res.a_star, res.bound]])
    else:
        click.echo(
            f"d={res.d}  r={res.r:.6g} ({ratio.kind.value})  V={res.vkind.value}\n"
            f"epsilon*={format_sig(res.epsilon_star, 5)}  a*={format_sig(res.a_star, 5)}\n"
            f"bound={format_sig(res.bound, 5)}  (full {res.bound!r})"
        )


# ---------------------------------------------------------------- zeros


@main.command()
@click.option("--nu", type=float, default=None,
              help="Order for the first zero of J_nu.")
@click.option("--family", default="jzero", show_default=True,
              type=click.Choice(["jzero", "proot"]))
@click.option("--dim", type=int, default=None,
              help="Dimension (p-root family only).")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json", "csv"]))
@_guard
def zeros(nu: float | None, family: str, dim: int | None, fmt: str) -> None:
    """First Bessel zero j_{nu,1} or p-root p_{d/2,1}."""
    if family == "jzero":
        if nu is None:
            raise click.UsageError("jzero family needs --nu")
        record = first_bessel_zero(nu)
        params: dict[str, Any] = {"family": family, "nu": nu}
    else:
        if dim is None:
            raise click.UsageError("proot family needs --dim")
        record = first_p_root(dim)
        params = {"family": family, "dim": dim}
    result = {
        "nu": record.nu,
        "family": record.family.value,
        "value": record.value,
        "value_squared_up": record.value_squared_up,
        "value_squared_down": record.value_squared_down,
    }
    if fmt == "json":
        _emit_json("zeros", params, result)
    elif fmt == "csv":
        header = list(result)
        _emit_csv(header, [[result[key] for key in header]])
    else:
        click.echo(
            f"family={record.family.value}  nu={record.nu:g}\n"
            f"value={record.value!r}\n"
            f"value^2 in [{record.value_squared_down!r}, {record.value_squared_up!r}]"
        )


# ---------------------------------------------------------------- asymptotic


#: the grid is built as a list of floats, so its size is capped
_MAX_POINTS = 10 ** 6


def _geometric_dims(dmin: int, dmax: int, points: int) -> list[int]:
    if dmin < 5:
        raise click.UsageError("--dmin must be >= 5 (so 4/d < 1)")
    if dmax < dmin:
        raise click.UsageError("--dmax must be >= --dmin")
    if not 1 <= points <= _MAX_POINTS:
        raise click.UsageError(f"--points must lie in [1, {_MAX_POINTS}]")
    if points == 1 or dmin == dmax:
        raw = [dmin]
    else:
        lo, hi = math.log(dmin), math.log(dmax)
        raw = [round(math.exp(lo + (hi - lo) * i / (points - 1)))
               for i in range(points)]
    out: list[int] = []
    for d in raw:
        d = max(d, dmin)
        if not out or d > out[-1]:
            out.append(d)
    return out


@main.command()
@click.option("--dmin", required=True, type=int)
@click.option("--dmax", required=True, type=int)
@click.option("--points", default=9, show_default=True, type=int)
@click.option("--c", "c_param", default=1.0, show_default=True, type=float)
@click.option("--alpha", default=-0.5, show_default=True, type=float)
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json", "csv"]))
@_guard
def asymptotic(dmin: int, dmax: int, points: int, c_param: float, alpha: float,
               fmt: str) -> None:
    """Evaluate the sqrt(e) family on a geometric grid of dimensions."""
    dims = _geometric_dims(dmin, dmax, points)
    rows = [{"d": d, "bound": value}
            for d, value in sweep(dims, c=c_param, alpha=alpha)]
    params = {"dmin": dmin, "dmax": dmax, "points": points, "c": c_param,
              "alpha": alpha, "k": A_SLOPE}
    if fmt == "json":
        _emit_json("asymptotic", params, {"rows": rows})
    elif fmt == "csv":
        _emit_csv(["d", "bound"], [[row["d"], row["bound"]] for row in rows])
    else:
        lines = [f"{'d':>12} {'bound':>14}"]
        lines += [f"{row['d']:>12} {row['bound']:>14.10f}" for row in rows]
        lines.append(f"{'sqrt(e)':>12} {math.sqrt(math.e):>14.10f}")
        click.echo("\n".join(lines))


# ---------------------------------------------------------------- verify-vbound


@main.command("verify-vbound")
@click.option("--shape", default="ball", show_default=True,
              type=click.Choice(["ball", "box"]))
@click.option("--radius", default=1.0, show_default=True, type=float)
@click.option("--sides", default=None, help="Comma-separated box sides.")
@click.option("--dim", required=True, type=int)
@click.option("--paths", default=100000, show_default=True, type=int)
@click.option("--dt", default=None, type=float,
              help="Time step (default 1e-4 * characteristic length^2).")
@click.option("--epsilon", default=0.5, show_default=True, type=float)
@click.option("--vfunction", default="vogt", show_default=True,
              help="vogt|improved.")
@click.option("--seed", default=42, show_default=True, type=int)
@click.option("--grid-points", default=25, show_default=True, type=int)
@click.option("--chunk-size", default=65536, show_default=True, type=int,
              help="Paths per chunk: chunk i draws from Philox(key=seed) "
                   "jumped i times, and at most twice this many paths are "
                   "in flight.")
@click.option("--bridge/--no-bridge", default=True, show_default=True,
              help="Brownian-bridge crossing correction.")
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(["text", "json", "csv"]))
@_guard
def verify_vbound(shape: str, radius: float, sides: str | None, dim: int,
                  paths: int, dt: float | None, epsilon: float,
                  vfunction: str, seed: int, grid_points: int,
                  chunk_size: int, bridge: bool, fmt: str) -> None:
    """Monte Carlo check of survival against the V-bound (exit 5 on failure)."""
    if shape == "ball":
        if sides is not None:
            raise click.UsageError("ball shape takes --radius, not --sides")
        domain = SimDomain.ball(radius, dim)
    else:
        source = click.get_current_context().get_parameter_source("radius")
        if source is not ParameterSource.DEFAULT:
            raise click.UsageError("box shape takes --sides, not --radius")
        if sides is None:
            raise click.UsageError("box shape needs --sides")
        try:
            side_vals = tuple(float(s) for s in sides.split(","))
        except ValueError:
            raise click.UsageError(f"--sides must be comma-separated numbers, got {sides!r}")
        domain = SimDomain.box(side_vals)
        if domain.dim != dim:
            raise click.UsageError("--dim disagrees with the number of sides")
    vkind, _ = _parse_vfunction(vfunction)
    if vkind is VKind.CUSTOM:
        raise click.UsageError("verify-vbound supports vogt|improved only")
    lam = principal_eigenvalue(domain)
    dt_val = default_dt(domain) if dt is None else dt
    check_grid_dt(lam, grid_points, dt_val)
    config = SimConfig(
        domain=domain,
        start=domain.center(),
        dt=dt_val,
        n_paths=paths,
        t_grid=default_t_grid(lam, grid_points),
        seed=seed,
        bridge_correction=bridge,
        chunk_size=chunk_size,
    )
    estimate = estimate_survival(config, sample_exit_times(config))
    report = check_vbound(estimate, vkind, epsilon, lam, dim)
    result = {
        "fingerprint": estimate.config_fingerprint,
        "lambda": lam,
        "epsilon": epsilon,
        "vkind": vkind.value,
        "n_paths": paths,
        "t_grid": list(estimate.t_grid),
        "survival": list(estimate.survival),
        "ci_low": list(estimate.ci_low),
        "ci_high": list(estimate.ci_high),
        "bound": list(report.bound_curve),
        "passed": report.passed,
        "worst_margin": report.worst_margin,
        "worst_index": report.worst_index,
    }
    params = {
        "shape": shape, "radius": radius if shape == "ball" else None,
        "sides": sides, "dim": dim, "paths": paths, "dt": dt_val,
        "epsilon": epsilon, "vfunction": vfunction, "seed": seed,
        "grid_points": grid_points, "chunk_size": chunk_size, "bridge": bridge,
    }
    if fmt == "json":
        _emit_json("verify-vbound", params, result)
    elif fmt == "csv":
        header = ["t", "survival", "ci_low", "ci_high", "bound"]
        _emit_csv(header, [
            [t, s, lo, hi, b]
            for t, s, lo, hi, b in zip(result["t_grid"], result["survival"],
                                       result["ci_low"], result["ci_high"],
                                       result["bound"])
        ])
    else:
        status = "PASS" if report.passed else "FAIL"
        click.echo(
            f"domain={shape} dim={dim} lambda={lam:.6g} epsilon={epsilon:g} "
            f"V={vkind.value}\n"
            f"paths={paths} dt={dt_val:g} seed={seed} "
            f"fingerprint={estimate.config_fingerprint[:16]}...\n"
            f"worst margin={report.worst_margin:.4e} at "
            f"t={estimate.t_grid[report.worst_index]:.4g}\n"
            f"{status}"
        )
    if not report.passed:
        sys.exit(EXIT_VBOUND_FAILED)


if __name__ == "__main__":
    main()
