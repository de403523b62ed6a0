"""Command-line front end: `hotspots table|bound|zeros|asymptotic|verify-vbound`.

Output formats: human tables (`--format text`, mirroring the displayed
precision conventions of the bound table), machine JSON (full precision,
deterministic byte-for-byte for a fixed parameter set — sorted keys, no
timestamps, sha256 output checksum in the manifest), and CSV.  `_emit` is
the one place a format is chosen: each command hands it the result in all
three shapes, the text as a callable that only the text format calls.

Exit codes: 0 success, 2 usage error, 3 infeasible parameters, 4 internal
accuracy failure, 5 V-bound check failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Any, Callable, Iterable

from . import __version__
from ._format import canonical_json, format_sig
from .asymptotic import A_SLOPE, sweep
from .bound import optimize_bound
from .errors import AccuracyError, InfeasibleParameterError
from .ratio import RatioKind, bessel_exact_from_records, displayed_squares, ratio_upper_bound
from .vfunction import CustomTable, VKind, load_custom_table
from .zeros import first_bessel_zero, first_p_root

EXIT_INFEASIBLE = 3
EXIT_ACCURACY = 4
EXIT_VBOUND_FAILED = 5


class UsageError(Exception):
    """A command line the parser accepted but a command cannot use (exit 2)."""


def _emit(fmt: str, subcommand: str, parameters: dict, result: dict,
          header: list[str], rows: Iterable[Iterable[Any]],
          text: Callable[[], str]) -> None:
    """Print the manifest and result (json), header and rows (csv) or text()."""
    if fmt == "json":
        import hashlib

        body = canonical_json(result)  # serialized once: hashed, then printed
        manifest = {
            "subcommand": subcommand,
            "parameters": parameters,
            "version": __version__,
            "output_checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        }
        # canonical_json({"manifest": manifest, "result": result}): keys sort
        # "manifest" before "result"
        print('{"manifest":' + canonical_json(manifest) + ',"result":' + body + "}")
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print(text())


def _parse_ratio(spec: str, d: int) -> tuple[RatioKind, float]:
    """The ratio kind named by --ratio and its value r(d)."""
    if spec.startswith("custom:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad custom ratio {spec!r}")
        return RatioKind.CUSTOM, ratio_upper_bound(d, RatioKind.CUSTOM, custom_value=value)
    try:
        kind = RatioKind(spec)
    except ValueError:
        raise UsageError(
            f"--ratio must be bessel|closed|4overd|custom:<v>, got {spec!r}"
        )
    if kind is RatioKind.CUSTOM:
        raise UsageError("custom ratio needs a value: custom:<v>")
    return kind, ratio_upper_bound(d, kind)


def _parse_vfunction(spec: str) -> tuple[VKind, CustomTable | None]:
    if spec.startswith("custom:"):
        import csv  # for csv.Error below

        path = spec.split(":", 1)[1]
        try:
            return VKind.CUSTOM, load_custom_table(path)
        except (OSError, ValueError, csv.Error) as exc:
            # ValueError: a NUL byte in the path, or a file that is not UTF-8
            raise UsageError(f"cannot read V table {path!r}: {exc}")
    try:
        kind = VKind(spec)
    except ValueError:
        raise UsageError(
            f"--vfunction must be vogt|improved|custom:<file>, got {spec!r}"
        )
    if kind is VKind.CUSTOM:
        raise UsageError("custom V-function needs a file: custom:<file>")
    return kind, None


def _parse_dims(spec: str) -> list[int]:
    try:
        dims = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--dims must be comma-separated integers, got {spec!r}")
    if not dims:
        raise UsageError("--dims is empty")
    return dims


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
        res = optimize_bound(d, r_value, vkind, tolerance, vtable)
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


def table(dims: str, vfunction: str, tolerance: float, fmt: str) -> None:
    """Bound table over dimensions (defaults reproduce the reference rows)."""
    dim_list = _parse_dims(dims)
    vkind, vtable = _parse_vfunction(vfunction)
    rows = compute_table_rows(dim_list, vkind, vtable=vtable, tolerance=tolerance)
    _emit(fmt, "table", {"dims": dim_list, "vfunction": vfunction, "tolerance": tolerance},
          {"rows": rows},
          ["d", "p_squared", "j_squared", "r", "epsilon", "a", "bound"],
          ([row["d"], row["p_squared_cell"], row["j_squared_cell"], row["r"],
            row["epsilon"], row["a"], row["bound"]] for row in rows),
          lambda: _table_text(rows))


# ---------------------------------------------------------------- bound


def bound(dim: int, ratio_spec: str, vfunction: str, tolerance: float,
          fmt: str) -> None:
    """Minimize the bound for one dimension."""
    ratio_kind, r = _parse_ratio(ratio_spec, dim)
    vkind, vtable = _parse_vfunction(vfunction)
    res = optimize_bound(dim, r, vkind, tolerance, vtable)
    result = {
        "d": res.d,
        "ratio_kind": ratio_kind.value,
        "r": res.r,
        "vkind": res.vkind.value,
        "epsilon": res.epsilon_star,
        "a": res.a_star,
        "bound": res.bound,
        "evaluations": res.evaluations,
    }
    params = {"dim": dim, "ratio": ratio_spec, "vfunction": vfunction,
              "tolerance": tolerance}
    header = ["d", "ratio_kind", "r", "vkind", "epsilon", "a", "bound"]
    _emit(fmt, "bound", params, result, header, [[result[key] for key in header]],
          lambda: f"d={res.d}  r={res.r:.6g} ({ratio_kind.value})  V={res.vkind.value}\n"
          f"epsilon*={format_sig(res.epsilon_star, 5)}  a*={format_sig(res.a_star, 5)}\n"
          f"bound={format_sig(res.bound, 5)}  (full {res.bound!r})")


# ---------------------------------------------------------------- zeros


def zeros(nu: float | None, family: str, dim: int | None, fmt: str) -> None:
    """First Bessel zero j_{nu,1} or p-root p_{d/2,1}."""
    if family == "jzero":
        if nu is None:
            raise UsageError("jzero family needs --nu")
        if dim is not None:
            raise UsageError("jzero family takes --nu, not --dim")
        record = first_bessel_zero(nu)
        params: dict[str, Any] = {"family": family, "nu": nu}
    else:
        if dim is None:
            raise UsageError("proot family needs --dim")
        if nu is not None:
            raise UsageError("proot family takes --dim, not --nu")
        record = first_p_root(dim)
        params = {"family": family, "dim": dim}
    result = {
        "nu": record.nu,
        "family": record.family.value,
        "value": record.value,
        "value_squared_up": record.value_squared_up,
        "value_squared_down": record.value_squared_down,
    }
    _emit(fmt, "zeros", params, result, list(result), [list(result.values())],
          lambda: f"family={record.family.value}  nu={record.nu:g}\n"
          f"value={record.value!r}\n"
          f"value^2 in [{record.value_squared_down!r}, {record.value_squared_up!r}]")


# ---------------------------------------------------------------- asymptotic


#: the grid is built as a list of floats, so its size is capped
_MAX_POINTS = 10 ** 6


def _geometric_dims(dmin: int, dmax: int, points: int) -> list[int]:
    if dmin < 5:
        raise UsageError("--dmin must be >= 5 (so 4/d < 1)")
    if dmax < dmin:
        raise UsageError("--dmax must be >= --dmin")
    if not 1 <= points <= _MAX_POINTS:
        raise UsageError(f"--points must lie in [1, {_MAX_POINTS}]")
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


def asymptotic(dmin: int, dmax: int, points: int, c_param: float, alpha: float,
               fmt: str) -> None:
    """Evaluate the sqrt(e) family on a geometric grid of dimensions."""
    dims = _geometric_dims(dmin, dmax, points)
    rows = [{"d": d, "bound": value}
            for d, value in sweep(dims, c=c_param, alpha=alpha)]
    params = {"dmin": dmin, "dmax": dmax, "points": points, "c": c_param,
              "alpha": alpha, "k": A_SLOPE}
    _emit(fmt, "asymptotic", params, {"rows": rows}, ["d", "bound"],
          ([row["d"], row["bound"]] for row in rows),
          lambda: "\n".join([f"{'d':>12} {'bound':>14}"]
                            + [f"{row['d']:>12} {row['bound']:>14.10f}" for row in rows]
                            + [f"{'sqrt(e)':>12} {math.sqrt(math.e):>14.10f}"]))


# ---------------------------------------------------------------- verify-vbound


def verify_vbound(shape: str, radius: float | None, sides: str | None, dim: int,
                  paths: int, dt: float | None, epsilon: float,
                  vfunction: str, seed: int, grid_points: int,
                  chunk_size: int, fmt: str) -> None:
    """Monte Carlo check of survival against the V-bound (exit 5 on failure)."""
    # here, not at the top: numpy loads only for the command that needs it
    from .montecarlo import (
        _MAX_GRID_POINTS,
        Ball,
        Box,
        SimConfig,
        check_vbound,
        default_dt,
        default_t_grid,
        estimate_survival,
        principal_eigenvalue,
        sample_exit_times,
        vbound_log_v,
    )

    if shape == "ball":
        if sides is not None:
            raise UsageError("ball shape takes --radius, not --sides")
        radius = 1.0 if radius is None else radius
        domain = Ball(radius, dim)
    else:
        if radius is not None:
            raise UsageError("box shape takes --sides, not --radius")
        if sides is None:
            raise UsageError("box shape needs --sides")
        try:
            side_vals = tuple(float(s) for s in sides.split(","))
        except ValueError:
            raise UsageError(f"--sides must be comma-separated numbers, got {sides!r}")
        domain = Box(side_vals)
        if domain.dim != dim:
            raise UsageError("--dim disagrees with the number of sides")
    vkind, _ = _parse_vfunction(vfunction)
    if vkind is VKind.CUSTOM:
        raise UsageError("verify-vbound supports vogt|improved only")
    lam = principal_eigenvalue(domain)
    if grid_points > _MAX_GRID_POINTS:
        raise InfeasibleParameterError(
            f"grid_points={grid_points} is too many; at most {_MAX_GRID_POINTS} "
            "are allowed")
    t_grid = default_t_grid(lam, grid_points)
    dt_val = default_dt(domain, t_grid) if dt is None else dt
    config = SimConfig(
        domain=domain,
        start=domain.center(),
        dt=dt_val,
        n_paths=paths,
        t_grid=t_grid,
        seed=seed,
        chunk_size=chunk_size,
    )
    vbound_log_v(vkind, epsilon, dim)  # an unusable bound exits 3 before any path is drawn
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
        "shape": shape, "radius": radius,
        "sides": sides, "dim": dim, "paths": paths, "dt": dt_val,
        "epsilon": epsilon, "vfunction": vfunction, "seed": seed,
        "grid_points": grid_points, "chunk_size": chunk_size,
        # a constant: the key stays, so every manifest keeps its bytes
        "bridge": True,
    }
    _emit(fmt, "verify-vbound", params, result,
          ["t", "survival", "ci_low", "ci_high", "bound"],
          zip(estimate.t_grid, estimate.survival, estimate.ci_low, estimate.ci_high,
              report.bound_curve),
          lambda: f"domain={shape} dim={dim} lambda={lam:.6g} epsilon={epsilon:g} "
          f"V={vkind.value}\n"
          f"paths={paths} dt={dt_val:g} seed={seed} "
          f"fingerprint={estimate.config_fingerprint[:16]}...\n"
          f"worst margin={report.worst_margin:.4e} at "
          f"t={estimate.t_grid[report.worst_index]:.4g}\n"
          f"{'PASS' if report.passed else 'FAIL'}")
    if not report.passed:
        sys.exit(EXIT_VBOUND_FAILED)


# ---------------------------------------------------------------- parsing


class _Parser(argparse.ArgumentParser):
    """A parser that reads argv as click did, in one pass of its own.

    argparse declares the options and writes the help, the usage and every
    error line; this pass reads the words and fills in the namespace, so
    argparse's own parse loop never runs.  A value option takes the next
    word even when it starts with "-" (`--tolerance -1e-05`, `--c -inf`,
    which argparse alone reads as unknown options), and its last value is
    the one kept.  An unknown option, a missing value or a value given to a
    flag is an error at once, in argv order.  After the pass, in this order:
    `--help` acts wherever it stands, and the other flags act in argv order;
    each kept value is converted by its option's type (int, float or none)
    and checked against its choices, in the order the options first appear,
    and the first value refused is the error; missing required options are
    named; `--` as a value is refused (argparse would strip it and hand the
    command an empty list); and the words that are no option are returned
    as extras, which `parse_args` refuses at the top level.  At the top
    level the options end at the command's name, which may follow one `--`,
    and the rest of argv goes to the command's parser.

    Each parser builds its merged defaults and its list of required options
    once, on its first parse, after every option is declared.  A value is
    converted here directly, not through argparse's `_get_values`, which
    costs several calls per word; argparse converts a word only to refuse
    it, so every error line is still its own.  Declared defaults are used
    as they stand: no option here has a string default that argparse would
    convert.
    """

    #: the top level's `add_subparsers` action; None in a command's parser
    commands: argparse.Action | None = None

    @functools.cached_property
    def _all_defaults(self) -> dict[str, Any]:
        """Each dest's default: its option's, else the one `set_defaults` gave."""
        declared = {action.dest: action.default for action in self._actions
                    if action.dest is not argparse.SUPPRESS
                    and action.default is not argparse.SUPPRESS}
        return {**self._defaults, **declared}

    @functools.cached_property
    def _required(self) -> list[tuple[argparse.Action, str]]:
        """Each required action, with the name a missing-argument error gives it."""
        return [(action, "/".join(action.option_strings) or action.metavar)
                for action in self._actions if action.required]

    def parse_known_args(self, args=None, namespace=None):
        namespace = argparse.Namespace() if namespace is None else namespace
        for dest, default in self._all_defaults.items():
            if not hasattr(namespace, dest):
                setattr(namespace, dest, default)
        flags: list[tuple[argparse.Action, str]] = []
        values: dict[str, tuple[argparse.Action, str]] = {}  # the last value counts
        extras: list[str] = []  # at the top level: the command and its argv
        skipped = False
        words = iter(sys.argv[1:] if args is None else args)
        for word in words:
            if word == "--":
                if self.commands is not None and not skipped:
                    skipped = True  # the command's name may still look like an option
                    continue
                rest = list(words)
                if rest:  # at the top level "--" is then read as the command's name
                    extras += ["--", *rest]
                break
            if self.commands is not None and (word == "-" or not word.startswith("-")):
                extras += [word, *words]
                break
            option, eq, value = word.partition("=")
            action = self._option_string_actions.get(option)
            if action is None:
                if word.startswith("-") and word != "-":
                    self.error(f"unrecognized arguments: {word}")
                extras.append(word)
            elif action.nargs == 0:
                if eq:
                    self.error(f"argument {option}: ignored explicit argument {value!r}")
                flags.insert(0 if option == "--help" else len(flags), (action, option))
            else:
                if not eq:
                    value = next(words, None)
                    if value is None:
                        self.error(f"argument {option}: expected one argument")
                values[option] = action, value
        for action, option in flags:
            action(self, namespace, [], option)
        for option, (action, value) in values.items():
            if value != "--":
                action(self, namespace, self._value(action, value), option)
        given = {action for action, value in values.values() if value != "--"}
        if extras and self.commands is not None:
            given.add(self.commands)  # the command's name
        missing = [name for action, name in self._required if action not in given]
        if missing:
            self.error(f"the following arguments are required: {', '.join(missing)}")
        for option, (action, value) in values.items():
            if value == "--":
                self.error(f"argument {option}: expected one argument")
        if self.commands is None:
            return namespace, extras
        name = extras[0]  # only the name is checked
        if name not in self.commands.choices:
            self._refuse(self.commands, name)
        return self.commands.choices[name].parse_known_args(extras[1:], namespace)

    def _value(self, action: argparse.Action, word: str) -> Any:
        """The action's type applied to one word, checked against its choices."""
        try:
            value = word if action.type is None else action.type(word)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            self._refuse(action, word)
        if action.choices is not None and value not in action.choices:
            self._refuse(action, word)
        return value

    def _refuse(self, action: argparse.Action, word: str) -> None:
        """Exit 2 with argparse's error line for a word the action refuses.

        argparse's `_get_values` applies the same type to the word, catches
        the same exceptions and tests the same choices, so it refuses the
        word too, and its message is the one written.
        """
        try:
            self._get_values(action, [word])
        except argparse.ArgumentError as err:
            self.error(str(err))


class _HelpFormatter(argparse.HelpFormatter):
    """Wrap help at 78 columns, not at argparse's width from `COLUMNS`, and
    show the default after the help of every option that has one.

    The top level caps its help column at 17: there the longest name,
    verify-vbound, is too long for the column on any Python, and 3.13 would
    otherwise widen the column to fit it."""

    def __init__(self, prog: str, max_help_position: int = 24) -> None:
        super().__init__(prog, max_help_position=max_help_position, width=78)

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.default is None or action.default is argparse.SUPPRESS:
            return action.help
        return f"{action.help} [default: %(default)s]"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hotspots", allow_abbrev=False, add_help=False,
        formatter_class=functools.partial(_HelpFormatter, max_help_position=17),
        description="Upper bounds on the Hot Spots constant for Lipschitz domains.")
    parser.add_argument("--version", action="version",
                        version=f"hotspots, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.commands = parser.add_subparsers(
        title="commands", metavar="COMMAND", required=True)

    def command(fn: Callable[..., None], fmt: str = "text") -> Callable:
        sub = commands.add_parser(fn.__name__.replace("_", "-"), help=fn.__doc__,
                                  description=fn.__doc__, allow_abbrev=False,
                                  add_help=False, formatter_class=_HelpFormatter)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.add_argument("--format", dest="fmt", default=fmt,
                         choices=("text", "json", "csv"), help="Output format.")
        sub.set_defaults(command=fn, parser=sub)
        return sub.add_argument

    vfunction_help = "vogt|improved|custom:<file>."
    tolerance_help = "Golden-section tolerance on epsilon."

    option = command(table)
    option("--dims", default="2,3,4,10,100", help="Comma-separated dimensions.")
    option("--vfunction", default="improved", help=vfunction_help)
    option("--tolerance", default=1e-9, type=float, help=tolerance_help)

    option = command(bound)
    option("--dim", required=True, type=int, help="Dimension d >= 2.")
    option("--ratio", dest="ratio_spec", metavar="RATIO", default="bessel",
           help="bessel|closed|4overd|custom:<v>.")
    option("--vfunction", default="improved", help=vfunction_help)
    option("--tolerance", default=1e-9, type=float, help=tolerance_help)

    option = command(zeros)
    option("--nu", type=float, help="Order for the first zero of J_nu.")
    option("--family", default="jzero", choices=("jzero", "proot"),
           help="First zero of J_nu, or first p-root.")
    option("--dim", type=int, help="Dimension (p-root family only).")

    option = command(asymptotic)
    option("--dmin", required=True, type=int, help="Smallest dimension, >= 5.")
    option("--dmax", required=True, type=int, help="Largest dimension.")
    option("--points", default=9, type=int, help="Points on the geometric grid.")
    option("--c", dest="c_param", metavar="C", default=1.0, type=float,
           help="Family constant c.")
    option("--alpha", default=-0.5, type=float, help="Family exponent alpha.")

    option = command(verify_vbound, fmt="json")
    option("--shape", default="ball", choices=("ball", "box"), help="Domain shape.")
    option("--radius", type=float, help="Ball radius [default: 1.0].")
    option("--sides", help="Comma-separated box sides.")
    option("--dim", required=True, type=int, help="Dimension.")
    option("--paths", default=100000, type=int, help="Simulated paths.")
    option("--dt", type=float,
           help="Time step: each exit time is drawn from its exact law and "
                "reported rounded up to whole steps (default 1e-4 * "
                "characteristic length^2, at most a tenth of the grid spacing).")
    option("--epsilon", default=0.5, type=float, help="Epsilon of the V-bound.")
    option("--vfunction", default="vogt", help="vogt|improved.")
    option("--seed", default=42, type=int, help="Philox key.")
    option("--grid-points", default=25, type=int, help="Points on the time grid.")
    option("--chunk-size", default=65536, type=int,
           help="Paths per chunk: chunk i draws from Philox(key=seed) jumped i "
                "times, and chunks are drawn one at a time.")
    return parser


_PARSER = _build_parser()


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line (`sys.argv[1:]` when args is None).

    Exits with the documented code on any failure and returns on success.
    prog_name is accepted and ignored (`perfbench/child.py` passes it); the
    program is always named "hotspots".
    """
    options = vars(_PARSER.parse_args(args))
    command, parser = options.pop("command"), options.pop("parser")
    try:
        command(**options)
    except UsageError as exc:
        parser.error(str(exc))
    except InfeasibleParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INFEASIBLE)
    except OverflowError as exc:
        # a parameter so large that a float derived from it overflows
        print(f"error: parameter out of range: {exc}", file=sys.stderr)
        sys.exit(EXIT_INFEASIBLE)
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        sys.exit(EXIT_ACCURACY)


if __name__ == "__main__":
    main()
