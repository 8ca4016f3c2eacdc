"""Command-line interface: map evaluation, placement, sweeps, oracle runs.

Exit codes: 0 success (and feasible), 2 domain error, 3 infeasible problem,
4 size-guard violation, 1 anything else. All outputs are deterministic given
the same configuration and seed.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import sys
from pathlib import Path

import click

from .channel import capacity_bps, gain_db
from .config import RunConfig, load_config
from .errors import ConfigError, DomainError, EmptyProblemError, GuardError, InfeasibleError
from .geometry import Point3, Segment3
from .placement import solve_placement, write_trace_csv
from .reference import exhaustive_min_abs
from .scenario import build_urban, run_experiment, sample_instance, write_runs_csv, write_summary_csv
from .tomography import shadowing_ellipsoid_sum, shadowing_line_integral

# Reserve exit code 2 for domain errors; click's default usage-error code
# would collide with it.
click.exceptions.UsageError.exit_code = 1


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DomainError as exc:
            click.echo(f"domain error: {exc}", err=True)
            sys.exit(2)
        except InfeasibleError as exc:
            click.echo(f"infeasible: {exc}", err=True)
            if exc.users:
                click.echo("uncoverable users: " + ", ".join(map(str, exc.users)), err=True)
            sys.exit(3)
        except GuardError as exc:
            click.echo(f"guard violation: {exc}", err=True)
            sys.exit(4)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(1)
        except EmptyProblemError as exc:
            click.echo(f"empty problem: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _config_options(fn):
    fn = click.option(
        "-c", "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
        default=None, help="YAML configuration file (defaults apply when omitted).",
    )(fn)
    fn = click.option(
        "-O", "--override", "overrides", multiple=True, metavar="SECTION.KEY=VALUE",
        help="Override a config field; may be repeated.",
    )(fn)
    return fn


def _parse_point(text: str) -> Point3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"point {text!r} must be x,y,z")
    try:
        coords = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"point {text!r} must be numeric x,y,z") from None
    if not all(map(math.isfinite, coords)):
        raise ConfigError(f"point {text!r}: coordinates must be finite")
    return Point3(*coords)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _out_dir(cfg: RunConfig, out: str | None) -> Path:
    path = Path(out if out is not None else cfg.output.dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from None
    return path


class _StderrHandler(logging.Handler):
    """Library log records as ``warning: <message>`` lines on the current stderr."""

    def emit(self, record):
        click.echo(f"{record.levelname.lower()}: {record.getMessage()}", err=True)


@click.group()
def main():
    """Radio-map evaluation and aerial base-station placement."""
    logger = logging.getLogger("absplace")
    if not any(isinstance(h, _StderrHandler) for h in logger.handlers):
        logger.addHandler(_StderrHandler(logging.WARNING))


@main.command("map")
@_config_options
@click.option("--tx", required=True, help="Transmitter position x,y,z in meters.")
@click.option("--rx", required=True, help="Receiver position x,y,z in meters.")
@click.option(
    "--ellipsoid-width", type=float, default=None,
    help="Ellipsoid width in meters for the conventional sum (default: one wavelength).",
)
@_handle_errors
def cmd_map(config_path, overrides, tx, rx, ellipsoid_width):
    """Shadowing (both methods), gain, and capacity for one link."""
    cfg = load_config(config_path, overrides)
    width = cfg.channel.wavelength if ellipsoid_width is None else ellipsoid_width
    if not (width > 0 and math.isfinite(width)):
        raise ConfigError(f"--ellipsoid-width must be finite and positive, got {width}")
    scenario = build_urban(cfg.scenario, cfg.channel)
    a = _parse_point(tx)
    b = _parse_point(rx)
    seg = Segment3(a, b)
    xi = shadowing_line_integral(scenario.slf, seg)
    xi_ell = shadowing_ellipsoid_sum(scenario.slf, seg, width=width)
    gain = gain_db(cfg.channel, a, b, xi)
    cap = capacity_bps(cfg.channel, gain)
    click.echo(
        _dump_json(
            {
                "xi_traversal": xi,
                "xi_ellipsoid": xi_ell,
                "gain_db": gain,
                "capacity_mbps": cap / 1e6,
            }
        )
    )


def _build_instance(cfg: RunConfig):
    scenario = build_urban(cfg.scenario, cfg.channel)
    return scenario, sample_instance(scenario, cfg.experiment.seed, 0)


@main.command("place")
@_config_options
@click.option("-o", "--out", default=None, help="Output directory (default from config).")
@_handle_errors
def cmd_place(config_path, overrides, out):
    """Solve one placement instance; write JSON result and positions CSV."""
    cfg = load_config(config_path, overrides)
    out_dir = _out_dir(cfg, out)
    scenario, cm = _build_instance(cfg)
    result = solve_placement(cm, cfg.channel.min_rate)

    payload = {
        "n_abs": result.n_abs,
        "feasible": result.feasible,
        "selected_indices": list(result.selected),
        "grid_indices": [scenario.flight_indices[g] for g in result.selected],
        "positions": [list(p.as_tuple()) for p in result.positions],
        "per_user_rate_mbps": [float(r) / 1e6 for r in result.user_rates],
        "min_rate_mbps": cfg.channel.min_rate / 1e6,
        "iterations": result.iterations,
        "converged": result.converged,
        "lower_bound": result.lower_bound,
        "proven_optimal": result.proven_optimal,
    }
    (out_dir / "placement.json").write_text(_dump_json(payload) + "\n")
    with open(out_dir / "positions.csv", "w", newline="") as fh:
        fh.write("index,x,y,z\n")
        for g, p in zip(result.selected, result.positions):
            fh.write(f"{g},{p.x!r},{p.y!r},{p.z!r}\n")
    if cfg.output.write_trace:
        write_trace_csv(result.objective_trace, out_dir / "trace.csv")
    click.echo(f"placed {result.n_abs} stations; results in {out_dir}")
    sys.exit(0 if result.feasible else 3)


@main.command("experiment")
@_config_options
@click.option("-o", "--out", default=None, help="Output directory (default from config).")
@_handle_errors
def cmd_experiment(config_path, overrides, out):
    """Run the configured sweep; write per-run and aggregated CSVs."""
    cfg = load_config(config_path, overrides)
    out_dir = _out_dir(cfg, out)
    result = run_experiment(cfg.experiment)
    write_runs_csv(result, out_dir / "runs.csv", record_timing=cfg.output.record_timing)
    write_summary_csv(result, out_dir / "summary.csv")
    click.echo(f"wrote {out_dir / 'runs.csv'} and {out_dir / 'summary.csv'}")


@main.command("oracle")
@_config_options
@click.option("--compare-admm", is_flag=True, help="Also run the placement solver (solve_placement) and report the gap.")
@_handle_errors
def cmd_oracle(config_path, overrides, compare_admm):
    """Exhaustive minimum station count for the configured (small) instance."""
    cfg = load_config(config_path, overrides)
    _, cm = _build_instance(cfg)
    n_star, witness = exhaustive_min_abs(cm, cfg.channel.min_rate)
    payload = {"n_star": n_star, "witness": list(witness)}
    if compare_admm:
        result = solve_placement(cm, cfg.channel.min_rate)
        payload["admm"] = {"n_abs": result.n_abs, "gap": result.n_abs - n_star}
    click.echo(_dump_json(payload))


if __name__ == "__main__":
    main()
