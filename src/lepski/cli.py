"""Command-line front end.

Subcommands: simulate, estimate, tail-risk, rates, verify-stability.
Every command takes --config PATH plus optional --seed, --out, --jobs and
--format overrides (environment: LEPSKI_SEED, LEPSKI_JOBS).  --format
replaces the config's `formats` list only when it is given.  Exit codes:
0 success, 2 config error, 3 acceptance-red, 4 IO failure.

The config is JSON.  A section's keys are the keywords of the constructor
that the section names (see `campaign`).  A key that nothing reads, an
unknown name, a value that its constructor refuses and a non-integer
LEPSKI_SEED or LEPSKI_JOBS each exit 2 before any cell runs.
"""

from __future__ import annotations

import functools
import os
import sys

import click

from .errors import ConfigError, InsufficientOmegaPrime, LepskiError
from . import campaign

EXIT_CONFIG = 2
EXIT_RED = 3
EXIT_IO = 4


def _common(body):
    """The shared options, with --seed and --jobs resolved against the
    environment once and the library's errors mapped to exit codes."""

    @functools.wraps(body)
    def run(seed, jobs, **kwargs):
        try:
            seed, jobs = _resolve(seed, jobs)
            body(seed=seed, jobs=jobs, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except InsufficientOmegaPrime as exc:
            click.echo(f"acceptance-red: {exc}", err=True)
            sys.exit(EXIT_RED)
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except LepskiError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)

    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=False), help="Campaign JSON document.")(run)
    fn = click.option("--seed", type=int, default=None,
                      help="Master seed override (env: LEPSKI_SEED).")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output directory override.")(fn)
    fn = click.option("--jobs", type=int, default=None,
                      help="Worker count (env: LEPSKI_JOBS); output is byte-identical for any value.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(campaign.OUTPUT_FORMATS), default=None,
                      help="Output format; overrides the config's formats when given.")(fn)
    return fn


def _resolve(seed, jobs):
    """(seed, jobs) from the flags, else LEPSKI_SEED and LEPSKI_JOBS; jobs defaults to 1."""
    try:
        if seed is None and os.environ.get("LEPSKI_SEED"):
            seed = int(os.environ["LEPSKI_SEED"])
        if jobs is None:
            jobs = int(os.environ.get("LEPSKI_JOBS", "1"))
    except ValueError as exc:
        raise ConfigError(f"LEPSKI_SEED and LEPSKI_JOBS must be integers: {exc}") from exc
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    return seed, jobs


@click.group()
def main():
    """Adaptive kernel regression campaigns and stability verification."""


@main.command()
@_common
def simulate(config_path, seed, out, jobs, fmt):
    """Write one sample file per (n, rep) cell and format."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    paths = campaign.run_simulate(cfg, jobs)
    click.echo(f"wrote {len(paths)} sample files to {cfg.outputs}")


@main.command()
@_common
def estimate(config_path, seed, out, jobs, fmt):
    """Run selection and rate diagnostics for every replication."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    res = campaign.run_estimate(cfg, jobs)
    click.echo(f"wrote {len(res['rows'])} estimate rows to {cfg.outputs}")


@main.command("tail-risk")
@_common
def tail_risk(config_path, seed, out, jobs, fmt):
    """Empirical tail of the risk against the random rate over the config's t_grid."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    res = campaign.run_tail_risk(cfg, jobs)
    click.echo(f"wrote tail table ({len(res['rows'])} thresholds) to {cfg.outputs}")


@main.command()
@_common
def rates(config_path, seed, out, jobs, fmt):
    """Deterministic-rate ladder with containment frequencies and scaling fit."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    res = campaign.run_rates(cfg, jobs)
    if res["fit"]:
        click.echo(
            f"slope(h_w)={res['fit']['slope_hw']:.4f} "
            f"slope(rate)={res['fit']['slope_rate']:.4f}"
        )
    click.echo(f"wrote {len(res['rows'])} ladder rows to {cfg.outputs}")


@main.command("verify-stability")
@_common
def verify_stability(config_path, seed, out, jobs, fmt):
    """Run the stability bound matrix; nonzero exit when any cell is red."""
    doc = campaign.read_config(config_path)
    res = campaign.run_verify_stability(doc, seed=seed, out=out, fmt=fmt, jobs=jobs)
    n_red = sum(1 for r in res["rows"] if not r["pass"])
    click.echo(f"wrote {len(res['rows'])} stability rows to {', '.join(map(str, res['paths']))}")
    if n_red:
        click.echo(f"acceptance-red: {n_red} cells violate their bound", err=True)
        sys.exit(EXIT_RED)


if __name__ == "__main__":
    main()
