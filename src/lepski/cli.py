"""Command-line front end.

Subcommands: simulate, estimate, tail-risk, rates, verify-stability.
Every command takes --config PATH plus optional --seed, --out, --jobs and
--format overrides (environment: LEPSKI_SEED, LEPSKI_JOBS, each unset when
empty).  --format replaces the config's `formats` list only when it is
given.  Exit codes: 0 success, 2 config error, 3 acceptance-red, 4 IO
failure.

The config is JSON.  A section's keys are the keywords of the constructor
that the section names (see `campaign`).  A key that nothing reads, an
unknown name, a value that its constructor refuses, a bool or a string where
a number belongs, and a non-integer LEPSKI_SEED or LEPSKI_JOBS each exit 2
before any cell runs.  A command's last line names the files it wrote.

The CLI owns its process, so before any command runs it asks glibc to keep
freed memory on the heap (`keep_heap`): without that, every large estimation
cell hands its working set back to the kernel and faults it in again.  Worker
processes inherit the setting only because `stability.pool_map` forks them
(the fork start method, Linux's default on Python 3.11); should it ever leave
fork, the call moves to a worker initializer.  Where the C library has no
`mallopt` or refuses it, the commands run as before.  Importing `lepski` or
`lepski.cli` sets nothing, nor does any library entry point.
"""

from __future__ import annotations

import ctypes  # numpy imports it too, so the CLI's import pays nothing for it
import functools
import sys

import click

from .errors import ConfigError, InsufficientOmegaPrime, LepskiError
from . import campaign

EXIT_CONFIG = 2
EXIT_RED = 3
EXIT_IO = 4

HEAP_THRESHOLD = 64 << 20  # bytes; the smallest tried that keeps a 1e6 cell fault-free
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # the option codes of glibc's <malloc.h>


def _mallopt():
    """The C library's mallopt, or None where it has none (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def keep_heap() -> bool:
    """Raise glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD to HEAP_THRESHOLD, so
    that freed memory up to that size stays on the heap for the next stage and
    cell instead of going back to the kernel.  True when mallopt accepted both.

    Without it a 1e5 estimation cell re-faults its whole working set, about
    1,500 minor page faults, in every cell.  The process keeps the setting.
    Workers inherit it only under the fork start method; under spawn or
    forkserver each would need this call in a pool initializer.  A missing
    or refused mallopt leaves the allocator as it was.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return False
    return all([mallopt(option, HEAP_THRESHOLD) == 1
                for option in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD)])


def _common(body):
    """The shared options, with --seed and --jobs read from their flags, else
    from LEPSKI_SEED and LEPSKI_JOBS by click, and the library's errors mapped
    to exit codes."""

    @functools.wraps(body)
    def run(jobs, **kwargs):
        try:
            if jobs < 1:
                raise ConfigError("--jobs must be at least 1")
            body(jobs=jobs, **kwargs)
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
    fn = click.option("--seed", type=int, envvar="LEPSKI_SEED", show_envvar=True,
                      help="Master seed override.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output directory override.")(fn)
    fn = click.option("--jobs", type=int, default=1, envvar="LEPSKI_JOBS", show_envvar=True,
                      help="Worker count; output is byte-identical for any value.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(campaign.OUTPUT_FORMATS), default=None,
                      help="Output format; overrides the config's formats when given.")(fn)
    return fn


def _echo_outputs(what: str, paths: list) -> None:
    """Echo what a command computed and the files it wrote, by path up to four."""
    written = (", ".join(map(str, paths)) if len(paths) <= 4
               else f"{len(paths)} files to {paths[0].parent}")
    click.echo(f"{what}: wrote {written or 'no file, since formats is empty'}")


@click.group()
def main():
    """Adaptive kernel regression campaigns and stability verification."""
    keep_heap()


@main.command()
@_common
def simulate(config_path, seed, out, jobs, fmt):
    """Write one sample file per (n, rep) cell and format."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    _echo_outputs(f"{len(cfg.n_ladder) * cfg.n_rep} samples", campaign.run_simulate(cfg, jobs))


@main.command()
@_common
def estimate(config_path, seed, out, jobs, fmt):
    """Run selection and rate diagnostics for every replication."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    res = campaign.run_estimate(cfg, jobs)
    _echo_outputs(f"{len(res['rows'])} estimate rows", res["paths"])


@main.command("tail-risk")
@_common
def tail_risk(config_path, seed, out, jobs, fmt):
    """Empirical tail of the risk against the random rate over the config's t_grid."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    res = campaign.run_tail_risk(cfg, jobs)
    _echo_outputs(f"a tail table of {len(res['rows'])} thresholds", res["paths"])


@main.command()
@_common
def rates(config_path, seed, out, jobs, fmt):
    """Deterministic-rate ladder with containment frequencies and scaling fit."""
    cfg = campaign.load_campaign(config_path, seed=seed, out=out, fmt=fmt)
    res = campaign.run_rates(cfg, jobs)
    if fit := res["fit"]:
        click.echo(f"slope(h_w)={fit['slope_hw']:.4f} slope(rate)={fit['slope_rate']:.4f}")
    _echo_outputs(f"{len(res['rows'])} ladder rows", res["paths"])


@main.command("verify-stability")
@_common
def verify_stability(config_path, seed, out, jobs, fmt):
    """Run the stability bound matrix; nonzero exit when any cell is red."""
    doc = campaign.read_config(config_path)
    res = campaign.run_verify_stability(doc, seed=seed, out=out, fmt=fmt, jobs=jobs)
    n_red = sum(1 for r in res["rows"] if not r["pass"])
    _echo_outputs(f"{len(res['rows'])} stability rows", res["paths"])
    if n_red:
        click.echo(f"acceptance-red: {n_red} cells violate their bound", err=True)
        sys.exit(EXIT_RED)


if __name__ == "__main__":
    main()
