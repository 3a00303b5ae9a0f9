"""The click front end of the command line: options and subcommands.

Each command builds a cli.RunConfig and hands it to cli.dispatch; this
module only parses arguments and writes the result.  It is loaded through
cli.main, so importing ietpc.cli alone does not import click.
"""

from __future__ import annotations

import sys

import click

from . import cli


def _finish(result: cli.DispatchResult) -> None:
    if result.out:
        click.echo(result.out, nl=False)
    if result.err:
        click.echo(result.err, nl=False, err=True)
    sys.exit(result.exit_code)


_map_opt = click.option("--map", "map_path", required=True, type=str,
                        help="Path to an iet/pc JSON map file.")
_x_opt = click.option("--x", "x", required=True, type=str,
                      help="Exact scalar, e.g. 1/3 or (3-1*sqrt(5))/2.")
_fmt_opt = click.option("--format", "fmt", type=click.Choice(sorted(cli._FORMATS)),
                        default=None, help="Output format.")
_out_opt = click.option("--out", "out_path", type=str, default=None,
                        help="Write output to this file (atomic).")
_force_opt = click.option("--force", is_flag=True,
                          help="Overwrite existing output files.")


@click.group()
def main() -> None:
    """Exact codings, complexity tables, and contraction constructions."""


@main.command("code")
@_map_opt
@_x_opt
@click.option("--len", "length", required=True, type=int)
@_fmt_opt
@_out_opt
@_force_opt
def _click_code(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="code", **kw)))


@main.command("complexity")
@_map_opt
@_x_opt
@click.option("--len", "length", type=int, default=None)
@click.option("--kmax", "k_max", required=True, type=int)
@click.option("--refinement", is_flag=True,
              help="Partition-refinement table (iet maps only).")
@_fmt_opt
@_out_opt
@_force_opt
def _click_complexity(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="complexity", **kw)))


@main.command("idoc")
@_map_opt
@click.option("--depth", type=int, default=100)
@_out_opt
@_force_opt
def _click_idoc(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="idoc", **kw)))


@main.command("construct")
@_map_opt
@click.option("--N", "depth", type=int, default=64,
              help="Truncation depth of the gap system.")
@click.option("--seed", type=str, default=None,
              help="Orbit seed (image of a partition endpoint).")
@click.option("--sidecar", "sidecar_path", type=str, default=None,
              help="Where to write the enclosure/provenance sidecar.")
@_out_opt
@_force_opt
def _click_construct(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="construct", **kw)))


@main.command("verify")
@_map_opt
@click.option("--N", "depth", type=int, default=64)
@click.option("--seed", type=str, default=None)
@click.option("--len", "length", required=True, type=int)
@click.option("--samples", required=True, type=int)
@_out_opt
@_force_opt
def _click_verify(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="verify", **kw)))


@main.command("rabbit")
@click.option("--bits", "precision_bits", type=int, default=60)
@_out_opt
@_force_opt
def _click_rabbit(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="rabbit", **kw)))


@main.command("certify")
@_map_opt
@_x_opt
@click.option("--budget", type=int, default=4096,
              help="Float-orbit length used to hunt for candidates.")
@_out_opt
@_force_opt
def _click_certify(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="certify", **kw)))


@main.command("factor")
@_map_opt
@_x_opt
@click.option("--m", type=int, default=20000, help="Orbit length.")
@_out_opt
@_force_opt
def _click_factor(**kw) -> None:
    _finish(cli.dispatch(cli.RunConfig(command="factor", **kw)))

