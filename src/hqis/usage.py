"""argparse's parser for :mod:`hqis.cli`, loaded only for help, usage errors
and whatever else a well-formed argv is not.  Each function takes the running
CLI module, ``cli``: under ``python -m hqis.cli`` it is ``__main__``, and
importing ``hqis.cli`` would load a second one, whose errors ``main`` misses."""

import argparse


def build_parser(cli, command: str | None = None) -> argparse.ArgumentParser:
    """argparse's parser, from ``cli._COMMANDS``, with only ``command``'s
    subparser when it names one, else with all three, so that the help and
    an invalid choice list each."""

    class Parser(argparse.ArgumentParser):
        """Options spelled in full only, the subcommands' too: --secr would escape ``parse``."""

        def __init__(self, **kwargs):
            super().__init__(allow_abbrev=False, **kwargs)

        def error(self, message):
            raise cli.UsageError(message)

    parser = Parser(prog="hqis", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in cli._COMMANDS.items():
        if command == name or command not in cli._COMMANDS:
            subparser = sub.add_parser(name, help=summary)
            for flag, keywords in options.items():
                subparser.add_argument(flag, **keywords)
    return parser


def parse(cli, argv: list[str]) -> dict:
    """``vars`` of argparse's namespace for ``argv``, with ``--secret X``
    written ``--secret=X`` when X is four numbers, so that argparse does not
    read a leading minus, as in ``-0.6,0,0,-0.8``, as an option."""
    joined = []
    for token in argv:
        if joined[-1:] == ["--secret"] and cli._four_numbers(token) is not None:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    # argparse takes a subcommand from the first argument only, and that
    # subcommand's parser takes every argument after it.
    return vars(build_parser(cli, joined[0] if joined else None).parse_args(joined))
