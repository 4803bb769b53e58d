"""Command-line interface.

Verbs: enumerate, count, verify, star, adapter, hasse.  Exit codes: 0 pass,
1 failed verification assertion, 2 size-guard refusal, 3 I/O error or a
closed stdout, 4 malformed input; :func:`main` alone maps errors to them.
Output is deterministic byte-for-byte for fixed flags.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Optional, Sequence

import click
from click.core import ParameterSource

from . import extvec, moore, rationals, stars, verify
from .extvec import POS_INF, ZERO
from .moore import GuardError, MooreFamily

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_GUARD = 2
EXIT_IO = 3
EXIT_INPUT = 4


class InputError(ValueError):
    """Malformed CLI input (exit code 4)."""


# ---------------------------------------------------------------------------
# Parsing helpers

_BARE_KEY = re.compile(r'([{\s,])([A-Za-z_]\w*)\s*:')
#: An integer token once stripped: a sign and ASCII decimal digits, no more.
#: ``int()`` alone would also read "1_0" and non-ASCII digits such as "٣".
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _lenient_json(text: str) -> dict:
    """JSON with optional bare keys, e.g. {n:2,members:[[0],[0,1]]}.  Either
    parse may recurse past Python's limit on nesting: a bare-key record fails
    the first at once and nests only in the second."""
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return json.loads(_BARE_KEY.sub(r'\1"\2":', text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot parse record: {exc}: {text!r}") from exc


def _load_text(source: str) -> str:
    """Inline text, or file contents when prefixed with '@'."""
    if source.startswith("@"):
        with open(source[1:], "r", encoding="utf-8") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError as exc:
                raise InputError(f"{source[1:]} is not UTF-8 text: {exc}") from exc
    return source


def _parse_record(source: str, build, what: str):
    """Build a value from a record; a record of the wrong shape is malformed."""
    record = _lenient_json(_load_text(source))
    try:
        return build(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _parse_int(token: str, what: str) -> int:
    """The integer a token spells under ``_INTEGER``; else malformed input."""
    text = token.strip()
    if _INTEGER.fullmatch(text) is not None:
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"bad {what} {token!r}")


def parse_family(text: str) -> MooreFamily:
    return _parse_record(text, moore.family_from_record, "family record")


def parse_vector_inline(text: str):
    """Parenthesized comma list with tokens integer|inf|-inf, over primes 0..k-1.

    A ``-inf`` token reads as the zero module.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    tokens = [token.strip() for token in body.split(",")]
    entries = []
    for token in tokens:
        if token == "inf":
            entries.append(POS_INF)
        elif token != "-inf":
            entries.append(_parse_int(token, "vector token"))
    if "-inf" in tokens:
        return ZERO
    return extvec.ValVector(tuple(range(len(entries))), tuple(entries))


def format_vector(f) -> str:
    tokens = ["inf" if e is POS_INF else str(e) for e in f.entries]
    return "(" + ",".join(tokens) + ")"


def _echo(text: str, nl: bool = True, err: bool = False) -> None:
    """Write one message to stdout, or to stderr with ``err``.  The stream is
    passed to ``click.echo`` as ``file``: with none, click keeps a wrapper
    for each ``sys.stdout`` and ``sys.stderr`` it meets, and the wrapper
    keeps the stream alive, so a caller that swaps them per call would keep
    every one."""
    click.echo(text, nl=nl, file=sys.stderr if err else sys.stdout)


# ---------------------------------------------------------------------------
# Commands

class IntegerToken(click.IntRange):
    """An integer parameter read by ``_parse_int``'s rule, then held to the
    bounds of ``click.IntRange``; a token the rule refuses is a usage error
    (exit code 4).  Unbounded, its help reads as ``click.INT``'s does."""

    def __init__(self, min: Optional[int] = None) -> None:
        super().__init__(min=min)
        if min is None:
            self.name = "integer"

    def _describe_range(self) -> str:
        return "" if self.min is None else super()._describe_range()

    def convert(self, value, param, ctx):
        if isinstance(value, str):  # a default is already an int
            try:
                value = _parse_int(value, "integer")
            except InputError as exc:
                self.fail(str(exc), param, ctx)
        return super().convert(value, param, ctx)


#: Number of primes n; click rejects n < 1 as a usage error (exit code 4).
SPECTRUM_SIZE = IntegerToken(min=1)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """The ``--help`` callback of every command: click's own, but printed by
    ``_echo``, so that it keeps no ``sys.stdout``."""
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


class _HelpByEcho:
    """Gives a command's help option the callback ``_show_help``."""

    def get_help_option(self, ctx: click.Context) -> Optional[click.Option]:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Command(_HelpByEcho, click.Command):
    pass


class _Group(_HelpByEcho, click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Group too


@click.group(cls=_Group)
def cli() -> None:
    """Lattice of semistar operations on a semilocal Dedekind domain."""


@cli.command(name="count")
@click.argument("n", type=SPECTRUM_SIZE)
def cmd_count(n: int) -> None:
    """Print the number of semistar operations for an n-prime spectrum."""
    _echo(str(moore.count_moore(n)))


@cli.command(name="enumerate")
@click.argument("n", type=SPECTRUM_SIZE)
@click.option("--out", type=click.Path(writable=True), default=None)
def cmd_enumerate(n: int, out: Optional[str]) -> None:
    """Stream every closed-support family in canonical order."""
    texts = moore.enumerate_record_texts(n)  # refuses before --out is truncated
    sink = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        for line in texts:
            sink.write(line)  # not hoisted: a sink may rebind its write
    finally:
        if out:
            sink.close()


#: Each suite's checks and the arguments they read, in call order.
SUITES = {
    "table1": (verify.table1, ("max_n",)),
    "bounds": (verify.bounds, ("max_n",)),
    "finite-type": (verify.finite_type, ("n",)),
    "n2-shape": (verify.n2_shape, ()),
    "oracles": (verify.colon_oracle, ("trials", "seed")),
    "axioms": (verify.axioms, ("trials", "seed", "max_n")),
}


@cli.command(name="verify")
@click.argument("suite", type=click.Choice(list(SUITES)))
@click.argument("n", type=SPECTRUM_SIZE, default=3)
@click.option("--max-n", type=SPECTRUM_SIZE, default=4)
@click.option("--trials", type=IntegerToken(min=1), default=1000)
@click.option("--seed", type=IntegerToken(), default=0)
@click.pass_context
def cmd_verify(ctx: click.Context, suite: str, **args) -> None:
    """Run a verification suite; exit 1 on any failed assertion."""
    run, reads = SUITES[suite]
    for param in ctx.command.params:
        if (param.name not in reads + ("suite",)
                and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE):
            raise click.BadParameter(f"the {suite} suite does not read it", ctx, param)
    checks = run(*(args[name] for name in reads))
    for name, ok in checks:
        _echo(("PASS " if ok else "FAIL ") + name)
    if not all(ok for _, ok in checks):
        raise click.exceptions.Exit(EXIT_ASSERTION)


@cli.group(name="star")
def cmd_star() -> None:
    """Star algebra: apply, meet, join, classify, v-of, d-of."""


def _family_option():
    return click.option("--family", "family_texts", multiple=True, required=True,
                        help="inline family record or @file; meet and join take several")


def _one_family(family_texts) -> MooreFamily:
    if len(family_texts) > 1:
        raise InputError("--family given more than once")
    return parse_family(family_texts[0])


@cmd_star.command(name="apply")
@_family_option()
@click.option("--module", "module_text", required=True)
def star_apply(family_texts, module_text: str) -> None:
    star = stars.star_from_moore(_one_family(family_texts))
    _echo(format_vector(stars.apply(star, parse_vector_inline(module_text))))


def _echo_combined(family_texts, combine) -> None:
    ss = [stars.star_from_moore(parse_family(t)) for t in family_texts]
    _echo(moore.family_record_text(combine(ss).family))


@cmd_star.command(name="meet")
@_family_option()
def star_meet_cmd(family_texts) -> None:
    _echo_combined(family_texts, stars.star_meet)


@cmd_star.command(name="join")
@_family_option()
def star_join_cmd(family_texts) -> None:
    _echo_combined(family_texts, stars.star_join)


@cmd_star.command(name="classify")
@_family_option()
def star_classify(family_texts) -> None:
    star = stars.star_from_moore(_one_family(family_texts))
    _echo(", ".join(stars.classify(star)))


@cmd_star.command(name="v-of")
@click.option("--module", "module_text", required=True)
def star_v_of(module_text: str) -> None:
    star = stars.v_of(parse_vector_inline(module_text))
    _echo(moore.family_record_text(star.family))


@cmd_star.command(name="d-of")
@click.option("--n", "n", type=SPECTRUM_SIZE, required=True)
@click.option("--localized-at", "x_text", default="",
              help="comma-separated prime indices of the overring (empty for K)")
def star_d_of(n: int, x_text: str) -> None:
    x = [_parse_int(tok, "prime index") for tok in x_text.split(",") if tok.strip() != ""]
    moore.guard_ground_set(n)  # before range(n) is built
    star = stars.d_of_overring(tuple(range(n)), x)
    _echo(moore.family_record_text(star.family))


@cli.command(name="adapter")
@click.option("--primes", "primes_text", required=True)
@click.option("--gens", "gens_text", required=True)
@click.option("--member", "member_text", default=None)
def cmd_adapter(primes_text: str, gens_text: str, member_text: Optional[str]) -> None:
    """Valuation vector of a rational-generated ideal, or a membership test."""
    primes = tuple(_parse_int(tok, "prime") for tok in primes_text.split(","))
    gens = tuple(rationals.parse_rational(tok) for tok in gens_text.split(","))
    vec = rationals.vector_of_module(rationals.FracIdealSpec(primes, gens))
    if member_text is None:
        _echo(format_vector(vec))
        return
    r = rationals.parse_rational(member_text)
    _echo("true" if rationals.module_member(vec, r) else "false")


@cli.command(name="hasse")
@click.argument("n", type=SPECTRUM_SIZE, required=False)
@click.option("--star-file", "star_files", multiple=True)
@click.option("--format", "fmt", type=click.Choice(["dot", "json"]), default="dot")
def cmd_hasse(n: Optional[int], star_files, fmt: str) -> None:
    """Cover relations of the star lattice (order: reverse family inclusion)."""
    if (n is None) == (not star_files):
        raise InputError("give either a spectrum size or star files")
    if n is not None:
        if moore.KNOWN_COUNTS.get(n, moore.ISO_GUARD + 1) > moore.ISO_GUARD:
            raise GuardError(f"star lattice at n={n} exceeds {moore.ISO_GUARD} elements")
        star_list = [stars.star_from_moore(f) for f in moore.enumerate_moore(n)]
    else:
        if len(star_files) > moore.ISO_GUARD:  # before any file is read
            raise GuardError(f"more than {moore.ISO_GUARD} stars")
        star_list = [_parse_record("@" + path, stars.star_from_record, f"star file {path}")
                     for path in star_files]
    edges = moore.hasse(star_list, stars.star_le)
    labels = [
        "{" + ";".join(
            "{" + ",".join(map(str, moore.indices_of(m))) + "}"
            for m in s.family.members
        ) + "}"
        for s in star_list
    ]
    if fmt == "dot":
        _echo(moore.hasse_dot(labels, edges), nl=False)
    else:
        payload = {
            "nodes": [moore.family_to_record(s.family) for s in star_list],
            "edges": [list(e) for e in edges],
        }
        _echo(json.dumps(payload, separators=(",", ":")))


#: Longest error message echoed whole: a message may quote its input, and a
#: record file may be of any size.
_MESSAGE_LIMIT = 200


def _echo_error(label: str, message: str) -> None:
    if len(message) > _MESSAGE_LIMIT:
        message = f"{message[:_MESSAGE_LIMIT]}… ({len(message)} characters)"
    _echo(f"{label}: {message}", err=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and map its outcome to the exit-code contract."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        with cli.make_context("dedstar", args) as ctx:
            cli.invoke(ctx)
    except click.exceptions.Exit as exc:  # --help, or a failed verify suite
        return exc.exit_code
    except GuardError as exc:
        _echo_error("refused", str(exc))
        return EXIT_GUARD
    except BrokenPipeError:  # the reader of stdout has gone; nobody to tell
        return EXIT_IO
    except OSError as exc:
        _echo_error("i/o error", str(exc))
        return EXIT_IO
    except click.UsageError as exc:
        _echo_error("input error", exc.format_message())
        return EXIT_INPUT
    except (ValueError, extvec.ExtOverflowError) as exc:
        _echo_error("input error", str(exc))
        return EXIT_INPUT
    return EXIT_OK


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at /dev/null, so that
        # the flush neither fails nor writes to stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
