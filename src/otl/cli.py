"""Command-line driver: parse, validate, then run one operation.

Exit codes: 0 success, 1 model errors (parse/validation/lookup failures),
2 usage errors.  Diagnostics and usage messages go to stderr; stdout carries
only the command payload so output can be piped.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import os
import sys
from contextlib import nullcontext
from typing import Callable, Iterable, Optional

from . import __version__
from . import model as m
from .classes import evaluate_class
from .parser import parse, parse_class_expr
from .reasoner import validate

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otl", description="Work with .otl conceptual system files."
    )
    parser.add_argument("--version", action="version", version=f"otl {__version__}")
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    def add(name: str, help_text: str, handler: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", metavar="FILE", help="input .otl file")
        p.add_argument("-o", "--output", metavar="PATH", help="write payload to PATH instead of stdout")
        p.set_defaults(run=handler)
        return p

    add("check", "validate a file and report diagnostics", lambda model, args: None)
    tree = add("tree", "emit the concept hierarchy as DOT", _tree)
    tree.add_argument("--derived", action="store_true", help="include derived subsumption edges")
    tree.add_argument("--objects", action="store_true", help="include object nodes")
    query = add("query", "evaluate a class expression over the objects", _query)
    query.add_argument("--class", dest="class_expr", metavar="EXPR", required=True)
    define = add("define", "generate a concept definition", _define)
    define.add_argument("concept", metavar="CONCEPT")
    define.add_argument("--extensional", action="store_true", help="enumerate direct subordinates instead")
    describe = add("describe", "describe an object", _describe)
    describe.add_argument("object", metavar="OBJECT")
    lex = add("lexicon", "print the term/definition table for a language", _lexicon)
    lex.add_argument("--lang", metavar="TAG", required=True)
    export = add("export", "serialize the model", _export)
    export.add_argument("--format", dest="format", choices=("json", "dsl"), required=True)
    return parser


def _load(path: str, stderr) -> Optional[m.Model]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        source = data.decode("utf-8-sig")  # newlines kept as they are, as parse sees them
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=stderr)
        return None
    except UnicodeDecodeError as exc:  # its offset counts from after a byte order mark
        bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        print(f"error: cannot read {path}: invalid UTF-8 at byte {exc.start + bom}", file=stderr)
        return None
    result = parse(source, path)
    diagnostics = list(result.diagnostics)
    model = result.model
    if model is not None:
        diagnostics.extend(validate(model))
    stderr.write("".join(diag.render() + "\n" for diag in diagnostics))  # one write: stderr is line-buffered
    if model is None or m.has_errors(diagnostics):
        return None
    return model


def _emit(payload: Iterable[str], output: Optional[str], stdout, stderr) -> int:
    """Write a payload, a text or its pieces, in batches of about 64 KB, so
    that neither all the pieces nor a whole text encoded are held at once."""
    if isinstance(payload, str):  # in slices, each encoded on its own
        payload = (text[k : k + (1 << 16)] for text in (payload,) for k in range(0, len(text), 1 << 16))
    batch, size = [], 0
    try:
        with nullcontext(stdout) if output is None else open(output, "w", encoding="utf-8") as stream:
            for piece in payload:
                batch.append(piece)
                size += len(piece)
                if size >= 1 << 16:
                    stream.write("".join(batch))
                    batch, size = [], 0
            stream.write("".join(batch))
            stream.flush()  # a reader that closed the pipe shows here, not at exit
    except OSError as exc:
        if output is None:  # what is left goes nowhere, the interpreter's last flush too
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        print(f"error: cannot write {'stdout' if output is None else output}: {exc.strerror}", file=stderr)
        return 1
    return 0


def _wrong_kind(model: m.Model, name: str, wanted: str) -> m.OtlError:
    """The error for a name that is not a `wanted`, saying what it is."""

    def an(word: str) -> str:
        return "an" if word[0] in "aeiou" else "a"

    try:
        found = m.resolve(model, name)
    except m.OtlError:
        return m.UnknownIdentifierError(f"unknown {wanted} '{name}'")
    return m.UnknownIdentifierError(
        f"'{name}' is {an(found.kind)} {found.kind}, not {an(wanted)} {wanted}"
    )


# Each command maps the loaded model and the parsed arguments to its payload,
# a text or its pieces; None means the command has nothing to write.  A
# command imports the modules only it uses, so `check` loads neither the
# exporters nor the definitions, and `tree` only the DOT writer, without `json`.


def _tree(model: m.Model, args: argparse.Namespace) -> Optional[str]:
    from .dot import ExportOptions, to_dot

    opts = ExportOptions(include_objects=args.objects, include_derived_edges=args.derived)
    return to_dot(model, opts)


def _query(model: m.Model, args: argparse.Namespace) -> Optional[str]:
    members = evaluate_class(model, parse_class_expr(args.class_expr))
    return "".join(oid + "\n" for oid in sorted(members))


def _define(model: m.Model, args: argparse.Namespace) -> Optional[str]:
    from .definitions import extensional_definition, intensional_definition

    if args.concept not in model.concepts:
        raise _wrong_kind(model, args.concept, "concept")
    if args.extensional:
        definition = extensional_definition(model, args.concept)
    else:
        definition = intensional_definition(model, args.concept)
    return definition.render() + "\n"


def _describe(model: m.Model, args: argparse.Namespace) -> Optional[str]:
    from .definitions import describe_object

    if args.object not in model.objects:
        raise _wrong_kind(model, args.object, "object")
    return describe_object(model, args.object) + "\n"


def _lexicon(model: m.Model, args: argparse.Namespace) -> Optional[str]:
    from .definitions import lexicon

    return lexicon(model, args.lang)


def _export(model: m.Model, args: argparse.Namespace) -> Optional[Iterable[str]]:
    from .exporters import _json_pieces, print_dsl

    return _json_pieces(model) if args.format == "json" else print_dsl(model)


def run(argv: list[str], stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help/--version, 2 for a usage error
        return exc.code  # type: ignore[return-value]

    model = _load(args.input, stderr)
    if model is None:
        return 1
    try:
        payload = args.run(model, args)
    except m.OtlError as exc:  # ParseError and DefinitionError included
        print(f"error: {exc}", file=stderr)
        return 1
    if payload is None:
        return 0
    return _emit(payload, args.output, stdout, stderr)


def main() -> None:
    # One command, making no reference cycles: the collector stays off; the library only pauses it per call.
    gc.disable()
    code = run(sys.argv[1:])
    gc.freeze()  # so the interpreter's exit skips its full collection over every module object
    sys.exit(code)


if __name__ == "__main__":
    main()
