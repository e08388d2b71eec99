"""End-to-end CLI behavior: commands, exit codes, stream separation."""

import gc
import io
import json
import os
import subprocess
import sys

import pytest

from otl import (
    Concept,
    Model,
    OtlError,
    __version__,
    describe_object,
    from_json,
    intension,
    parse,
    to_json,
    validate,
    validate_or_raise,
)
from otl.cli import main, run

from conftest import FIXTURES, ROOT

MOUSE = str(FIXTURES / "mouse.otl")
RED = str(FIXTURES / "red_things.otl")
PARTS = str(FIXTURES / "mouse_parts.otl")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def otl_process(*args):
    """Run `python [args]` with otl importable from the source tree."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def test_check_valid_file_silent_success():
    code, out, err = invoke(["check", MOUSE])
    assert code == 0
    assert out == ""
    assert err == ""


def test_check_invalid_file_reports_and_fails(tmp_path):
    path = tmp_path / "bad.otl"
    path.write_text("concept X := Ghost + a\n", encoding="utf-8")
    code, out, err = invoke(["check", str(path)])
    assert code == 1
    assert out == ""
    assert "E_UNRESOLVED" in err
    assert "ERROR E_UNRESOLVED" in err.splitlines()[0]


def test_check_warnings_do_not_fail(tmp_path):
    path = tmp_path / "warn.otl"
    path.write_text(
        'concept A := x\nterm "a thing" (en, admitted) for A\n', encoding="utf-8"
    )
    code, out, err = invoke(["check", str(path)])
    assert code == 0
    assert out == ""
    assert "W_NO_PREFERRED_TERM" in err


def test_query_blue(capsys):
    code, out, err = invoke(["query", MOUSE, "--class", 'colour = "blue"'])
    assert code == 0
    assert out == "thisOpticalMouse\n"
    assert err == ""


def test_query_sorted_members():
    code, out, _ = invoke(["query", RED, "--class", 'colour = "red"'])
    assert code == 0
    assert out == "lunchApple\nunclesFerrari\n"


def test_query_bad_expression():
    code, out, err = invoke(["query", MOUSE, "--class", "("])
    assert code == 1
    assert out == ""
    assert "E_SYN" in err


def test_query_unknown_attribute():
    code, out, err = invoke(["query", MOUSE, "--class", "weight = 3"])
    assert code == 1
    assert "weight" in err


def test_define_intensional():
    code, out, err = invoke(["define", MOUSE, "OpticalMouse"])
    assert code == 0
    assert out == (
        "OpticalMouse: PointingDevice that is optical\n"
        "formal: (PointingDevice, {optical})\n"
    )


def test_define_extensional():
    code, out, _ = invoke(["define", MOUSE, "PointingDevice", "--extensional"])
    assert code == 0
    assert out == (
        "PointingDevice: one of MechanicalMouse, OpticalMouse\n"
        "formal: [MechanicalMouse, OpticalMouse]\n"
    )


def test_define_root_fails_cleanly():
    code, out, err = invoke(["define", MOUSE, "PointingDevice"])
    assert code == 1
    assert out == ""
    assert "root concept" in err


def test_define_wrong_kind_explains():
    code, out, err = invoke(["define", MOUSE, "thisOpticalMouse"])
    assert code == 1
    assert "is an object, not a concept" in err


def test_describe_object():
    code, out, _ = invoke(["describe", PARTS, "thisOpticalMouse"])
    assert code == 0
    assert out == 'thisOpticalMouse : OpticalMouse / colour = "blue"\nparts: LED\n'


def test_describe_unknown_object():
    code, out, err = invoke(["describe", MOUSE, "nobody"])
    assert code == 1
    assert "nobody" in err


def test_lexicon_command():
    code, out, _ = invoke(["lexicon", MOUSE, "--lang", "en"])
    assert code == 0
    assert '"optical mouse" (preferred)' in out


def test_tree_outputs_dot():
    code, out, _ = invoke(["tree", MOUSE])
    assert code == 0
    assert out.startswith("digraph concept_system {")
    assert '"PointingDevice" -> "OpticalMouse";' in out
    assert "dotted" not in out


def test_tree_flags():
    code, out, _ = invoke(["tree", MOUSE, "--objects", "--derived"])
    assert code == 0
    assert "thisOpticalMouse" in out
    assert "style=dotted" in out


def test_export_json_parses():
    code, out, _ = invoke(["export", MOUSE, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "otl-json/1"


def test_export_dsl_round_trips():
    code, out, _ = invoke(["export", MOUSE, "--format", "dsl"])
    assert code == 0
    assert "concept OpticalMouse := PointingDevice + optical" in out


def test_output_to_file(tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = invoke(["tree", MOUSE, "-o", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("digraph")


def test_usage_error_exit_2():
    code, _, _ = invoke(["query", MOUSE])  # missing --class
    assert code == 2
    code, _, _ = invoke(["frobnicate", MOUSE])
    assert code == 2
    code, _, _ = invoke([])
    assert code == 2


def test_missing_file_exit_1():
    code, out, err = invoke(["check", "no-such-file.otl"])
    assert code == 1
    assert "cannot read" in err


def test_check_accepts_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.otl"
    path.write_bytes(b"\xef\xbb\xbfconcept A\nconcept B := A + x\n")
    assert invoke(["check", str(path)]) == (0, "", "")


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_check_reports_invalid_utf8_with_its_file_offset(tmp_path, bom):
    path = tmp_path / "latin1.otl"
    path.write_bytes(bom + b"concept A\nconcept B := A + \xff\n")
    offset = len(bom) + 27  # the 0xff byte
    message = f"error: cannot read {path}: invalid UTF-8 at byte {offset}\n"
    assert invoke(["check", str(path)]) == (1, "", message)


@pytest.mark.parametrize(
    "source",
    [
        "concept A\r\nconcept B := A + x\r\n$\r\n",
        "concept A\r\nconcept B := A + x\r\n",
    ],
    ids=["crlf_error", "crlf_clean"],
)
def test_check_reads_crlf_files_as_parse_does(tmp_path, source):
    path = tmp_path / "ends.otl"
    path.write_bytes(source.encode("utf-8"))
    expected = "".join(d.render() + "\n" for d in parse(source, str(path)).diagnostics)
    code, out, err = invoke(["check", str(path)])
    assert (code, out, err) == ((1 if expected else 0), "", expected)


def test_lone_cr_is_no_line_end_in_the_cli(tmp_path):
    path = tmp_path / "cr.otl"
    path.write_bytes(b"concept A\rconcept B := A + x\r")
    code, _, err = invoke(["check", str(path)])
    assert code == 1
    assert err == f"ERROR E_SYN {path}:1:11 expected end of statement, found 'concept'\n"


def test_version_exits_zero(capsys):
    code = run(["--version"])
    captured = capsys.readouterr()
    assert code == 0
    assert __version__ in captured.out


def test_help_exits_zero(capsys):
    code = run(["--help"])
    captured = capsys.readouterr()
    assert code == 0
    assert "COMMAND" in captured.out


def test_determinism():
    first = invoke(["lexicon", RED, "--lang", "en"])
    second = invoke(["lexicon", RED, "--lang", "en"])
    assert first == second


@pytest.mark.parametrize("enabled", [True, False])
def test_library_and_run_leave_the_collector_as_they_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with open(MOUSE, encoding="utf-8") as handle:
            model = parse(handle.read(), MOUSE).model
        assert gc.isenabled() is enabled
        validate(model)
        assert gc.isenabled() is enabled
        from_json(to_json(model))
        assert gc.isenabled() is enabled
        assert invoke(["export", MOUSE, "--format", "json"])[0] == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_main_runs_without_the_cyclic_collector(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["otl", "check", MOUSE])
    was = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


DEFERRED = {"json", "otl.definitions", "otl.dot", "otl.exporters"}


@pytest.mark.parametrize(
    "command, loaded",
    [
        (["check", MOUSE], set()),
        (["tree", MOUSE, "--derived", "--objects"], {"otl.dot"}),
        (["export", MOUSE, "--format", "json"], {"json", "otl.exporters"}),
        (["define", MOUSE, "OpticalMouse"], {"otl.definitions"}),
    ],
)
def test_commands_import_only_the_modules_they_use(command, loaded):
    done, imported = imports("-m", "otl.cli", *command)
    assert done.returncode == 0
    assert "otl.parser" in imported
    assert imported & DEFERRED == loaded
    # the record types are plain classes: no command imports dataclasses
    # (nor inspect, which it brings) unless the interpreter itself does
    assert {"dataclasses", "inspect"} & imported <= imports("-c", "pass")[1]


def imports(*args):
    """The finished `python -X importtime [args]` and the modules it imported."""
    done = otl_process("-X", "importtime", *args)
    return done, {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


PUBLIC_API = {
    "__version__",
    "AmbiguousIdentifierError",
    "And",
    "AssociativeLink",
    "AttrEquals",
    "AttributeDecl",
    "Axis",
    "ClassDef",
    "ClassExpression",
    "Concept",
    "Contradiction",
    "DefinitionError",
    "Diagnostic",
    "Difference",
    "ExportOptions",
    "GeneratedDefinition",
    "GenusCycleError",
    "HasAttr",
    "Hierarchy",
    "InConcept",
    "InvalidModelError",
    "JsonSchemaError",
    "Model",
    "Not",
    "NotValidatedError",
    "ObjectInstance",
    "Or",
    "OtlError",
    "ParseError",
    "ParseResult",
    "PartLink",
    "RelationKind",
    "Resolved",
    "Severity",
    "SourceSpan",
    "Term",
    "TermStatus",
    "UnknownIdentifierError",
    "Value",
    "ValueKind",
    "classify_object",
    "compute_hierarchy",
    "concept_conjunction",
    "concept_disjunction",
    "coordinates",
    "describe_object",
    "evaluate_class",
    "extension",
    "extensional_definition",
    "from_json",
    "has_errors",
    "intension",
    "intensional_definition",
    "lexicon",
    "parse",
    "parse_class_expr",
    "print_dsl",
    "relation_kind_is_a",
    "resolve",
    "subsumes",
    "to_dot",
    "to_json",
    "validate",
    "validate_or_raise",
}


def test_public_api_is_pinned():
    import otl

    assert len(otl.__all__) == len(set(otl.__all__))
    assert set(otl.__all__) == PUBLIC_API


def test_library_api_is_complete_after_lazy_imports():
    import otl

    namespace = {}
    exec("from otl import *", namespace)
    assert {name for name in otl.__all__ if name not in namespace} == set()
    assert namespace["to_json"] is to_json
    with pytest.raises(AttributeError):
        otl.no_such_name


@pytest.mark.parametrize("depth, members", [(5000, "thisOpticalMouse\n"), (5001, "")])
def test_query_on_a_not_chain_deeper_than_the_recursion_limit(depth, members):
    expr = "not " * depth + "has colour"
    done = otl_process("-m", "otl.cli", "query", MOUSE, "--class", expr)
    assert (done.returncode, done.stdout, done.stderr) == (0, members, "")


def test_export_dsl_of_a_class_deeper_than_the_recursion_limit(tmp_path):
    source = "concept A := x\nattribute colour : text on A\nclass Deep := { x | " + "not " * 5000 + "has colour }\n"
    path = tmp_path / "deep.otl"
    path.write_text(source, encoding="utf-8")
    done = otl_process("-m", "otl.cli", "export", str(path), "--format", "dsl")
    assert "Traceback" not in done.stderr
    # the source is in print_dsl's own layout, so the same bytes are the same model
    assert (done.returncode, done.stdout) == (0, source)
    reparsed = parse(done.stdout)
    assert reparsed.diagnostics == [] and validate(reparsed.model) == []


def _star_source(n):
    """A root and n concepts under it: a JSON document of about 230 bytes a
    concept, far more than a pipe holds."""
    return "concept R\n" + "".join(f"concept C{i} := R + d{i}\n" for i in range(n))


@pytest.mark.parametrize("command", [["export", "--format", "json"], ["tree", "--derived", "--objects"]])
@pytest.mark.parametrize("source", ["concept A\n", _star_source(2000)], ids=["one_line", "star"])
def test_a_closed_pipe_ends_the_command_with_one_error_line(command, source, tmp_path):
    path = tmp_path / "in.otl"
    path.write_text(source, encoding="utf-8")
    read, write = os.pipe()
    os.close(read)  # no reader before the first write: that write fails, whatever the size
    try:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "otl.cli", command[0], str(path), *command[1:]],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, check=False,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "error: cannot write stdout: Broken pipe\n")


def test_export_json_writes_no_payload_when_it_fails(tmp_path):
    # The JSON writer makes a call per nesting level of a class expression,
    # so it fails on a class 1200 levels deep.  The attributes and axes come
    # first in the document and fill more than one batch of what is written,
    # so a writer that wrote them before building every class would be seen.
    source = "concept A := x\n" + "".join(f"attribute a{i} : text on A\n" for i in range(1500))
    path = tmp_path / "deep.otl"
    source += "class Shallow := { x | has a0 }\nclass Deep := { x | " + "not " * 1200 + "has a0 }\n"
    path.write_text(source, encoding="utf-8")
    target = tmp_path / "deep.json"
    to_stdout = otl_process("-m", "otl.cli", "export", str(path), "--format", "json")
    to_file = otl_process("-m", "otl.cli", "export", str(path), "--format", "json", "-o", str(target))
    if to_stdout.returncode == 0:  # once the writer reaches any depth, the document is whole
        assert [c["id"] for c in json.loads(to_stdout.stdout)["classes"]] == ["Shallow", "Deep"]
        assert target.read_text(encoding="utf-8") == to_stdout.stdout
    else:
        assert (to_stdout.stdout, to_file.stdout) == ("", "")
        assert to_file.returncode != 0 and not target.exists()


def _diagnostics(source):
    """Renders and span lengths of validating `source` as t.otl."""
    return [(d.render(), d.location.length) for d in validate(parse(source, "t.otl").model)]


def _raised(call, *args):
    with pytest.raises(OtlError) as exc:
        call(*args)
    return type(exc.value).__name__, str(exc.value)


def _unknown_genus():
    model = Model()
    model.concepts["B"] = Concept("B", "B", "Ghost", ("d",))
    return _raised(intension, model, "B")


def _unwritable(tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = invoke(["export", MOUSE, "--format", "json", "-o", str(target)])
    return code, out, err.replace(str(target), "<target>")


# Error paths that only unusual input reaches, each with its exact report.
RARE_ERRORS = {
    "axis_scoped_at_unknown_concept": (
        lambda _: _diagnostics("concept A\naxis K of Ghost { p, q }\n"),
        [("ERROR E_UNRESOLVED t.otl:2:6 axis 'K' scoped at unknown concept 'Ghost'", 1)],
    ),
    "object_values_undeclared_attribute": (
        lambda _: _diagnostics('concept A\nobject o : A { colour = "red" }\n'),
        [("ERROR E_UNRESOLVED t.otl:2:16 object 'o' values undeclared attribute 'colour'", 6)],
    ),
    "relation_endpoint_unknown": (
        lambda _: _diagnostics("concept A\nrelation r (causal) A -> Ghost\n"),
        [("ERROR E_UNRESOLVED t.otl:2:1 relation names unknown concept 'Ghost'", 8)],
    ),
    "class_references_unknown_attribute": (
        lambda _: _diagnostics("concept A\nclass Q := { x | has colour }\n"),
        [("ERROR E_UNRESOLVED t.otl:2:7 class 'Q' references unknown attribute 'colour'", 1)],
    ),
    "describe_unknown_object": (
        lambda _: _raised(describe_object, validate_or_raise(parse("concept A\n").model), "ghost"),
        ("UnknownIdentifierError", "unknown object 'ghost'"),
    ),
    "intension_of_unvalidated_model_with_unknown_genus": (
        lambda _: _unknown_genus(),
        ("UnknownIdentifierError", "unknown concept 'Ghost'"),
    ),
    "output_to_unwritable_path": (
        _unwritable,
        (1, "", "error: cannot write <target>: No such file or directory\n"),
    ),
}


@pytest.mark.parametrize("name", sorted(RARE_ERRORS))
def test_rare_error_paths_report_exactly(name, tmp_path):
    observe, expected = RARE_ERRORS[name]
    assert observe(tmp_path) == expected
