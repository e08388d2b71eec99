"""Every route is total over hostile but documented values: a valid model
whose object values are drawn from the awkward corners of each kind
validates, prints, round-trips and answers every read with a result or an
OtlError; and the CLI, given random bytes, exits 0, 1 or 2 without a
traceback."""

import copy
import io
import pickle
import random
from decimal import Decimal

from hypothesis import given
from hypothesis import strategies as st

from otl import (
    OtlError,
    ValueKind,
    classify_object,
    coordinates,
    describe_object,
    evaluate_class,
    extension,
    extensional_definition,
    from_json,
    has_errors,
    intensional_definition,
    lexicon,
    parse,
    print_dsl,
    to_json,
    validate,
)
from otl.cli import run

from conftest import FIXTURES
from gen import LANG_POOL, valid_random_model

# Indices are drawn, not the values: hypothesis reports a draw by its repr,
# and an int of more than 4300 digits has none.
HOSTILE = {
    ValueKind.NUMBER: (0, -1, 10**30, 10**4400,
                       Decimal("-0"), Decimal("1E+40"), Decimal("1E-40"), Decimal("0.10")),
    ValueKind.BOOLEAN: (True, False),
    ValueKind.TEXT: ('say "hi"', "back\\slash", "two\nlines", "a\ttab", "cr\rhere", ""),
}


def reads(model) -> list[tuple]:
    """Each read of the model, as (function, its argument after the model)."""
    on_concepts = (extension, coordinates, intensional_definition, extensional_definition)
    return [(read, cid) for cid in model.concepts for read in on_concepts] + [
        (read, oid) for oid in model.objects for read in (classify_object, describe_object)] + [
        (lexicon, language) for language in LANG_POOL] + [
        (evaluate_class, cls.expr) for cls in model.classes.values()]


@given(st.integers(0, 2**32), st.data())
def test_hostile_values_validate_print_round_trip_and_read(seed, data):
    model = valid_random_model(seed, with_extras=True)
    for obj in model.objects.values():
        for attr in obj.values:
            pool = HOSTILE[model.attributes[attr].value_kind]
            obj.values[attr] = pool[data.draw(st.integers(0, len(pool) - 1))]
    assert not has_errors(validate(model))

    text = print_dsl(model)
    printed = parse(text).model
    assert printed is not None and not has_errors(validate(printed))
    assert print_dsl(printed) == text

    document = to_json(model)
    assert to_json(from_json(document)) == document

    # compared apart from the assert, so that no failure reprs a model
    same = [clone == model for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model))]
    assert same == [True, True]

    for read, argument in reads(model):
        try:
            read(model, argument)
        except OtlError:
            pass


COMMANDS = (
    ["check"], ["tree", "--derived", "--objects"], ["query", "--class", "in OpticalMouse or has colour"],
    ["define", "OpticalMouse"], ["define", "PointingDevice", "--extensional"], ["describe", "thisOpticalMouse"],
    ["lexicon", "--lang", "en"], ["export", "--format", "json"], ["export", "--format", "dsl"],
)


def test_every_command_on_random_bytes_exits_0_1_or_2_without_a_traceback(tmp_path):
    mouse = (FIXTURES / "mouse.otl").read_bytes()
    path = tmp_path / "random.otl"
    codes = set()
    for seed in range(50):
        rng = random.Random(seed)
        data = rng.randbytes(rng.randint(0, 120))
        if seed % 3 == 1:  # spliced into a valid source
            cut = rng.randint(0, len(mouse))
            data = mouse[:cut] + data[:4] + mouse[cut:]
        elif seed % 3 == 2:  # as printable text in a comment after it, so the source still loads
            data = mouse + b"# " + bytes(32 + byte % 95 for byte in data) + b"\n"
        path.write_bytes(data)
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            code = run([command[0], str(path), *command[1:]], stdout, stderr)
            assert code in (0, 1, 2) and "Traceback" not in stderr.getvalue(), (seed, command)
            codes.add(code)
    assert codes == {0, 1}
