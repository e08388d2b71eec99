"""Definition generation, object description, and the lexicon view."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from otl import (
    DefinitionError,
    TermStatus,
    UnknownIdentifierError,
    describe_object,
    extensional_definition,
    intensional_definition,
    lexicon,
    parse,
    validate_or_raise,
)

from gen import LANG_POOL, valid_random_model
from oracles import oracle_describe_object, oracle_intension, oracle_lexicon


def build(source):
    result = parse(source)
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return validate_or_raise(result.model)


# -- intensional ---------------------------------------------------------------


def test_intensional_definition_of_optical_mouse(mouse):
    definition = intensional_definition(mouse, "OpticalMouse")
    assert definition.formal == ("PointingDevice", ("optical",))
    assert definition.gloss == "OpticalMouse: PointingDevice that is optical"


def test_intensional_definition_of_human(porphyry):
    definition = intensional_definition(porphyry, "Human")
    assert definition.formal == ("Animal", ("rational",))
    assert definition.gloss == "Human: Animal that is rational"


def test_intensional_definition_joins_differentiae_in_declaration_order(porphyry):
    definition = intensional_definition(porphyry, "Animal")
    assert definition.formal == ("LivingThing", ("sentient", "mortal"))
    assert definition.gloss == "Animal: LivingThing that is sentient and mortal"


def test_intensional_definition_rejects_root(porphyry):
    with pytest.raises(DefinitionError) as exc:
        intensional_definition(porphyry, "Substance")
    assert exc.value.code == "E_ROOT_NO_INTENSIONAL"


def test_intensional_definition_unknown_concept(mouse):
    with pytest.raises(UnknownIdentifierError):
        intensional_definition(mouse, "Ghost")


# -- extensional -----------------------------------------------------------------


def test_extensional_definition_of_pointing_device(mouse):
    definition = extensional_definition(mouse, "PointingDevice")
    assert definition.formal == ("MechanicalMouse", "OpticalMouse")
    assert definition.gloss == "PointingDevice: one of MechanicalMouse, OpticalMouse"


def test_extensional_definition_rejects_leaf(mouse):
    with pytest.raises(DefinitionError) as exc:
        extensional_definition(mouse, "OpticalMouse")
    assert exc.value.code == "E_NO_SUBORDINATES"


def test_extensional_definition_uses_derived_hierarchy(multi_genus):
    # C3 is a subordinate of C2 in the derived structure although C2 is
    # nobody's declared genus
    definition = extensional_definition(multi_genus, "C2")
    assert definition.formal == ("C3",)


def test_extensional_definition_enumerates_concepts_never_objects(multi_genus):
    # the model has an object under C1's subtree; enumeration must list the
    # subordinate concept only
    definition = extensional_definition(multi_genus, "C1")
    assert definition.formal == ("C3",)
    assert "o3" not in definition.render()


# -- descriptions -----------------------------------------------------------------


def test_describe_object_with_attribute(mouse):
    assert (
        describe_object(mouse, "thisOpticalMouse")
        == 'thisOpticalMouse : OpticalMouse / colour = "blue"'
    )


def test_describe_object_without_values():
    model = build("concept A := x\nobject bare : A\n")
    assert describe_object(model, "bare") == "bare : A"


def test_describe_object_lists_parts(mouse_parts):
    text = describe_object(mouse_parts, "thisOpticalMouse")
    assert text.splitlines() == [
        'thisOpticalMouse : OpticalMouse / colour = "blue"',
        "parts: LED",
    ]


def test_describe_object_sorts_attributes():
    model = build(
        "concept A := x\n"
        "attribute b : number on A\n"
        "attribute a : text on A\n"
        'object o : A { b = 1, a = "z" }\n'
    )
    assert describe_object(model, "o") == 'o : A / a = "z" / b = 1'


def test_description_never_leaks_differentiae(mouse_parts):
    text = describe_object(mouse_parts, "thisOpticalMouse")
    chain_differentiae = {"optical", "mechanical", "light_emitting"}
    tokens = set(re.split(r"\W+", text))
    assert not tokens & chain_differentiae


@given(st.integers(min_value=0, max_value=10_000))
def test_separation_property_on_random_models(seed):
    model = valid_random_model(seed, max_concepts=15, max_objects=10, with_extras=True)
    for oid in model.objects:
        chain = oracle_intension(model, model.objects[oid].concept)
        labels = {model.differences[d].label for d in chain}
        tokens = set(re.split(r"\W+", describe_object(model, oid)))
        assert not tokens & labels


# -- lexicon ----------------------------------------------------------------------


def test_lexicon_row_for_optical_mouse(mouse, golden_dir):
    report = lexicon(mouse, "en")
    expected = (golden_dir / "lexicon_mouse_en.txt").read_text(encoding="utf-8")
    assert report == expected
    assert '"optical mouse" (preferred)' in report
    assert "OpticalMouse: PointingDevice that is optical" in report


def test_lexicon_empty_model():
    model = build("")
    assert lexicon(model, "en") == ""


def test_lexicon_lists_synonyms_on_one_row(terms_model):
    report = lexicon(terms_model, "en")
    (mouse_row,) = [l for l in report.splitlines() if l.startswith("Mouse")]
    assert '"mouse" (preferred)' in mouse_row
    assert '"pointing device" (admitted)' in mouse_row
    assert "a hand-held device that moves a cursor" in mouse_row


def test_lexicon_unknown_language_notes_every_concept(terms_model):
    report = lexicon(terms_model, "sv")
    assert '"mouse"' not in report
    notes = [l for l in report.splitlines() if "W_NO_PREFERRED_TERM" in l]
    assert len(notes) == len(terms_model.concepts)


def test_lexicon_flags_description_only_concepts(mouse_parts):
    # LED is a root leaf documented only as a part of something else
    report = lexicon(mouse_parts, "en")
    assert "# W_DESCRIPTION_ONLY LED" in report
    # OpticalMouse has a genus, so it is not flagged
    assert "W_DESCRIPTION_ONLY OpticalMouse" not in report


def test_lexicon_orders_generic_before_specific(porphyry):
    report = lexicon(porphyry, "en")
    rows = [l.split()[0] for l in report.splitlines() if not l.startswith("#")]
    assert rows == ["Substance", "Body", "LivingThing", "Animal", "Human"]


# -- against the oracles -------------------------------------------------------------


def test_lexicon_and_describe_object_equal_their_oracles_on_random_models():
    seen = set()  # what the models covered, so the comparison is not vacuous
    for seed in range(150):
        model = valid_random_model(seed, with_extras=True)
        for language in (*LANG_POOL, "sv"):
            report = lexicon(model, language)
            assert report == oracle_lexicon(model, language), (seed, language)
            seen.update(note.split()[1] for note in report.splitlines() if note.startswith("# W_"))
        for oid in model.objects:
            text = describe_object(model, oid)
            assert text == oracle_describe_object(model, oid), (seed, oid)
            seen.update(["parts"] if "\nparts: " in text else [])
        seen.update(t.status for t in model.terms)
        seen.update(["nl_definition"] if any(t.nl_definition for t in model.terms) else [])
        seen.update(["languages"] if len({t.language for t in model.terms}) > 1 else [])
    assert seen >= {"W_NO_PREFERRED_TERM", "W_DESCRIPTION_ONLY", "parts", "nl_definition", "languages", *TermStatus}


# -- determinism --------------------------------------------------------------------


def test_generated_text_is_deterministic(mouse, porphyry):
    assert lexicon(mouse, "en") == lexicon(mouse, "en")
    assert lexicon(porphyry, "en") == lexicon(porphyry, "en")
    assert describe_object(mouse, "thisOpticalMouse") == describe_object(
        mouse, "thisOpticalMouse"
    )
    first = intensional_definition(mouse, "OpticalMouse").render()
    second = intensional_definition(mouse, "OpticalMouse").render()
    assert first == second


@given(st.integers(min_value=0, max_value=10_000))
def test_intensional_formal_reconstructs_intension(seed):
    model = valid_random_model(seed, max_concepts=20)
    for cid, concept in model.concepts.items():
        if concept.genus is None:
            continue
        definition = intensional_definition(model, cid)
        genus, diffs = definition.formal
        assert model.intensions[genus] | set(diffs) == model.intensions[cid]
