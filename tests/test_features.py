import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraseo.features import (
    AXES,
    EMPTY_BUNDLE,
    FeatureBundle,
    Gender,
    Mood,
    Number,
    Person,
    Tense,
)

BUNDLES = st.builds(
    FeatureBundle,
    gender=st.sampled_from(list(Gender)),
    number=st.sampled_from(list(Number)),
    person=st.sampled_from(list(Person)),
)


def test_empty_bundle_is_fully_unspecified():
    assert EMPTY_BUNDLE.specified_axes() == []
    assert str(EMPTY_BUNDLE) == "{unspecified}"


def test_validate_accepts_finite_and_nonfinite_shapes():
    FeatureBundle(
        person=Person.third, number=Number.singular, tense=Tense.present, mood=Mood.indicative
    ).validate()
    FeatureBundle(mood=Mood.infinitive).validate()


def test_validate_rejects_tense_outside_indicative_or_subjunctive():
    with pytest.raises(ValueError):
        FeatureBundle(tense=Tense.past, mood=Mood.infinitive).validate()
    with pytest.raises(ValueError):
        FeatureBundle(tense=Tense.past).validate()


def test_validate_rejects_person_on_nonfinite_forms():
    with pytest.raises(ValueError):
        FeatureBundle(person=Person.first, mood=Mood.gerund).validate()


def test_matches_treats_unspecified_as_wildcard():
    azul = FeatureBundle(number=Number.singular)  # no gender
    wanted = FeatureBundle(gender=Gender.feminine, number=Number.singular)
    assert azul.matches(wanted)
    assert wanted.matches(azul)
    assert not azul.matches(FeatureBundle(number=Number.plural))


def test_agrees_with_is_symmetric():
    a = FeatureBundle(gender=Gender.masculine)
    b = FeatureBundle(number=Number.plural)
    c = FeatureBundle(gender=Gender.feminine)
    assert a.matches(b) and b.matches(a)
    assert not a.matches(c) and not c.matches(a)


def test_merged_with_unions_specified_axes():
    merged = FeatureBundle(gender=Gender.feminine).merged_with(
        FeatureBundle(number=Number.plural)
    )
    assert merged.gender is Gender.feminine
    assert merged.number is Number.plural
    assert merged.person is Person.unspecified


def test_merged_with_rejects_conflicts():
    with pytest.raises(ValueError):
        FeatureBundle(gender=Gender.feminine).merged_with(
            FeatureBundle(gender=Gender.masculine)
        )


def test_replaced_overrides_single_axis():
    base = FeatureBundle(gender=Gender.masculine, number=Number.singular)
    swapped = base.replaced(number=Number.plural)
    assert swapped.gender is Gender.masculine
    assert swapped.number is Number.plural
    assert base.number is Number.singular  # frozen original untouched


def test_specified_axes_ordering_follows_axis_tuple():
    bundle = FeatureBundle(person=Person.first, gender=Gender.feminine)
    assert bundle.specified_axes() == ["gender", "person"]
    assert set(AXES) >= set(bundle.specified_axes())


@settings(derandomize=True, max_examples=200)
@given(BUNDLES)
def test_merge_with_empty_is_identity(bundle):
    assert bundle.merged_with(EMPTY_BUNDLE) == bundle
    assert EMPTY_BUNDLE.merged_with(bundle) == bundle


@settings(derandomize=True, max_examples=200)
@given(BUNDLES, BUNDLES)
def test_merge_is_commutative_when_compatible(a, b):
    if a.matches(b):
        assert a.merged_with(b) == b.merged_with(a)
    else:
        with pytest.raises(ValueError):
            a.merged_with(b)
