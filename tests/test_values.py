"""The value semantics of bimlab's records and checked classes: fields that
cannot be assigned or deleted, equality and hashing by the field tuple, and
reprs that spell each field. A change to how these classes are built must
keep all of it."""

import hashlib
import random
import re
from types import SimpleNamespace

import pytest

from bimlab import (
    Alphabet,
    Arc,
    Bimachine,
    BoundRespected,
    Dfa,
    ExperimentRow,
    FoolingPair,
    FunctionalityReport,
    InstanceParams,
    Mismatch,
    Nfa,
    Transducer,
    check_functional,
    find_collisions,
    refute,
    run_experiment,
)
from helpers import built, corrupt_handcrafted

AB = Alphabet(("a", "b"))
XY = Alphabet(("x", "y"))
ONE = Dfa(AB, 1, 0, ((0, 0),))
TWO = Dfa(AB, 2, 0, ((1, 0), (1, 1)))
PSI = {(0, "a", 0): ("x",), (0, "b", 0): ("y",)}

# Per class: its field names in order, the field values of one instance, and
# for each field another value that still builds a valid instance. SAME
# marks a field that no valid instance changes alone: a DFA's state count
# is the length of its table.
SAME = object()
CASES = {
    Alphabet: (("symbols",), (("a", "b"),), (("b", "a"),)),
    Nfa: (("alphabet", "state_count", "initial", "final", "arcs"),
          (AB, 2, (0,), frozenset({1}), ((0, "a", 1),)),
          (Alphabet(("a", "b", "c")), 3, (1,), frozenset({0}), ((0, "b", 1),))),
    Dfa: (("alphabet", "state_count", "start", "delta"),
          (AB, 2, 0, ((1, 0), (1, 1))),
          (Alphabet(("b", "a")), SAME, 1, ((0, 0), (1, 1)))),
    Bimachine: (("left", "right", "psi", "empty_word_output", "output_alphabet"),
                (ONE, ONE, PSI, None, XY),
                (TWO, TWO, {(0, "a", 0): ("y",)}, ("x",), Alphabet(("x", "y", "z")))),
    Transducer: (("input_alphabet", "output_alphabet", "state_count", "initial", "final", "arcs"),
                 (AB, XY, 2, frozenset({0}), frozenset({1}), (Arc(0, "a", ("x",), 1),)),
                 (Alphabet(("a", "b", "c")), Alphabet(("x", "y", "z")), 3, frozenset({1}),
                  frozenset({0}), (Arc(0, "b", ("x",), 1),))),
    InstanceParams: (("k", "n"), (2, 3), (3, 4)),
    FunctionalityReport: (("functional", "witness", "outputs"),
                          (False, ("a",), (("x",), ("y",))),
                          (True, ("b",), (("x",), ("x", "y")))),
    FoolingPair: (("side", "word1", "word2"), ("left", ("1",), ("2",)),
                  ("right", ("2",), ("1",))),
    BoundRespected: (("left_certified", "right_certified"), (True, False), (False, True)),
    Mismatch: (("word", "expected", "actual"), (("1", "3"), ("3", "1"), None),
               (("2", "4"), ("4", "2"), ("3", "1"))),
    ExperimentRow: (("k", "n", "construction", "transducer_states", "left_states",
                     "right_states", "total_states", "lower_bound", "elapsed_ms"),
                    (2, 1, "handcrafted", 6, 5, 4, 9, 3, 0),
                    (3, 2, "generic", 8, 10, 10, 20, 10, 1)),
}
# The classes that check or normalise their fields.
CHECKED = (Alphabet, Nfa, Dfa, Bimachine, Transducer, InstanceParams)


def field_tuple(obj, names):
    return tuple(getattr(obj, name) for name in names)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a field that is not hashable, like a psi table
        return type(exc)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    names, values, _ = CASES[cls]
    obj = cls(*values)
    for name in names:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_field_tuple(cls):
    names, values, others = CASES[cls]
    obj, twin = cls(*values), cls(*values)
    assert obj == twin and not obj != twin
    assert hash_or_error(obj) == hash_or_error(twin) == hash_or_error(field_tuple(obj, names))
    for i, other in enumerate(others):
        if other is SAME:
            continue
        changed = cls(*values[:i], other, *values[i + 1:])
        assert obj != changed and not obj == changed, names[i]


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_a_checked_instance_equals_only_its_own_class(cls):
    names, values, _ = CASES[cls]
    obj = cls(*values)
    subclass = type("Sub" + cls.__name__, (cls,), {})
    fields = field_tuple(obj, names)
    for other in (subclass(*values), fields, SimpleNamespace(**dict(zip(names, fields)))):
        assert obj != other and other != obj and not obj == other


def test_cached_properties_are_computed_once(monkeypatch):
    calls = []
    for cls, name in ((Transducer, "_letter_arcs"), (InstanceParams, "alphabet")):
        cached = cls.__dict__[name]
        counted = lambda self, func=cached.func, name=name: calls.append(name) or func(self)
        monkeypatch.setattr(cached, "func", counted)
    _, values, _ = CASES[Transducer]
    t = Transducer(*values)
    params = InstanceParams(2, 3)
    first = (t._letter_arcs, params.alphabet)
    assert (t._letter_arcs, params.alphabet) == first
    assert t._letter_arcs is first[0] and params.alphabet is first[1]
    assert calls == ["_letter_arcs", "alphabet"]
    # The cache is no field: equality and hashing ignore it.
    assert t == Transducer(*values) and hash(params) == hash(InstanceParams(2, 3))


def pinned_reprs() -> str:
    """The reprs of a fixed list of objects, one a line."""
    params, _, prepared, _, handcrafted = built(2, 2)
    reduced = handcrafted.reduce()
    nonfunctional = Transducer(AB, XY, 2, {0}, {1},
                               (Arc(0, "a", ("x",), 1), Arc(0, "a", ("y",), 1)))
    corrupted = corrupt_handcrafted(reduced, params, random.Random(3))
    objects = [
        params, params.alphabet, prepared, prepared.input_projection(), reduced.left,
        reduced.right, check_functional(prepared), check_functional(nonfunctional),
        refute(reduced, params), refute(corrupted, params), find_collisions(corrupted, params),
        run_experiment([(2, 1), (2, 2), (3, 1)]),
    ]
    return "\n".join(map(repr, objects)) + "\n"


# The SHA-256 of ``pinned_reprs()``: every field of these objects, spelled
# as the classes spell it.
REPRS_SHA256 = "67a08819ce8abfe1dca327a384636df156c3e5e7954a9a0f9b0e55dae65085d0"


def test_the_reprs_spell_every_field():
    text = pinned_reprs()
    assert re.search(r"^FunctionalityReport\(functional=False, witness=\('a',\), ", text, re.M)
    assert "Mismatch(word=(" in text and "FoolingPair(side='left', word1=(" in text
    assert hashlib.sha256(text.encode()).hexdigest() == REPRS_SHA256
