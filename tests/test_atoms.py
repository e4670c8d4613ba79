"""The atom classes, each the one declaration of its kind, tested over
`constraints.ATOMS`: a new kind added to the tuple is tested here with no
edit. Values are drawn by each field's declared JSON type."""

import pathlib
import pickle
import re

import numpy as np
import pytest

import tensortree as tt
from tensortree.constraints import ATOMS
from tensortree.errors import ParseError
from tensortree.io_formats import _atom_obj, _parse_atom

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# two distinct values of each declared type; a value of the wrong JSON type
VALUES = {int: (2, 3), str: ("f64", "cpu"), list: ((("a",), ("b", "c")), (("d",),))}
WRONG = {int: "1", str: 1, list: "a"}


def fields(cls, which=0):
    """{field: value} of `cls`, each value drawn by its declared type."""
    return {name: VALUES[t][which] for name, t in zip(cls.__slots__, cls.doc.values())}


@pytest.fixture(params=ATOMS, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_construction_by_position_and_by_keyword_agree(cls):
    values = fields(cls)
    a, b = cls(*values.values()), cls(**values)
    assert a == b and hash(a) == hash(b)
    assert all(getattr(a, name) == v for name, v in values.items())


def test_a_wrong_argument_list_is_a_type_error(cls):
    values = fields(cls)
    for args, kwargs in [((), {}), ((*values.values(), 1), {}), ((), {**values, "x": 1}),
                         (tuple(values.values())[:1], {next(iter(values)): 1, **values})]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


def test_equal_atoms_hash_equal_and_other_values_differ(cls):
    a, b = cls(**fields(cls)), cls(**fields(cls))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != cls(**fields(cls, 1))


def test_atoms_of_other_kinds_differ():
    assert tt.NdimIs(1) != tt.LeafCountIs(1)
    assert len({tt.NdimIs(1), tt.LeafCountIs(1)}) == 2
    assert tt.DimEquals(0, 1) != tt.DimAtLeast(0, 1)


def test_pickling_round_trips(cls):
    a = cls(**fields(cls))
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls and b == a and hash(b) == hash(a)


def test_repr_names_each_field(cls):
    values = fields(cls)
    a = cls(**values)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in values.items())})"


def test_atoms_are_immutable(cls):
    a = cls(**fields(cls))
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a == cls(**fields(cls))


def test_the_document_object_parses_back(cls):
    a = cls(**fields(cls))
    obj = _atom_obj(a)
    assert obj["kind"] == cls.kind and set(obj) == {"kind", *cls.doc}
    assert _parse_atom(obj, "here") == a


def test_a_negative_int_field_is_a_value_error_naming_it(cls):
    for name, t in zip(cls.__slots__, cls.doc.values()):
        if t is int:
            with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{name} must be >= 0")):
                cls(**{**fields(cls), name: -1})


def test_a_wrong_json_type_in_each_field_is_a_parse_error_naming_it(cls):
    obj = _atom_obj(cls(**fields(cls)))
    for name, t in cls.doc.items():
        with pytest.raises(ParseError, match=repr(name)):
            _parse_atom({**obj, name: WRONG[t]}, "here")


@pytest.mark.parametrize("cls", [c for c in ATOMS if list in c.doc.values()], ids=lambda c: c.__name__)
def test_paths_from_lists_equal_paths_from_tuples(cls):
    name = cls.__slots__[list(cls.doc.values()).index(list)]
    values = fields(cls)
    as_lists = cls(**{**values, name: [list(p) for p in values[name]]})
    assert as_lists == cls(**values) and hash(as_lists) == hash(cls(**values))
    assert repr(as_lists) == repr(cls(**values))
    tree = tt.build_tree({"a": np.zeros(2), "b": {"c": np.zeros(2)}})
    if cls is tt.ShapesEqual:  # the list form reaches the checker and holds
        tt.validate_full(tree.with_constraints({(): tt.noninherit_atom(tt.ShapesEqual([["a"], ["b", "c"]]))}))


@pytest.mark.parametrize("cls", [c for c in ATOMS if list in c.doc.values()], ids=lambda c: c.__name__)
def test_a_path_given_as_a_str_is_a_type_error_naming_the_atom_and_field(cls):
    name = cls.__slots__[list(cls.doc.values()).index(list)]
    for paths in (["a/b"], [("a",), "b"], "ab"):
        with pytest.raises(TypeError, match=re.escape(f"{cls.__name__}.{name}")):
            cls(**{**fields(cls), name: paths})


# the words the README's `.ttc` atom table uses for each declared type
TYPE_WORDS = {"string": str, "integer": int, "integers": int, "list of path strings": list}


def readme_atom_table() -> dict:
    """{kind: [(document field, declared type), ...]} of the README's `.ttc`
    atom table, in the order the table lists the fields."""
    text = README.read_text(encoding="utf-8")
    rows = text[text.index("| kind | fields |"):].split("\n\n")[0].splitlines()[2:]
    table = {}
    for row in rows:
        kinds, fields_ = (cell.strip() for cell in row.strip().strip("|").split("|"))
        declared = []
        for part in fields_.split(";"):
            names, word = part.split(":")
            declared += [(n, TYPE_WORDS[word.strip()]) for n in re.findall(r"`(\w+)`", names)]
        for kind in re.findall(r"`(\w+)`", kinds):
            table[kind] = declared
    return table


def test_the_readme_atom_table_lists_what_the_classes_declare():
    assert readme_atom_table() == {cls.kind: list(cls.doc.items()) for cls in ATOMS}
