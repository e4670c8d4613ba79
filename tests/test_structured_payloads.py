"""A StructuredLeaf payload (a ragged or nested `subside` output) is not a
tensor: every leaf op that meets one raises LeafOpError at its path, with a
DtypeUnsupported cause, and the CLI exits 1 with one line on stderr."""

import subprocess
import sys

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import DtypeUnsupported, LeafOpError
from tensortree.functional import StructuredLeaf

BAD = ("x", "r")  # the ragged column


def ragged():
    """x/r is a StructuredLeaf (lengths 2 and 3); y and z stack."""
    a = tt.build_tree({"x": {"r": np.zeros(2)}, "y": np.ones((3, 2)), "z": np.ones(2)})
    b = tt.build_tree({"x": {"r": np.zeros(3)}, "y": np.ones((3, 2)), "z": np.ones(2)})
    t = tt.subside([a, b])
    assert isinstance(tt.get(t, BAD).leaf, StructuredLeaf)
    return t


def plain():
    """Same structure as ragged(), tensor leaves only."""
    return tt.build_tree({"x": {"r": np.zeros((2, 2))}, "y": np.ones((2, 3, 2)),
                          "z": np.ones((2, 2))})


OPS = {
    "stack": lambda t, u: tt.lifted_stack([t, u]),
    "stack_axis1": lambda t, u: tt.lifted_stack([t, u], axis=1),
    "cat": lambda t, u: tt.lifted_cat([t, u]),
    "split": lambda t, u: tt.lifted_split(t, 1),
    "neg": lambda t, u: tt.lift_unary("neg")(t),
    "neg_multi": lambda t, u: tt.lift_multi("neg")(t),
    "add": lambda t, u: tt.lift_multi("add")(t, u),
    "add_inner": lambda t, u: tt.lift_multi("add", tt.INNER)(t, u),
    "add_scalar": lambda t, u: tt.lift_multi("add")(t, tt.scalar(1.0)),
    "mulsub": lambda t, u: tt.lift_multi("mulsub")(t, u, u),
    "shape": lambda t, u: tt.lifted_shape(t),
    "group_pad": lambda t, u: tt.group_pad([t, u], 0.0),
    # the structured payload sits in the stacked tree, or in the lengths tree
    "unpad": lambda t, u: tt.unpad(tt.PaddedGroup(t, u, 0.0)),
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("first", [True, False])
def test_leaf_ops_reject_a_structured_payload_at_its_path(op, first):
    t, u = (ragged(), plain()) if first else (plain(), ragged())
    if op in ("split", "neg", "neg_multi", "add_scalar", "shape"):  # one tree
        t = ragged()
    with pytest.raises(LeafOpError) as info:
        OPS[op](t, u)
    assert info.value.path == BAD
    assert isinstance(info.value.cause, DtypeUnsupported)
    assert "StructuredLeaf" in str(info.value)


def test_tensor_leaves_beside_a_structured_payload_still_work():
    assert tt.lifted_shape(plain()) == {"x": {"r": [2, 2]}, "y": [2, 3, 2], "z": [2, 2]}
    assert tt.lifted_shape(tt.build_tree({"e": {}})) == {"e": {}}


def test_cli_apply_stack_on_a_structured_payload_exits_1(tmp_path):
    f = tmp_path / "s.ttj"
    f.write_text(tt.serialize_tree(ragged()))
    r = subprocess.run(
        [sys.executable, "-m", "tensortree.cli", "apply", "--fn", "stack", "--axis", "0",
         str(f), str(f)],
        capture_output=True, text=True,
    )
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and "x/r" in lines[0] and "Traceback" not in r.stderr
