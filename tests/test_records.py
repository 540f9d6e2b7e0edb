"""The record classes: value equality and hashing, immutability, reprs, and
the start-up path they keep free of `dataclasses`. The interned formula
and term nodes are covered in test_syntax."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ciore import fo_prover, prop_prover
from ciore.fo_semantics import Structure, Triple
from ciore.matrix import HALF, ONE, ZERO
from ciore.parsing import parse_sequent
from ciore.sequents import RULE_TABLE, Proof, Proved, RuleId, RuleShape, Sequent
from ciore.syntax import FreeVar, Neg, PredAtom, PropAtom

p, q = PropAtom("p"), PropAtom("q")
ROOT = fo_prover.ReductionNode(parse_sequent("|- P(a1)"), 0, candidates={})


def _structure() -> Structure:
    space = [("m0",), ("m1",)]
    return Structure(domain=("m0", "m1"), predicates={"P": Triple.from_values(space, dict(zip(space, (ONE, HALF))))})


def _records() -> list:
    """One record of each converted class, built afresh on every call."""
    sequent = Sequent.make([p], [q, Neg(p)])
    proof = Proof(Sequent.make([p], [p]), RuleId.AXIOM, p)
    return [
        sequent,
        proof,
        Proved(proof),
        RuleShape(*RULE_TABLE[RuleId.OR_L]),
        fo_prover.PrincipalReduction(Neg(p), RuleId.NEG_NEG_L, None, (((p,), ()),)),
        fo_prover.ReductionTree(ROOT, "refuted", 1, 1, {"P": 1}, (_structure(), {"a1": "m0"})),
        prop_prover.Refuted({"p": ZERO, "q": HALF}),
        fo_prover.Refuted(_structure(), {"a1": "m1"}),
        fo_prover.Unknown("search budget"),
        Triple.from_values([("m0",)], {("m0",): HALF}),
        _structure(),
    ]


@pytest.mark.parametrize("module", ["ciore", "ciore.cli"])
def test_importing_the_package_loads_no_dataclasses(module):
    # -S: no site hook may load it on the package's behalf
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    code = f"import sys, {module}; print('dataclasses' in sys.modules)"
    child = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert child.stdout == "False\n"


def test_records_with_equal_fields_are_equal():
    for first, second in zip(_records(), _records()):
        assert first == second and type(first) is type(second), first
    unhashable = (fo_prover.ReductionTree, prop_prover.Refuted, fo_prover.Refuted, Structure)  # dict fields
    for record in _records():
        if not isinstance(record, unhashable):
            assert hash(record) == hash(type(record)(*record)), record


def test_sequents_and_proofs_hash_as_their_field_tuples():
    # the value a frozen dataclass gives, so frozenset order and every answer
    # that follows from it stay as they were
    sequent = Sequent.make([p], [q])
    assert hash(sequent) == hash((sequent.ante, sequent.succ))
    proof = Proof(sequent, RuleId.WEAK_R, q, None, (Proof(Sequent.make([p], []), RuleId.AXIOM),))
    assert hash(proof) == hash((proof.sequent, proof.rule, proof.principal, proof.var, proof.premises))


def test_assigning_a_field_raises():
    for record in _records():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    atom = PredAtom("P", (FreeVar("a1"),))
    for name in ("name", "args"):
        with pytest.raises(AttributeError):
            setattr(atom, name, None)
        with pytest.raises(AttributeError):
            delattr(atom, name)
    assert atom.name == "P"


def test_reprs_name_the_fields():
    assert repr(Neg(p)) == "Neg(body=PropAtom(name='p'))"
    assert repr(Sequent.make([p], [])) == "Sequent(ante=frozenset({PropAtom(name='p')}), succ=frozenset())"
    assert repr(fo_prover.Unknown("r")) == "Unknown(report='r')"


def test_structure_tables_left_out_are_empty_and_not_shared():
    first, second = Structure(domain=("m0",)), Structure(domain=("m0",))
    assert first.predicates == first.functions == first.constants == {}
    assert first.functions is not second.functions and first.constants is not second.constants


def test_reduction_nodes_own_their_marks_and_children():
    s = ROOT.sequent
    first = fo_prover.ReductionNode(s, 0, candidates={})
    second = fo_prover.ReductionNode(sequent=s, created_at_stage=0, candidates={})
    assert first.marks == {} and first.principals == () and first.children == [] and first.phase is None
    first.children.append(second)
    first.marks[(PredAtom("P", (FreeVar("a1"),)), RuleId.FORALL_L)] = 1
    assert second.children == [] and second.marks == {}
    with pytest.raises(TypeError):
        fo_prover.ReductionNode(s, 0, None, {}, {})  # candidates only by keyword
