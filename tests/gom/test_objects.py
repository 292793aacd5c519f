"""Object identifiers: immutable, value-compared, hash-compatible handles."""

import copy
import json
import pickle

import pytest

from repro.gom.objects import OID
from repro.gom.serialization import (
    decode_cell,
    dump_object_base,
    encode_cell,
    load_object_base,
)


class TestComparison:
    def test_value_equality(self):
        assert OID(3) == OID(3)
        assert OID(3) != OID(4)
        assert not (OID(3) != OID(3))

    def test_never_equal_to_a_bare_value(self):
        assert OID(1) != 1
        assert 1 != OID(1)
        assert OID(1) != (1,)
        assert OID(1) != "i1"
        assert 1 not in {OID(1)}
        assert OID(1) not in {1: "x"}

    def test_total_order(self):
        assert OID(1) < OID(2) <= OID(2) < OID(10)
        assert OID(10) > OID(2) >= OID(2) > OID(1)
        assert sorted([OID(5), OID(-1), OID(3)]) == [OID(-1), OID(3), OID(5)]
        assert max(OID(7), OID(9)) == OID(9)

    def test_ordering_against_other_types_is_undefined(self):
        with pytest.raises(TypeError):
            OID(1) < 2
        with pytest.raises(TypeError):
            2 >= OID(1)

    def test_repr_matches_paper_notation(self):
        assert repr(OID(42)) == "i42"


class TestHash:
    @pytest.mark.parametrize("value", [0, 1, -1, 7, 2**40, -(2**63), 10**30])
    def test_hash_equals_hash_of_one_tuple(self, value):
        assert hash(OID(value)) == hash((value,))

    def test_equal_oids_collapse_in_sets_and_dicts(self):
        assert len({OID(2), OID(2), OID(3)}) == 2
        assert {OID(2): "a"}[OID(2)] == "a"


class TestImmutability:
    def test_assignment_raises(self):
        oid = OID(1)
        with pytest.raises(AttributeError):
            oid.value = 2
        assert oid.value == 1

    def test_new_attribute_raises(self):
        with pytest.raises(AttributeError):
            OID(1).label = "x"

    def test_deletion_raises(self):
        oid = OID(1)
        with pytest.raises(AttributeError):
            del oid.value
        assert oid == OID(1)


class TestRoundTrips:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, protocol):
        oid = OID(123)
        restored = pickle.loads(pickle.dumps(oid, protocol=protocol))
        assert type(restored) is OID
        assert restored == oid and hash(restored) == hash(oid)

    def test_pickle_inside_rows(self):
        row = (OID(1), "Door", OID(2))
        assert pickle.loads(pickle.dumps({row})) == {row}

    def test_copy_and_deepcopy(self):
        oid = OID(5)
        for clone in (copy.copy(oid), copy.deepcopy(oid)):
            assert type(clone) is OID
            assert clone == oid and hash(clone) == hash(oid)
        nested = {"row": (OID(1), OID(2))}
        assert copy.deepcopy(nested) == nested

    def test_cell_encoding(self):
        oid = OID(9)
        decoded = decode_cell(json.loads(json.dumps(encode_cell(oid))))
        assert type(decoded) is OID
        assert decoded == oid and hash(decoded) == hash(oid)

    def test_object_base_round_trip_keeps_identities(self, company_world):
        db, _path, o = company_world
        loaded, _asrs = load_object_base(json.loads(json.dumps(dump_object_base(db))))
        assert set(loaded.oids()) == set(db.oids())
        assert loaded.attr(o["door"], "Name") == "Door"
        assert loaded.members(o["parts_sec"]) == db.members(o["parts_sec"])
