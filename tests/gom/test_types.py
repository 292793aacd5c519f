"""Unit tests for the GOM type system."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import SchemaError
from repro.gom.types import (
    BOOLEAN,
    BUILTIN_ATOMIC_TYPES,
    DECIMAL,
    INTEGER,
    NULL,
    STRING,
    ListType,
    Null,
    SetType,
    TupleType,
)


class TestNull:
    def test_singleton(self):
        assert Null() is NULL
        assert Null() is Null()

    def test_falsy(self):
        assert not NULL
        assert bool(NULL) is False

    def test_repr(self):
        assert repr(NULL) == "NULL"

    def test_survives_copy_and_pickle(self):
        assert copy.copy(NULL) is NULL
        assert copy.deepcopy(NULL) is NULL
        assert pickle.loads(pickle.dumps(NULL)) is NULL

    def test_identity_equality(self):
        assert NULL == NULL
        assert NULL != 0
        assert NULL != ""

    def test_row_set_order_repeats_across_processes(self):
        # Tree insert order (and so page counts) follows the iteration
        # order of row sets; an address-based NULL hash varied it.
        script = (
            "from repro.gom.objects import OID\n"
            "from repro.gom.types import NULL\n"
            "rows = {(OID(i), NULL if i % 3 else OID(i + 1), NULL, i % 5)"
            " for i in range(64)}\n"
            "print(list(rows))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        orders = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
            for _ in range(2)
        ]
        assert "NULL" in orders[0]
        assert orders[0] == orders[1]


class TestAtomicTypes:
    def test_builtins_registered(self):
        names = {t.name for t in BUILTIN_ATOMIC_TYPES}
        assert names == {"STRING", "CHAR", "INTEGER", "DECIMAL", "FLOAT", "BOOLEAN"}

    def test_string_accepts(self):
        assert STRING.accepts("hello")
        assert not STRING.accepts(5)

    def test_integer_rejects_bool(self):
        assert INTEGER.accepts(42)
        assert not INTEGER.accepts(True)

    def test_boolean_accepts_bool(self):
        assert BOOLEAN.accepts(True)
        assert not BOOLEAN.accepts(1)

    def test_decimal_accepts_int_and_float(self):
        assert DECIMAL.accepts(1205.50)
        assert DECIMAL.accepts(12)
        assert not DECIMAL.accepts(True)

    def test_kind_predicates(self):
        assert STRING.is_atomic()
        assert not STRING.is_tuple()
        assert not STRING.is_collection()


class TestConstructors:
    def test_tuple_type_attributes_copied(self):
        attributes = {"Name": "STRING"}
        t = TupleType("T", attributes)
        attributes["Name"] = "INTEGER"
        assert t.attributes["Name"] == "STRING"

    def test_tuple_type_self_supertype_rejected(self):
        with pytest.raises(SchemaError):
            TupleType("T", {}, supertypes=("T",))

    def test_tuple_type_repr_mentions_supertypes(self):
        t = TupleType("Sub", {"X": "STRING"}, supertypes=("Base",))
        assert "Base" in repr(t)
        assert "X: STRING" in repr(t)

    def test_set_and_list_predicates(self):
        s = SetType("S", "T")
        l = ListType("L", "T")
        assert s.is_set() and s.is_collection() and not s.is_list()
        assert l.is_list() and l.is_collection() and not l.is_set()

    def test_tuple_type_hashable(self):
        a = TupleType("T", {"Name": "STRING"})
        b = TupleType("T", {"Name": "STRING"})
        assert hash(a) == hash(b)
        assert a == b
