import copy
import random
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from entres.engine import run
from entres.records import (
    AttrOrigin,
    EntityForest,
    Field,
    SuperRecord,
    basic_record,
    merge_super_records,
    normalize_value,
)


def _origin(attr="a", source="s1"):
    return AttrOrigin(source=source, attr=attr)


class TestNormalize:
    def test_casefold(self):
        assert normalize_value("Electronic") == "electronic"

    def test_trim_and_casefold(self):
        assert normalize_value("  Bush ") == "bush"

    def test_identity_on_normalized(self):
        assert normalize_value("831-432") == "831-432"

    def test_empty_permitted(self):
        assert normalize_value("   ") == ""

    @given(st.text(max_size=30))
    def test_idempotent(self, s):
        assert normalize_value(normalize_value(s)) == normalize_value(s)

    def test_composed_and_decomposed_accents_agree(self):
        assert normalize_value("Caf\u00e9") == normalize_value("Cafe\u0301") == "caf\u00e9"

    # letters and combining marks of several canonical classes, among them
    # U+0345, which case-folds from a combining mark into the letter iota
    @given(st.text(max_size=30)
           | st.text(st.sampled_from("aEι\u00e9\u0390\u0345\u0300\u0301\u0308\u0313\u0323\u0327"),
                     max_size=8))
    @example("\u0345\u0300")
    def test_canonically_equivalent_strings_agree(self, s):
        assert normalize_value(s) == normalize_value(unicodedata.normalize("NFD", s))

    # Latin, Greek, combining marks and spaces, as above, and characters
    # whose case folding changes or recomposes them (ß, ǰ, U+0345, İ)
    @given(st.text(max_size=30)
           | st.text(st.sampled_from(" \t\u00a0aEι\u00e9\u0390\u0345\u0300\u0301\u0308"
                                     "\u0313\u0323\u0327\u00df\u01f0\u0130J\u030c"),
                     max_size=10))
    @example("\u0345\u0300")
    @example(" \u0301e")
    def test_second_nfc_only_when_folding_changed_the_string(self, s):
        nfc = unicodedata.normalize
        assert normalize_value(s) == nfc("NFC", nfc("NFC", s).strip().casefold())


class TestForest:
    def test_singleton_is_own_root(self):
        f = EntityForest([1, 2, 3])
        assert f.find(3) == 3

    def test_union_then_find(self):
        f = EntityForest([1, 6])
        root = f.union(1, 6)
        assert root in (1, 6)
        assert f.find(6) == f.find(1) == root

    def test_transitivity(self):
        f = EntityForest([1, 2, 6])
        f.union(1, 6)
        f.union(1, 2)
        assert f.find(2) == f.find(6)

    def test_unknown_id_raises(self):
        f = EntityForest([1])
        with pytest.raises(KeyError):
            f.find(99)

    def test_find_idempotent_and_partition(self):
        rng = random.Random(3)
        ids = list(range(1, 101))
        f = EntityForest(ids)
        for _ in range(80):
            f.union(rng.choice(ids), rng.choice(ids))
        roots = {f.find(i) for i in ids}
        for i in ids:
            assert f.find(f.find(i)) == f.find(i)
            assert f.find(i) in roots
        # roots partition the ids: every id reaches exactly one root
        buckets = {}
        for i in ids:
            buckets.setdefault(f.find(i), set()).add(i)
        assert set(buckets) == roots
        assert sum(len(b) for b in buckets.values()) == len(ids)


class TestMerge:
    def _pair(self):
        a = basic_record(1, [(_origin("con", "CustomerI"), "electronics"),
                            (_origin("tel", "CustomerI"), "831-432")])
        b = basic_record(6, [(_origin("con", "CustomerIII"), "electronic"),
                             (_origin("mail", "CustomerIII"), "bush@gmail")])
        return a, b

    def test_matched_field_keeps_both_near_duplicates(self):
        a, b = self._pair()
        forest = EntityForest([1, 6])
        merged, _ = merge_super_records(a, b, [(1, 1, 0.9)], forest)
        assert merged.fields[0].values == ["electronics", "electronic"]
        assert merged.fields[0].origins == {_origin("con", "CustomerI"),
                                            _origin("con", "CustomerIII")}

    def test_exact_duplicates_stored_once(self):
        a = basic_record(1, [(_origin(), "bush")])
        b = basic_record(2, [(_origin(source="s2"), "bush")])
        merged, _ = merge_super_records(a, b, [(1, 1, 1.0)], EntityForest([1, 2]))
        assert merged.fields[0].values == ["bush"]

    def test_empty_matching_concatenates(self):
        a, b = self._pair()
        merged, _ = merge_super_records(a, b, [], EntityForest([1, 6]))
        assert merged.width == a.width + b.width

    def test_members_accumulate(self):
        forest = EntityForest([1, 2, 4, 6])
        r = {i: basic_record(i, [(_origin(source=f"s{i}"), f"v{i}")]) for i in (1, 2, 4, 6)}
        m16, _ = merge_super_records(r[1], r[6], [], forest)
        m24, _ = merge_super_records(r[2], r[4], [], forest)
        final, _ = merge_super_records(m16, m24, [], forest)
        assert {forest.find(i) for i in (1, 2, 4, 6)} == {final.rid}
        assert final.rid in (m16.rid, m24.rid)

    def test_same_root_rejected(self):
        a, b = self._pair()
        forest = EntityForest([1, 6])
        forest.union(1, 6)
        with pytest.raises(ValueError):
            merge_super_records(a, b, [], forest)

    def test_field_map_covers_absorbed_fields(self):
        a, _ = self._pair()
        # b's first field already holds the value of a's matched field
        b = SuperRecord(6, [Field(["electronic", "electronics"], {_origin("con", "CustomerIII")}),
                            Field(["bush@gmail"], {_origin("mail", "CustomerIII")})])
        forest = EntityForest([1, 6, 99])
        forest.union(6, 99)  # 6 now has more members, so the higher rid survives
        merged, field_map = merge_super_records(a, b, [(1, 1, 0.9)], forest)
        assert merged.rid == 6
        # exactly the absorbed record's fields: the matched one onto its
        # partner, the unmatched one after the survivor's fields
        assert field_map == {1: 1, 2: 3}
        # the survivor's fields are unchanged prefixes of the merged ones
        for kept, fld in zip(b.fields, merged.fields):
            assert fld.values[: len(kept.values)] == kept.values
        assert merged.fields[0].values == ["electronic", "electronics"]
        assert merged.fields[1] is b.fields[1]
        assert merged.fields[2].values == ["831-432"]

    def test_field_gaining_nothing_is_shared(self):
        # b's matched field holds a's value and origin already
        a = basic_record(1, [(_origin("con", "CustomerI"), "electronic"),
                             (_origin("tel", "CustomerI"), "831-432")])
        b = SuperRecord(6, [Field(["electronic", "electronics"],
                                  {_origin("con", "CustomerI"), _origin("con", "CustomerIII")}),
                            Field(["bush@gmail"], {_origin("mail", "CustomerIII")})])
        before = copy.deepcopy((a, b))
        forest = EntityForest([1, 6, 99])
        forest.union(6, 99)  # b survives
        merged, _ = merge_super_records(a, b, [(1, 1, 1.0)], forest)
        assert merged.fields[0] is b.fields[0]
        assert (a, b) == before

    def test_field_gaining_only_an_origin_unions_origins(self):
        a, b = self._pair()
        b.fields[0] = Field(["electronics"], {_origin("con", "CustomerIII")})
        before = copy.deepcopy((a, b))
        merged, _ = merge_super_records(a, b, [(1, 1, 1.0)], EntityForest([1, 6]))
        assert merged.fields[0].values == ["electronics"]
        assert merged.fields[0].origins == {_origin("con", "CustomerI"),
                                            _origin("con", "CustomerIII")}
        assert (a, b) == before

    @pytest.mark.parametrize(
        "matching",
        [[(1, 1, 0.9), (2, 1, 0.8)], [(1, 1, 0.9), (1, 2, 0.8)]],
        ids=["repeated_right", "repeated_left"],
    )
    def test_plain_matching_checked(self, matching):
        a, b = self._pair()
        forest = EntityForest([1, 6])
        with pytest.raises(ValueError, match="one-to-one"):
            merge_super_records(a, b, matching, forest)
        assert forest.find(6) == 6

    # a field id that is not an integer names no field: 1.5 is not read as 1
    @pytest.mark.parametrize("lf, rf", [(3, 1), (1, 3), (0, 1), (1.5, 1)])
    def test_matching_naming_a_missing_field_rejected(self, lf, rf):
        a, b = self._pair()
        forest = EntityForest([1, 6])
        with pytest.raises(ValueError, match=f"^matching references missing field \\({lf}, {rf}\\)$"):
            merge_super_records(a, b, [(lf, rf, 0.9)], forest)
        assert forest.find(6) == 6

    def test_field_count_bound(self):
        rng = random.Random(9)
        for _ in range(50):
            na, nb = rng.randint(1, 5), rng.randint(1, 5)
            a = basic_record(1, [(_origin(f"a{i}"), f"av{i}") for i in range(na)])
            b = basic_record(2, [(_origin(f"b{i}", "s2"), f"bv{i}") for i in range(nb)])
            k = rng.randint(0, min(na, nb))
            lf = rng.sample(range(1, na + 1), k)
            rf = rng.sample(range(1, nb + 1), k)
            matching = [(l, r, 1.0) for l, r in zip(lf, rf)]
            merged, _ = merge_super_records(a, b, matching, EntityForest([1, 2]))
            assert merged.width == na + nb - k
            assert merged.width >= max(na, nb)


class TestFieldInvariants:
    def test_record_without_fields_rejected(self):
        with pytest.raises(ValueError, match="at least one field"):
            SuperRecord(1, [])

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            Field(values=[])

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            Field(values=["x", "x"])

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            Field(values=["x", ""])

    @pytest.mark.parametrize("blank", [" ", "   ", "\t\n", "\u00a0"])
    def test_blank_value_rejected(self, blank):
        # the parser drops a blank value as missing; two records sharing only
        # "   " would otherwise score 1.0 on it and merge
        with pytest.raises(ValueError, match="must not be empty"):
            Field(values=["x", blank])
        with pytest.raises(ValueError, match="must not be empty"):
            basic_record(2, [(_origin("name"), "alice"), (_origin("note"), blank)])

    def test_values_normalized_as_the_parser_does(self):
        fld = Field(values=["  Bush ", "Café"])
        assert fld.values == ["bush", "café"]
        assert basic_record(1, [(_origin("name"), "BUSH@GMAIL")]).fields[0].values == ["bush@gmail"]

    def test_values_equal_once_normalized_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Field(values=["Bush", " bush"])

    @pytest.mark.parametrize("value", [1, 1.5, None, b"x", ["x"]], ids=repr)
    def test_value_that_is_not_a_string_rejected(self, value):
        with pytest.raises(ValueError, match="must be a string"):
            Field(values=["x", value])

    def test_one_string_as_values_rejected(self):
        # a bare string would be read as its characters
        with pytest.raises(ValueError, match="not one string"):
            Field(values="ab")

    def test_any_iterable_of_strings_stored_as_a_list(self):
        assert Field(values=("a", "b")).values == ["a", "b"]
        assert Field(values=(v for v in ["a", "b"])).values == ["a", "b"]

    def test_tuple_values_merge(self):
        # a merge extends the kept field's value list
        store = {rid: SuperRecord(rid, [Field(("bush", word), {_origin("name", f"s{rid}")})])
                 for rid, word in ((1, "gmail"), (2, "yahoo"))}
        result = run(store)
        assert result.merges == 1
        assert len(result.entities) == 1

    def test_origin_that_is_not_an_attr_origin_rejected(self):
        # a plain tuple equals its AttrOrigin, but has no .source for the vote
        with pytest.raises(ValueError, match="AttrOrigin"):
            Field(values=["x"], origins={("crm", "name")})
        with pytest.raises(ValueError, match="AttrOrigin"):
            Field(values=["x"], origins={_origin(), ("crm", "name")})
