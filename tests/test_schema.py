import json

import pytest

from cfx.errors import InputError
from cfx.schema import (
    Entity,
    Feature,
    FeatureSchema,
    Intervention,
    apply_intervention,
    diff,
    entities_from_csv,
    entity_from_dict,
    hamming,
    leq_c,
    leq_s,
    load_schema,
    schema_from_dict,
    schema_to_dict,
)


class TestSchemaValidation:
    def test_rejects_empty_schema(self):
        with pytest.raises(InputError):
            FeatureSchema(())

    def test_rejects_singleton_domain(self):
        with pytest.raises(InputError, match="at least two"):
            FeatureSchema((Feature("F", ("only",)),))

    def test_rejects_duplicate_domain_values(self):
        with pytest.raises(InputError, match="duplicate domain"):
            FeatureSchema((Feature("F", ("a", "a")),))

    def test_rejects_duplicate_feature_names(self):
        with pytest.raises(InputError, match="duplicate feature"):
            FeatureSchema((Feature("F", ("a", "b")), Feature("F", ("c", "d"))))

    def test_rejects_non_identifier_names(self):
        with pytest.raises(InputError, match="identifier"):
            FeatureSchema((Feature("bad name", ("a", "b")),))

    def test_rejects_empty_domain_value(self):
        with pytest.raises(InputError):
            FeatureSchema((Feature("F", ("a", "")),))

    def test_space_size_and_iteration(self, tennis_schema):
        assert tennis_schema.space_size() == 12
        vectors = list(tennis_schema.iter_space())
        assert len(vectors) == 12
        assert vectors[0] == ("sunny", "high", "strong")
        assert vectors[-1] == ("rain", "normal", "weak")
        assert len(set(vectors)) == 12

    def test_index_of_and_feature(self, tennis_schema):
        assert tennis_schema.index_of("Wind") == 2
        assert tennis_schema.feature(1).name == "Humidity"
        with pytest.raises(InputError, match="unknown feature"):
            tennis_schema.index_of("Rain")
        with pytest.raises(InputError, match="out of range"):
            tennis_schema.feature(3)

    def test_rank_needs_domain_value(self):
        f = Feature("Age", ("20", "30", "40"), ordered=True)
        assert f.rank("30") == 1
        with pytest.raises(InputError):
            f.rank("50")


class TestEntity:
    def test_factory_validates(self, tennis_schema):
        e = tennis_schema.entity("e1", ("rain", "high", "weak"))
        assert e.values == ("rain", "high", "weak")
        with pytest.raises(InputError, match="not in domain"):
            tennis_schema.entity("e1", ("rain", "high", "breezy"))
        with pytest.raises(InputError, match="expected 3 values"):
            tennis_schema.entity("e1", ("rain", "high"))

    def test_empty_id_rejected(self):
        with pytest.raises(InputError, match="non-empty"):
            Entity("", ("a",))


class TestIntervention:
    def test_of_sorts_by_index(self):
        iv = Intervention.of([(2, "x"), (0, "y")])
        assert iv.changes == ((0, "y"), (2, "x"))
        assert iv.indices == frozenset({0, 2})
        assert len(iv) == 2

    def test_of_rejects_duplicate_feature(self):
        with pytest.raises(InputError, match="twice"):
            Intervention.of([(1, "a"), (1, "b")])

    def test_apply_changes_values_keeps_id(self, tennis_schema, tennis_entity):
        iv = Intervention.of([(1, "high")])
        out = apply_intervention(tennis_schema, tennis_entity, iv)
        assert out.id == tennis_entity.id
        assert out.values == ("sunny", "high", "weak")
        # the original is untouched
        assert tennis_entity.values == ("sunny", "normal", "weak")

    def test_apply_empty_is_identity(self, tennis_schema, tennis_entity):
        out = apply_intervention(tennis_schema, tennis_entity, Intervention.of([]))
        assert out == tennis_entity

    def test_apply_rejects_out_of_domain(self, tennis_schema, tennis_entity):
        with pytest.raises(InputError, match="not in domain"):
            apply_intervention(
                tennis_schema, tennis_entity, Intervention.of([(1, "damp")])
            )

    def test_apply_rejects_no_op_assignment(self, tennis_schema, tennis_entity):
        with pytest.raises(InputError, match="already has"):
            apply_intervention(
                tennis_schema, tennis_entity, Intervention.of([(1, "normal")])
            )


class TestDiffAndOrders:
    def test_diff_recovers_changes(self, tennis_schema, tennis_entity):
        iv = Intervention.of([(0, "rain"), (2, "strong")])
        out = apply_intervention(tennis_schema, tennis_entity, iv)
        x = diff(tennis_schema, tennis_entity, out)
        assert x.changed == ((0, "sunny"), (2, "weak"))
        assert x.changed_indices == iv.indices
        assert x.counterfactual == out
        assert x.cardinality == 2

    def test_diff_of_entity_with_itself_is_empty(self, tennis_schema, tennis_entity):
        x = diff(tennis_schema, tennis_entity, tennis_entity)
        assert x.changed == ()
        assert x.cardinality == 0

    def test_hamming(self):
        assert hamming(("a", "b", "c"), ("a", "x", "y")) == 2
        with pytest.raises(InputError):
            hamming(("a",), ("a", "b"))

    def test_leq_s_is_subset_order(self, tennis_schema, tennis_entity):
        small = diff(
            tennis_schema,
            tennis_entity,
            tennis_schema.entity("e", ("sunny", "high", "weak")),
        )
        big = diff(
            tennis_schema,
            tennis_entity,
            tennis_schema.entity("e", ("rain", "high", "weak")),
        )
        other = diff(
            tennis_schema,
            tennis_entity,
            tennis_schema.entity("e", ("rain", "normal", "weak")),
        )
        assert leq_s(small, small)
        assert leq_s(small, big) and not leq_s(big, small)
        # {Humidity} vs {Outlook}: incomparable
        assert not leq_s(small, other) and not leq_s(other, small)
        # subset implies smaller-or-equal count
        assert leq_c(small, big)

    def test_leq_c_total_on_equal_cardinality(self, tennis_schema, tennis_entity):
        a = diff(
            tennis_schema,
            tennis_entity,
            tennis_schema.entity("e", ("sunny", "high", "weak")),
        )
        b = diff(
            tennis_schema,
            tennis_entity,
            tennis_schema.entity("e", ("rain", "normal", "weak")),
        )
        assert leq_c(a, b) and leq_c(b, a)


class TestSerialization:
    def test_schema_dict_round_trip(self, tennis_schema):
        again = schema_from_dict(schema_to_dict(tennis_schema))
        assert again == tennis_schema

    def test_schema_from_dict_coerces_integer_codes(self):
        s = schema_from_dict({"features": [{"name": "F1", "domain": [0, 1]}]})
        assert s.feature(0).domain == ("0", "1")

    def test_schema_from_dict_rejects_booleans(self):
        with pytest.raises(InputError, match="boolean"):
            schema_from_dict({"features": [{"name": "F1", "domain": [True, False]}]})

    def test_schema_needs_features_key(self):
        with pytest.raises(InputError, match="'features'"):
            schema_from_dict({"cols": []})

    @pytest.mark.parametrize("domain", [5, "01", {"0": 1, "1": 1}])
    def test_schema_domain_must_be_a_list(self, domain):
        with pytest.raises(InputError, match="must be a list"):
            schema_from_dict({"features": [{"name": "F1", "domain": domain}]})

    @pytest.mark.parametrize("values", [5, "rhw", {"Outlook": "rain"}])
    def test_entity_values_must_be_a_list(self, tennis_schema, values):
        with pytest.raises(InputError, match="must be a list"):
            entity_from_dict({"id": "e", "values": values}, tennis_schema)

    def test_load_schema_and_entity(self, tmp_path, tennis_schema):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps(schema_to_dict(tennis_schema)))
        assert load_schema(p) == tennis_schema
        e = entity_from_dict(
            {"id": "e9", "values": ["rain", "high", "weak"]}, tennis_schema
        )
        assert e.id == "e9"

    def test_load_schema_bad_json(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            load_schema(p)

    def test_entities_from_csv(self, tmp_path, tennis_schema):
        p = tmp_path / "ents.csv"
        p.write_text(
            "id,Outlook,Humidity,Wind\n"
            "e1,sunny,normal,weak\n"
            "e2,rain,high,strong\n"
        )
        rows = entities_from_csv(p, tennis_schema)
        assert [e.id for e in rows] == ["e1", "e2"]
        assert rows[1].values == ("rain", "high", "strong")

    def test_entities_from_csv_checks_header(self, tmp_path, tennis_schema):
        p = tmp_path / "ents.csv"
        p.write_text("Outlook,Humidity,Wind\nsunny,normal,weak\n")
        with pytest.raises(InputError, match="header"):
            entities_from_csv(p, tennis_schema)
