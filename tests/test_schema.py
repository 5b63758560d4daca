import json

import pytest

from cfx.errors import InputError
from cfx.schema import (
    Entity,
    Feature,
    FeatureSchema,
    entities_from_csv,
    entity_from_dict,
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

    @pytest.mark.parametrize("ordered", ["false", "true", 0, 1, None, []])
    def test_schema_ordered_must_be_a_boolean(self, ordered):
        feature = {"name": "F1", "domain": ["0", "1"], "ordered": ordered}
        with pytest.raises(InputError, match="must be true or false"):
            schema_from_dict({"features": [feature]})

    @pytest.mark.parametrize("ordered", [True, False])
    def test_schema_ordered_booleans_accepted(self, ordered):
        feature = {"name": "F1", "domain": ["0", "1"], "ordered": ordered}
        assert schema_from_dict({"features": [feature]}).feature(0).ordered is ordered

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
