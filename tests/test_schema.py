import ast
import json
from collections import Counter
from pathlib import Path

import pytest

import cfx
from cfx.classify import TableClassifier, load_rules
from cfx.errors import InputError
from cfx.schema import (
    Entity,
    Feature,
    FeatureSchema,
    entities_from_csv,
    entity_from_dict,
    load_schema,
    schema_from_dict,
)


def schema_json(schema):
    return json.dumps({"features": [
        {"name": f.name, "domain": list(f.domain), "ordered": f.ordered} for f in schema
    ]})


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
        p.write_text(schema_json(tennis_schema))
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

    @pytest.mark.parametrize("text, where, message", [
        ("", "", "empty CSV"),
        ("id,Outlook,Humidity,Wind\ne1,sunny,normal\n", ":2", "wrong column count"),
        ("id,Outlook,Humidity,Wind\n\n , , , \n", "", "no entity rows"),
    ])
    def test_entities_from_csv_errors(self, tmp_path, tennis_schema, text, where, message):
        p = tmp_path / "e.csv"
        p.write_text(text)
        with pytest.raises(InputError) as info:
            entities_from_csv(p, tennis_schema)
        assert str(info.value) == f"{p}{where}: {message}"


class TestOneReader:
    """Input files are opened, decoded and split into CSV rows in schema.py
    alone, so every loader reports a missing or undecodable file the same
    way."""

    PACKAGE = Path(cfx.__file__).parent

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "schema.py")
    )
    def test_no_file_reading_outside_schema(self, module):
        tree = ast.parse((self.PACKAGE / module).read_text(encoding="utf-8"))
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    found.append(f"open() at line {node.lineno}")
                elif isinstance(func, ast.Attribute) and (
                    func.attr in ("read_text", "read_bytes", "open")
                    or (func.attr == "reader" and ast.unparse(func.value) == "csv")
                ):
                    found.append(f"{ast.unparse(func)}() at line {node.lineno}")
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "UnicodeDecodeError" in ast.unparse(node.type):
                    found.append(f"except UnicodeDecodeError at line {node.lineno}")
        assert found == []


class TestByteOrderMark:
    """A UTF-8 input file may start with a byte order mark, which is not
    part of its text."""

    BOM = b"\xef\xbb\xbf"

    def test_bom_led_files_load(self, tmp_path, tennis_schema):
        schema = tmp_path / "schema.json"
        schema.write_bytes(self.BOM + schema_json(tennis_schema).encode())
        assert load_schema(schema) == tennis_schema
        table = tmp_path / "table.csv"
        table.write_bytes(self.BOM + b"Outlook,Humidity,Wind,label\nrain,high,weak,1\n")
        assert TableClassifier.from_csv(table, tennis_schema).rows == {
            ("rain", "high", "weak"): 1
        }
        rules = tmp_path / "model.rules"
        rules.write_bytes(self.BOM + b"if Outlook=rain then 1\ndefault 0\n")
        assert load_rules(rules, tennis_schema).label(("rain", "high", "weak")) == 1

    def test_bad_byte_keeps_its_line(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_bytes(self.BOM + b'{"features": []}\n\xff\n')
        with pytest.raises(InputError) as info:
            load_schema(p)
        assert str(info.value) == f"input file is not UTF-8: {p}:2: invalid start byte"


class TestNoUnusedImport:
    """Every name a package module imports is used in that module, so
    deleting code cannot leave its imports behind."""

    PACKAGE = TestOneReader.PACKAGE

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    )
    def test_every_import_is_used(self, module):
        tree = ast.parse((self.PACKAGE / module).read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # "import a.b" binds "a"
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{n} at line {node.lineno}" for n in names if n not in used]
        assert unused == []


class TestEveryDefinitionIsNamed:
    """Every top-level function and class of the package is named somewhere
    in the package outside its own definition, and every method of such a
    class is read as an attribute (``obj.name``) outside its own body, in
    the package or in the benchmark under ``perfbench/``; so the package
    keeps no code that only tests call.

    Names are matched as words, not resolved to what they bind. So the test
    cannot see an attribute that nothing reads (one set in ``__init__`` and
    never looked up), and a definition counts as named when another one of
    its name is named or read."""

    PACKAGE = TestOneReader.PACKAGE
    BENCH = Path(__file__).resolve().parent.parent / "perfbench"
    # the paper's own definitions, kept although only tests call them
    PAPER = {"local_resp", "max_resp_features", "s_explanations"}
    # overrides that a base class calls, as the language calls dunders
    CALLED_BY_BASE = {"_Parser.error"}

    @staticmethod
    def names(tree):
        found = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.alias):
                found[node.name.rpartition(".")[2]] += 1
        return found

    @staticmethod
    def reads(tree):
        return Counter(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )

    def test_every_definition_is_named(self):
        paths = [*self.PACKAGE.glob("*.py"), *self.BENCH.glob("*.py")]
        trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
        named = sum(map(self.names, trees.values()), Counter())
        read = sum(map(self.reads, trees.values()), Counter())
        unnamed = []
        for path in sorted(self.PACKAGE.glob("*.py")):
            definitions = []
            for node in trees[path].body:
                if isinstance(node, ast.ClassDef):
                    definitions.append((node, None))
                    definitions += [(member, node.name) for member in node.body]
                elif isinstance(node, ast.FunctionDef):
                    definitions.append((node, None))
            for node, owner in definitions:
                if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    continue
                name = node.name
                # dunder methods are called by the language, not by name
                if name.startswith("__") and name.endswith("__") or name in self.PAPER:
                    continue
                if f"{owner}.{name}" in self.CALLED_BY_BASE:
                    continue
                if owner is None:
                    unused = named[name] == self.names(node)[name]
                else:
                    unused = read[name] == self.reads(node)[name]
                if unused:
                    where = name if owner is None else f"{owner}.{name}"
                    unnamed.append(f"{path.name}:{node.lineno} {where}")
        assert unnamed == []


ROOT = Path(__file__).resolve().parent.parent


class TestRunsOnPython310:
    """The package, its tests and the benchmark run on Python 3.10, the
    oldest version CI runs: every module parses under 3.10's grammar and
    names none of the likeliest standard-library names that came later."""

    MODULES = sorted(
        p
        for where in ("src/cfx", "tests", "perfbench")
        for p in (ROOT / where).rglob("*.py")
        if "_work" not in p.parts
    )
    # module: its names newer than 3.10
    NEWER = {"itertools": {"batched"}, "typing": {"Self"}, "datetime": {"UTC"}}
    GUARDS = {"ImportError", "ModuleNotFoundError"}

    @pytest.mark.parametrize(
        "path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix()
    )
    def test_parses_and_names_nothing_newer(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        # tomllib (3.11) may be imported where a failed import is caught
        guarded = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.Try)
            and any(
                handler.type is not None
                and {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
                & self.GUARDS
                for handler in node.handlers
            )
            for stmt in node.body
            for inner in ast.walk(stmt)
        }
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                pairs = [(node.module, a.name) for a in node.names]
                modules = [node.module]
            elif isinstance(node, ast.Import):
                pairs, modules = [], [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                pairs, modules = [(node.value.id, node.attr)], []
            else:
                continue
            found += [
                f"{module}.{name} at line {node.lineno}"
                for module, name in pairs
                if name in self.NEWER.get(module, ())
            ]
            if "tomllib" in modules and id(node) not in guarded:
                found.append(f"unguarded tomllib import at line {node.lineno}")
        assert found == []
