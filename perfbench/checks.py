"""Checks of the program's outputs against an input's census.

Every function returns a list of human-readable problems; an empty list
means the output agrees with the census.  The schema side is read from
the program's type objects; the census side was computed with the
standard library alone (see ``inputs.py``).
"""

from __future__ import annotations

#: Relative error allowed between a HyperLogLog estimate and the exact
#: distinct count.  The sketch's standard error at 2**12 registers is
#: 1.04 / 64 = 1.6%; 8% is five standard errors, so a correct sketch
#: never fails it on any seed, while a broken hash or merge does.
HLL_TOLERANCE = 0.08


class _PathModel:
    __slots__ = ("kinds", "fields")

    def __init__(self) -> None:
        self.kinds: set[str] = set()
        #: field name -> present (and not optional) in every occurrence.
        self.fields: "dict[str, bool] | None" = None


def schema_paths(schema) -> dict[str, _PathModel]:
    """Paths of a schema with their kinds and always-present fields.

    A positional array type (a value seen once) contributes each element
    as one more occurrence of the ``[*]`` path, as the census counts it.
    """
    from repro.core.types import (
        ArrayType, BasicType, EmptyType, RecordType, StarArrayType, UnionType,
    )

    out: dict[str, _PathModel] = {}

    def add(t, path: str) -> None:
        members = t.members if isinstance(t, UnionType) else (t,)
        members = [m for m in members if not isinstance(m, EmptyType)]
        if not members:
            return
        node = out.get(path)
        if node is None:
            node = out[path] = _PathModel()
        for m in members:
            if isinstance(m, BasicType):
                node.kinds.add(m.kind.name)
            elif isinstance(m, RecordType):
                node.kinds.add("RECORD")
                present = {f.name: not f.optional for f in m.fields}
                if node.fields is None:
                    node.fields = present
                else:
                    for name in set(node.fields) | set(present):
                        node.fields[name] = (
                            node.fields.get(name, False)
                            and present.get(name, False)
                        )
                for f in m.fields:
                    add(f.type, f"{path}.{f.name}")
            elif isinstance(m, StarArrayType):
                node.kinds.add("ARRAY")
                add(m.body, f"{path}[*]")
            elif isinstance(m, ArrayType):
                node.kinds.add("ARRAY")
                for element in m.elements:
                    add(element, f"{path}[*]")
            else:
                raise TypeError(f"unexpected type node {type(m).__name__}")

    add(schema, "$")
    return out


def check_schema(schema, record_count: int, census: dict) -> list[str]:
    """Paths, kinds per path, optional fields and record count."""
    problems = []
    if record_count != census["records"]:
        problems.append(
            f"record_count {record_count} != {census['records']} input lines"
        )
    model = schema_paths(schema)
    expected = census["paths"]
    missing = sorted(set(expected) - set(model))
    extra = sorted(set(model) - set(expected))
    if missing:
        problems.append(f"{len(missing)} census paths absent, e.g. {missing[:3]}")
    if extra:
        problems.append(f"{len(extra)} paths not in the input, e.g. {extra[:3]}")
    for path in sorted(set(model) & set(expected)):
        kinds = set(expected[path]["kinds"])
        if model[path].kinds != kinds:
            problems.append(
                f"{path}: kinds {sorted(model[path].kinds)} != {sorted(kinds)}"
            )
        fields = model[path].fields or {}
        optional = {name for name, always in fields.items() if not always}
        want = set(census["optional"].get(path, ()))
        if optional != want:
            problems.append(
                f"{path}: optional {sorted(optional)} != {sorted(want)}"
            )
    return problems


def check_distinct_types(count: int, census: dict) -> list[str]:
    if count != census["distinct_types"]:
        return [f"distinct types {count} != {census['distinct_types']}"]
    return []


def _range_tuple(stat) -> "list | None":
    if not stat.count:
        return None
    return [stat.count, stat.minimum, stat.maximum, stat.total]


def check_stats(bundle, census: dict) -> list[str]:
    """Per-path statistics: exact counts and ranges, sketches in bounds."""
    if bundle is None:
        return ["no statistics bundle returned"]
    problems = []
    if bundle.record_count != census["records"]:
        problems.append(
            f"stats record_count {bundle.record_count} != {census['records']}"
        )
    expected = census["paths"]
    if set(bundle.paths) != set(expected):
        diff = sorted(set(bundle.paths) ^ set(expected))
        problems.append(f"stats paths differ from the census, e.g. {diff[:3]}")
    for path in sorted(set(bundle.paths) & set(expected)):
        node, want = bundle.paths[path], expected[path]
        if node.kinds.counts != want["kinds"]:
            problems.append(
                f"{path}: kind counts {node.kinds.counts} != {want['kinds']}"
            )
        numbers = (
            None if not node.numbers.count
            else [node.numbers.count, node.numbers.minimum, node.numbers.maximum]
        )
        if numbers != want["num"]:
            problems.append(f"{path}: numbers {numbers} != {want['num']}")
        if _range_tuple(node.strings) != want["str"]:
            problems.append(
                f"{path}: string lengths {_range_tuple(node.strings)} "
                f"!= {want['str']}"
            )
        if _range_tuple(node.arrays) != want["arr"]:
            problems.append(
                f"{path}: array lengths {_range_tuple(node.arrays)} "
                f"!= {want['arr']}"
            )
        if bundle.mode != "sketches":
            continue
        if node.values is None:
            if want["distinct"]:
                problems.append(f"{path}: no value sketches")
            continue
        exact = want["distinct"]
        estimate = node.values.hll.estimate()
        if exact and abs(estimate - exact) / exact > HLL_TOLERANCE:
            problems.append(
                f"{path}: HyperLogLog {estimate:.1f} vs {exact} distinct"
            )
        absent = [v for v in want["values"]
                  if not node.values.bloom.might_contain(v)]
        if absent:
            problems.append(
                f"{path}: Bloom filter misses {len(absent)} observed values"
            )
    return problems
