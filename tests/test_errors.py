"""The input policy in errors: JSON_TYPES, the one table of what each kind of JSON
value accepts, the message require_json gives for a value that fails it, and the
one message read_json gives for each fault of a file."""

import re

import pytest

from microwrpo.errors import JSON_TYPES, ConfigError, DataError, read_json, require_json


@pytest.mark.parametrize(
    "kind, value, ok",
    [
        ("int", 3, True),
        ("int", -(2**70), True),
        ("int", True, False),
        ("int", 3.0, False),
        ("float", 3, True),
        ("float", -0.5, True),
        ("float", True, False),
        ("float", False, False),
        ("float", 10**400, False),
        ("float", float("nan"), False),
        ("float", float("inf"), False),
        ("float", "1", False),
        ("bool", False, True),
        ("bool", 0, False),
        ("str", "", True),
        ("list", [], True),
        ("dict", {}, True),
        ("dict", [], False),
        ("int | None", True, False),
        ("float | None", 10**400, False),
        ("float | None", True, False),
    ],
)
def test_scalar_kinds(kind, value, ok):
    test, _ = JSON_TYPES[kind]
    assert test(value) is ok


@pytest.mark.parametrize("kind", list(JSON_TYPES))
def test_null_passes_only_the_nullable_kinds(kind):
    test, _ = JSON_TYPES[kind]
    assert test(None) is kind.endswith(" | None")


@pytest.mark.parametrize(
    "kind, good, bad",
    [
        ("list[int]", [0, 2**70, -1], [True, 1.0, "1", None]),
        ("list[float]", [0, 0.5, -1e300], [True, 10**400, float("nan"), "1", None]),
        ("dict[str, float]", {"a": 0, "b": 0.5}, [True, 10**400, float("inf"), None]),
    ],
)
def test_container_kinds_check_every_element(kind, good, bad):
    test, _ = JSON_TYPES[kind]
    assert test(good)
    assert test(type(good)())  # empty
    for element in bad:
        # The bad element first, in the middle and last.
        if isinstance(good, dict):
            cases = [{"x": element, **good}, {**good, "x": element}]
        else:
            cases = [[element, *good], [*good[:1], element, *good[1:]], [*good, element]]
        assert not any(map(test, cases)), (kind, element)
    assert not test({} if isinstance(good, list) else [])


@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_require_json_names_the_value_and_its_kind(error):
    require_json(0.5, "float", "x.y", error)
    with pytest.raises(error, match=r"^x\.y must be a finite number$"):
        require_json(True, "float", "x.y", error)
    with pytest.raises(error, match=r"^f: z must be a list of ints$"):
        require_json([1, None], "list[int]", "f: z", error)


@pytest.mark.parametrize(
    "content, fault",
    [
        (b"\xff\xfe{}", "undecodable bytes"),
        (b"{", "invalid JSON"),
        (b"9" * 5000, "invalid JSON"),  # an int literal too long to convert
        (None, "cannot read"),  # a directory
    ],
    ids=["undecodable", "truncated", "long-int", "directory"],
)
def test_read_json_faults(tmp_path, content, fault):
    path = tmp_path
    if content is not None:
        path = tmp_path / "f.json"
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {fault} \\(.+\\)$"):
        read_json(path, ConfigError)
