"""Unit tests for the repository tools under ``tools/``, imported by path."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "stdout_diff.py"


@pytest.fixture(scope="module")
def stdout_diff():
    spec = importlib.util.spec_from_file_location("stdout_diff", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_diff_identical_is_empty(stdout_diff):
    doc = {"a": 1, "b": {"c": [1, 2], "d": None}}
    assert stdout_diff.json_diff(doc, doc) == {
        "added": [], "removed": [], "changed": [], "reordered": []}


def test_json_diff_added_removed_changed_reordered(stdout_diff):
    old = {"op": "tail", "config": {"seed": 0, "shards": 1, "n": 10},
           "estimate": 0.5, "ci95": [0.4, 0.6]}
    new = {"op": "tail", "config": {"n": 10, "seed": 0, "alpha": 0.01},
           "estimate": 0.25, "ci95": [0.4, 0.7]}
    assert stdout_diff.json_diff(old, new) == {
        "added": ["$.config.alpha"],
        "removed": ["$.config.shards"],
        "changed": ["$.estimate", "$.ci95"],
        "reordered": ["$.config"],
    }


def test_json_diff_nested_and_type_change(stdout_diff):
    old = {"a": {"b": {"c": 1, "d": 2}}, "e": {"f": 1}}
    new = {"a": {"b": {"c": 1}}, "e": [1]}
    diff = stdout_diff.json_diff(old, new)
    assert diff["removed"] == ["$.a.b.d"]
    assert diff["changed"] == ["$.e"]  # an object that became a list
    assert diff["added"] == diff["reordered"] == []


def test_json_diff_removal_alone_is_not_a_reorder(stdout_diff):
    old = {"x": 1, "gone": 2, "y": 3}
    new = {"x": 1, "y": 3}
    assert stdout_diff.json_diff(old, new) == {
        "added": [], "removed": ["$.gone"], "changed": [], "reordered": []}


def test_readme_argvs_reads_code_blocks_only(stdout_diff, tmp_path):
    (tmp_path / "README.md").write_text(
        "turnwalk outside --a block\n"
        "```bash\n"
        "turnwalk moments --op sgeom --p 0.5 --m 2   # a comment\n"
        "pip install -e .\n"
        "turnwalk verify tail --schedule '{\"kind\": \"Constant\"}'\n"
        "```\n"
        "prose mentioning turnwalk verify\n"
        "```\n"
        "  turnwalk indented --is not a command\n"
        "turnwalk classify --d 2\n"
        "```\n",
        encoding="utf-8")
    assert stdout_diff.readme_argvs(tmp_path) == [
        ["moments", "--op", "sgeom", "--p", "0.5", "--m", "2"],
        ["verify", "tail", "--schedule", '{"kind": "Constant"}'],
        ["classify", "--d", "2"],
    ]


def test_json_object_accepts_objects_only(stdout_diff):
    assert stdout_diff.json_object('{"a": 1}') == {"a": 1}
    assert stdout_diff.json_object("[1, 2]") is None
    assert stdout_diff.json_object("# config {}\nk,tau_k") is None
