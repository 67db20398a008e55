import os

import digest_diff


def test_a_tree_diffed_against_itself_prints_no_path(tmp_path):
    src = os.path.join(digest_diff.ROOT, "src")
    one, two = (digest_diff.digest(src, str(tmp_path / side), [])
                for side in ("one", "two"))
    assert len(one) > 100  # every command of every preset wrote its outputs
    assert digest_diff.changed_paths(one, two) == []


def test_changed_paths_names_every_path_whose_bytes_differ():
    base = {"a/model.json": "1", "a/weights.bin": "2", "b/report.json": "3"}
    new = {"a/model.json": "1", "a/weights.bin": "9", "c/report.json": "4"}
    assert digest_diff.changed_paths(base, new) == [
        "a/weights.bin", "b/report.json", "c/report.json"]
