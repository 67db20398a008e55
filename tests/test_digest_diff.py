import os
import subprocess

import digest_diff
import preset_digest
from wmplanlab import presets


def test_a_tree_diffed_against_itself_prints_no_path(tmp_path):
    src = os.path.join(digest_diff.ROOT, "src")
    one, two = (digest_diff.digest(src, str(tmp_path / side), [])
                for side in ("one", "two"))
    assert len(one) > 100  # every command of every preset wrote its outputs
    assert digest_diff.changed_paths(one, two) == []


def test_both_trees_run_on_one_blas_thread_whatever_the_caller_sets(monkeypatch):
    seen = []

    def run(argv, env, **kwargs):
        seen.append(env)
        return subprocess.CompletedProcess(argv, 0, stdout="abc  a/model.json\n")

    monkeypatch.setattr(digest_diff.subprocess, "run", run)
    for threads in ("2", None):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert digest_diff.digest("src", "out", []) == {"a/model.json": "abc"}
    assert [env["OPENBLAS_NUM_THREADS"] for env in seen] == ["1", "1"]
    assert seen[0]["PYTHONPATH"].split(os.pathsep)[0] == "src"


def test_changed_paths_names_every_path_whose_bytes_differ():
    base = {"a/model.json": "1", "a/weights.bin": "2", "b/report.json": "3"}
    new = {"a/model.json": "1", "a/weights.bin": "9", "c/report.json": "4"}
    assert digest_diff.changed_paths(base, new) == [
        "a/weights.bin", "b/report.json", "c/report.json"]


def test_the_shapes_size_keeps_the_presets_widths_batches_and_horizons():
    # only the counts shrink, so the matrix products see the preset's shapes
    kept = ("d_z", "hidden", "batch_size", "traj_len", "horizon", "horizon_gap")

    def shape_keys(name, size):
        keys = [s.partition("=")[0] for s in preset_digest._sets(name, size)]
        return [k for k in keys if k.rpartition(".")[2] in kept]

    for name in presets.PRESETS:
        assert shape_keys(name, "shapes") == []
        assert "model.hidden" in shape_keys(name, "tiny")


def test_an_empty_digest_is_exit_2_and_the_count_goes_to_stderr(capsys):
    full = {"a/model.json": "1", "b/report.json": "3"}
    for base, new in (({}, {}), (full, {}), ({}, full)):
        assert digest_diff.verdict(base, new, "tiny", "HEAD~1") == 2
        out, err = capsys.readouterr()
        assert out == ""
        n = len(base.keys() | new.keys())
        assert f"compared {n} paths at size tiny against HEAD~1" in err
    assert digest_diff.verdict(full, dict(full), "shapes", "HEAD") == 0
    out, err = capsys.readouterr()
    assert out == "" and "compared 2 paths at size shapes against HEAD" in err
    assert digest_diff.verdict(full, {"a/model.json": "1"}, "tiny", "HEAD") == 1
    assert capsys.readouterr().out == "b/report.json\n"
