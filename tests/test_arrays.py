"""Atomic writes of run artifacts: the old file or the new one, never a
partial file or a stray temporary; and the bytes of the CSV tables."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from test_harness import tiny_config

from advreplay import runner
from advreplay import calib as C
from advreplay.arrays import csv_text, write_atomic
from advreplay.errors import ContractError


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "meta.json"
    write_atomic(path, "old")
    write_atomic(path, '{"é": 1}')
    assert path.read_bytes() == '{"é": 1}'.encode("utf-8")
    assert os.listdir(tmp_path) == ["meta.json"]


def test_write_failing_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("previous", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        # a lone surrogate cannot be encoded, so nothing new is written
        write_atomic(path, "x" * 100_000 + "\ud800")
    assert path.read_text(encoding="utf-8") == "previous"
    assert os.listdir(tmp_path) == ["config.json"]


def test_store_save_failing_at_rename_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    store = C.PrototypeStore()
    store.add(0, np.zeros(2), np.eye(2), task=0)
    C.save_store(store, path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    store.add(1, np.ones(2), np.eye(2), task=1)
    monkeypatch.setattr(os, "replace", fail)
    named = re.escape(f"{path}: cannot write (disk full)")
    with pytest.raises(ContractError, match=named):
        C.save_store(store, path)
    assert path.read_bytes() == before
    assert sorted(json.loads(before)["classes"]) == ["0"]
    assert os.listdir(tmp_path) == ["store.json"]


def test_csv_text_writes_floats_as_repr_and_the_rest_as_they_are():
    rows = [[0.1, np.float64(1 / 3), np.float32(0.1), 7, np.int64(-2), "a,b", ""]]
    assert csv_text(["x", "y"], rows) == (
        "x,y\r\n"
        f"0.1,0.3333333333333333,{float(np.float32(0.1))!r},7,-2,\"a,b\",\r\n")


def test_csv_text_bytes_equal_the_former_metrics_writer(tmp_path):
    """The bytes the former per-row ``metrics.csv`` writer left for these
    rows, pinned literally."""
    rows = [("train", 1, 0, "ce_loss", 0.1), ("train", 1, 0, "lr", np.float64(1 / 3)),
            ("calibration", 2, "", "gamma1", 1e-05), ("eval", 2, "", "acc/ncm/group0", 1.0),
            ("summary", 2, "", "A_inc/ncm", np.float64(0.7)), ("attack", 1, "", "noise_r", -0.0),
            ("note", 0, "", "a,b", 'say "hi"'), ("count", 3, 7, "n", 12)]
    path = tmp_path / "metrics.csv"
    write_atomic(path, csv_text(runner.METRICS_HEADER, rows))
    assert path.read_bytes() == (
        b'stage,task,epoch,key,value\r\ntrain,1,0,ce_loss,0.1\r\n'
        b'train,1,0,lr,0.3333333333333333\r\ncalibration,2,,gamma1,1e-05\r\n'
        b'eval,2,,acc/ncm/group0,1.0\r\nsummary,2,,A_inc/ncm,0.7\r\n'
        b'attack,1,,noise_r,-0.0\r\nnote,0,,"a,b","say ""hi"""\r\ncount,3,7,n,12\r\n')


def test_metrics_csv_is_written_whole_at_each_task_boundary(tmp_path, monkeypatch):
    """Each ``metrics.csv`` text of a 3-task run extends the one before, one
    per task, and the last is the finished file."""
    texts = []

    def spy(path, data):
        if Path(path).name == "metrics.csv":
            texts.append(data)
        write_atomic(path, data)

    monkeypatch.setattr(runner, "write_atomic", spy)
    result = runner.run_benchmark(tiny_config(tmp_path))
    assert len(texts) == 3
    for before, after in zip(texts, texts[1:]):
        assert after.startswith(before) and len(after) > len(before)
    assert (result.run_dir / "metrics.csv").read_bytes() == texts[-1].encode("utf-8")
