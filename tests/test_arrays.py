"""Atomic writes of run artifacts: the old file or the new one, never a
partial file or a stray temporary."""

import json
import os
import re

import numpy as np
import pytest

from advreplay import calib as C
from advreplay.arrays import write_text_atomic
from advreplay.errors import ContractError


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "meta.json"
    write_text_atomic(path, "old")
    write_text_atomic(path, '{"é": 1}')
    assert path.read_bytes() == '{"é": 1}'.encode("utf-8")
    assert os.listdir(tmp_path) == ["meta.json"]


def test_write_failing_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("previous", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        # a lone surrogate cannot be encoded, so the write stops part of the way in
        write_text_atomic(path, "x" * 100_000 + "\ud800")
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
