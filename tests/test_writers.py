"""Only ``arrays`` writes files.

``arrays.write_atomic`` is the engine's one writer: every file goes through
a temporary file and a rename, so no reader sees a partial file.  This test
parses ``src/advreplay`` and fails on any other module that opens a file
for writing or calls a method that writes one.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "advreplay"

WRITER = "arrays.py"
WRITE_METHODS = {"write_text", "write_bytes", "tofile", "savetxt", "savez"}


def open_mode(call):
    """The mode node of an ``open(path, mode)`` or ``path.open(mode)`` call,
    else ``None``."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[position] if len(call.args) > position else None


def writes(call) -> str | None:
    """How ``call`` writes a file, or ``None`` if it does not."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in WRITE_METHODS and isinstance(func, ast.Attribute):
        return f"{name}()"
    if name == "open":
        mode = open_mode(call)
        if mode is None:
            return None
        # a mode that is not a literal may be a writing one
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return "open() with a computed mode"
        if set(mode.value) & set("wax+"):
            return f"open({mode.value!r})"
    return None


def file_writes(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno} {how}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (how := writes(node)) is not None]


def test_only_arrays_writes_files():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != WRITER
             for hit in file_writes(path)]
    assert not found, f"modules other than {WRITER} that write files: {found}"


def test_the_guard_sees_every_way_of_writing(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("\n".join([
        'open(p, "w")', 'open(p, mode="ab")', 'p.open("x")', 'p.open("r+")', "p.open(m)",
        "p.write_text(s)", "p.write_bytes(b)", "a.tofile(p)",
        # reads
        "open(p)", 'open("/proc/self/maps", encoding="utf-8")', 'p.open("rb")', "p.open()",
        'p.open(newline="")', "p.read_text()",
    ]), encoding="utf-8")
    assert [hit.split(" ", 1)[0] for hit in file_writes(source)] == [
        f"sample.py:{line}" for line in range(1, 9)]
