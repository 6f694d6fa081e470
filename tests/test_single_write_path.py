"""Every durable write goes through ``repro._util``.

Renames and fsyncs are where crash ordering is won or lost, so they may
appear only in :mod:`repro._util` (``atomic_write``, ``fsync_file``,
``fsync_dir``).  This walks ``src/repro`` with :mod:`ast` and fails on
any other ``os.replace`` / ``os.rename`` / ``os.fsync`` call, or a
one-argument ``.replace(target)`` / ``.rename(target)`` method call
(``pathlib.Path``'s signature; ``str``/``bytes.replace`` take two).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: (module path, call) -> why it may bypass ``atomic_write``.
ALLOWED = {
    ("fleet/ledger.py", "os.fsync"): (
        "the ledger appends one line per event on an O_APPEND fd; an "
        "append is not a replace, so it fsyncs the descriptor in place"
    ),
    ("run/cache.py", "os.replace"): (
        "the campaign cache renames a whole entry directory; entries are "
        "re-verified by sha256 on load and can be recomputed"
    ),
}

_OS_CALLS = {"replace", "rename", "fsync"}


def _durable_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in _OS_CALLS:
                    yield node.lineno, f"from os import {alias.name}"
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        ):
            continue
        attr = node.func.attr
        owner = node.func.value
        if isinstance(owner, ast.Name) and owner.id == "os":
            if attr in _OS_CALLS:
                yield node.lineno, f"os.{attr}"
        elif attr in ("replace", "rename") and len(node.args) == 1 \
                and not node.keywords:
            yield node.lineno, f".{attr}(target)"


def _offenders():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "_util.py":
            continue
        for lineno, call in _durable_calls(ast.parse(path.read_text())):
            yield rel, lineno, call


def test_renames_and_fsyncs_only_in_util():
    bad = [
        f"{rel}:{lineno}: {call}"
        for rel, lineno, call in _offenders()
        if (rel, call) not in ALLOWED
    ]
    assert not bad, (
        "durable writes must use repro._util.atomic_write (or fsync_file "
        "for appends): " + ", ".join(bad)
    )


def test_allowed_exceptions_still_exist():
    found = {(rel, call) for rel, _, call in _offenders()}
    assert set(ALLOWED) <= found, "stale ALLOWED entry: " + ", ".join(
        f"{rel} {call}" for rel, call in sorted(set(ALLOWED) - found)
    )


def test_checker_sees_every_spelling():
    src = (
        "import os\n"
        "from os import fsync\n"
        "os.replace(a, b)\n"
        "os.rename(a, b)\n"
        "os.fsync(fd)\n"
        "tmp.replace(path)\n"
        "tmp.rename(path)\n"
        "text.replace('a', 'b')\n"
        "stamp.replace(tzinfo=None)\n"
    )
    calls = [call for _, call in _durable_calls(ast.parse(src))]
    assert calls == [
        "from os import fsync", "os.replace", "os.rename", "os.fsync",
        ".replace(target)", ".rename(target)",
    ]
