"""Line gate: every statement of src/polycox runs in tier-1 or is listed.

    python tools/linegate.py run [pytest arguments]
    python tools/linegate.py check

``run`` runs pytest with ``PYTHONUSERBASE`` set to a fresh directory whose
``usercustomize.py`` records ``sys.monitoring`` LINE events in every Python
process started under it, the test suite's own subprocesses included (a test
that resets ``PYTHONPATH`` keeps ``PYTHONUSERBASE``).  Each process writes the
lines of src/polycox it ran into ``build/linegate/`` when it exits.  The
callback returns ``DISABLE``, so each line costs one event per process.

``check`` takes the executable lines of each module from its code objects
(``co_lines``), groups the unrun ones by the statement they belong to, and
compares those statements with ``tools/unrun_lines.toml``.  It matches by
file and by the statement's text (a compound statement's header), its lines
stripped and joined by spaces, so that moving code does not change the
list.  It fails on an unrun statement the list does not name, and on a
listed statement that now runs.

Both need Python 3.12 or later, and the same interpreter.
"""

import ast
import collections
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tomllib
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polycox"
RECORD = ROOT / "build" / "linegate"
LISTED = ROOT / "tools" / "unrun_lines.toml"

HOOK = """\
import atexit, json, os, sys

_ran = set()

def _line(code, line):
    if code.co_filename.startswith({src!r}):
        _ran.add((code.co_filename, line))
    return sys.monitoring.DISABLE

def _dump():
    with open(os.path.join({record!r}, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump(sorted(_ran), fh)

_mon = sys.monitoring
_mon.use_tool_id(_mon.COVERAGE_ID, "linegate")
_mon.register_callback(_mon.COVERAGE_ID, _mon.events.LINE, _line)
_mon.set_events(_mon.COVERAGE_ID, _mon.events.LINE)
atexit.register(_dump)
"""


def run(pytest_args: list[str]) -> int:
    """Tier-1 under the hook; pytest's exit code."""
    shutil.rmtree(RECORD, ignore_errors=True)
    version = f"python{sys.version_info[0]}.{sys.version_info[1]}"
    site = RECORD / "userbase" / "lib" / version / "site-packages"
    site.mkdir(parents=True)
    hook = HOOK.format(src=f"{SRC}{os.sep}", record=str(RECORD))
    (site / "usercustomize.py").write_text(hook)
    env = dict(os.environ, PYTHONUSERBASE=str(RECORD / "userbase"))
    pytest = [sys.executable, "-m", "pytest", *pytest_args]
    return subprocess.run(pytest, cwd=ROOT, env=env).returncode


def unrun_statements() -> list[tuple[str, int, str]]:
    """(file, first line, text) of each statement holding an executable
    line that no recorded process ran; the text is the statement's lines,
    stripped and joined by spaces."""
    ran = set()
    dumps = list(RECORD.glob("*.json"))
    if not dumps:
        sys.exit(f"no line records in {RECORD}; run `python {sys.argv[0]} run` first")
    for dump in dumps:
        ran.update((os.path.realpath(f), n) for f, n in json.loads(dump.read_text()))
    unrun = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, todo = set(), [compile(text, str(path), "exec", dont_inherit=True)]
        while todo:
            code = todo.pop()
            lines.update(n for _, _, n in code.co_lines() if n)  # 0: a module's entry
            todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        source = text.splitlines()
        stmt = {}  # line -> (first line, text) of the innermost statement holding it
        for node in ast.walk(ast.parse(text)):  # breadth first: inner nodes last
            if isinstance(node, ast.stmt):
                end = node.end_lineno
                if hasattr(node, "body"):  # a compound statement: its header
                    end = max(node.lineno, node.body[0].lineno - 1)
                text = " ".join(line.strip() for line in source[node.lineno - 1 : end])
                key = node.lineno, text
                decorators = getattr(node, "decorator_list", ())
                first = min([node.lineno] + [d.lineno for d in decorators])
                stmt.update(dict.fromkeys(range(first, node.end_lineno + 1), key))
        real = os.path.realpath(path)
        unrun.update((path.name, *stmt[n]) for n in lines if (real, n) not in ran)
    return sorted(unrun)


def check() -> int:
    """0 when the unrun statements are exactly the listed ones, else 1."""
    entries = tomllib.loads(LISTED.read_text())["unrun"]
    kinds = ("safety net", "open proof")
    bad = [e for e in entries if e.get("kind") not in kinds or not e.get("reason")]
    for e in bad:
        print(f"{LISTED.name}: {e.get('file')}: {e.get('text')!r} needs a kind and a reason")
    unrun = unrun_statements()
    listed = collections.Counter((e["file"], e["text"]) for e in entries)
    found = collections.Counter((f, t) for f, _, t in unrun)
    for f, n, t in unrun:
        if found[f, t] > listed[f, t]:
            print(f"unrun and not listed: src/polycox/{f}:{n}: {t}")
    for (f, t), k in sorted((listed - found).items()):
        print(f"listed but run: {f}: {t!r} ({k} of {listed[f, t]})")
    ok = not bad and found == listed
    n_listed = sum(listed.values())
    print(f"linegate: {len(unrun)} unrun statements, {n_listed} listed: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in ("run", "check"):
        sys.exit(__doc__)
    sys.exit(run(sys.argv[2:]) if sys.argv[1] == "run" else check())
