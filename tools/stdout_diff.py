"""Compare the stdout and exit code of fixed CLI argvs in two checkouts.

    python3 tools/stdout_diff.py --parent DIR --change DIR

The argvs are the ``turnwalk`` commands of the change checkout's README, as
written, and the CLI ops of its ``perfbench/workloads.py`` at workload seed
7, pass 0.  Each checkout runs all of them in one process of its own, with
its ``src/`` first on the import path, through ``turnwalk.cli.run`` with
stdout captured.  Per argv the tool prints ``identical`` or ``changed``, the
exit codes of parent and change, and the command; it exits 0 when every
argv is identical and 1 otherwise.  When both stdouts of a changed argv are
JSON objects, it also lists the key paths (``$.single.within_4se``) that
were added, removed, changed in value or reordered among their siblings;
lists are compared as values.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

SEED = 7

# Runs the argvs read from stdin through cli.run; prints [[rc, stdout], ...].
RUNNER = """
import contextlib, io, json, sys
from turnwalk import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    results.append([rc, out.getvalue()])
json.dump(results, sys.stdout)
"""


def readme_argvs(root: Path) -> list:
    """The ``turnwalk ...`` lines of the README's code blocks, without comments."""
    argvs, in_block = [], False
    for line in (root / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("turnwalk "):
            argvs.append(shlex.split(line, comments=True)[1:])
    return argvs


def perfbench_argvs(root: Path) -> list:
    """The CLI ops of every benchmark workload at seed ``SEED``, pass 0."""
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [op["argv"] for name in workloads.WORKLOADS
            for op in workloads.ops(name, SEED, 0) if op["kind"] == "cli"]


def run_all(root: Path, argvs: list) -> list:
    """[rc, stdout] of each argv, run in checkout ``root``."""
    proc = subprocess.run([sys.executable, "-c", RUNNER], cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          input=json.dumps(argvs), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def json_diff(old, new, path: str = "$") -> dict:
    """Key paths added, removed, changed in value or reordered, old to new."""
    out = {"added": [], "removed": [], "changed": [], "reordered": []}
    if not (isinstance(old, dict) and isinstance(new, dict)):
        if old != new:
            out["changed"].append(path)
        return out
    out["added"] = [f"{path}.{k}" for k in new if k not in old]
    out["removed"] = [f"{path}.{k}" for k in old if k not in new]
    kept = [k for k in old if k in new]
    if kept != [k for k in new if k in old]:
        out["reordered"].append(path)
    for k in kept:
        for kind, paths in json_diff(old[k], new[k], f"{path}.{k}").items():
            out[kind] += paths
    return out


def json_object(text: str):
    """``text`` parsed, if it is one JSON object; else None."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    change = args.change.resolve()
    argvs = readme_argvs(change) + perfbench_argvs(change)
    parent_runs = run_all(args.parent.resolve(), argvs)
    change_runs = run_all(change, argvs)
    changed = 0
    for argv, (rc_p, out_p), (rc_c, out_c) in zip(argvs, parent_runs, change_runs):
        same = rc_p == rc_c and out_p == out_c
        changed += not same
        print(f"{'identical' if same else 'changed':9}  rc {rc_p}/{rc_c}  "
              f"turnwalk {shlex.join(argv)}")
        old, new = (None, None) if same else (json_object(out_p), json_object(out_c))
        if old is not None and new is not None:
            for kind, paths in json_diff(old, new).items():
                if paths:
                    print(f"{'':11}{kind}: {', '.join(paths)}")
    print(f"{len(argvs) - changed} identical, {changed} changed, of {len(argvs)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
