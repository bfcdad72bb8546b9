"""Check that the working tree writes the same reports as a git revision.

Exports REV (default ``HEAD``) with ``git archive`` into a temporary
directory, runs ``scripts/registry_reports.py`` and
``scripts/degenerate_reports.py`` from that tree and from the working tree
(two processes at a time), and lists every report file that differs or
exists on one side only.  A differing file is followed by its unified diff,
cut after ``DIFF_LINES`` lines::

    python scripts/compare_reports.py [REV]

Exits 0 when every file matches, 1 when some differ, 2 when a run fails.
Everything is written under the temporary directory, nothing inside the
repository.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("registry_reports.py", "degenerate_reports.py")
DIFF_LINES = 40  # unified-diff lines shown per differing file
# No bytecode caches in either tree, and one BLAS thread per process.
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _export(rev: str, dest: Path) -> None:
    dest.mkdir()
    git = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        raise SystemExit(f"cannot export {rev!r} with git archive")


def _diff(a: Path, b: Path) -> list[str]:
    lines = list(difflib.unified_diff(
        a.read_text().splitlines(), b.read_text().splitlines(),
        fromfile=f"revision/{a.name}", tofile=f"working tree/{b.name}", lineterm=""))
    if len(lines) > DIFF_LINES:
        lines = lines[:DIFF_LINES] + [f"... {len(lines) - DIFF_LINES} more diff lines"]
    return ["    " + line for line in lines]


def _compare(old: Path, new: Path) -> tuple[int, list[str]]:
    """The number of file names in either directory, and the mismatches: a
    line for each, followed by its diff when both sides have the file."""
    names = sorted({f.name for f in old.iterdir()} | {f.name for f in new.iterdir()})
    out = []
    for name in names:
        a, b = old / name, new / name
        if not a.exists() or not b.exists():
            out.append(f"{name}: only in {'working tree' if b.exists() else 'the revision'}")
        elif a.read_bytes() != b.read_bytes():
            out.append(f"{name}: differs\n" + "\n".join(_diff(a, b)))
    return len(names), out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python scripts/compare_reports.py [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        tmp = Path(tmp)
        trees = {"rev": tmp / "rev", "work": ROOT}
        _export(rev, trees["rev"])
        compared = 0
        differences = []
        for script in SCRIPTS:
            outs = {side: tmp / f"{side}_{Path(script).stem}" for side in trees}
            procs = {
                side: subprocess.Popen(
                    [sys.executable, str(tree / "scripts" / script), str(outs[side])],
                    stdout=subprocess.DEVNULL, env=ENV,
                )
                for side, tree in trees.items()
            }
            failed = [side for side, proc in procs.items() if proc.wait()]
            if failed:
                print(f"{script}: run failed in {', '.join(failed)}", file=sys.stderr)
                return 2
            n, diffs = _compare(outs["rev"], outs["work"])
            compared += n
            differences += [f"{script}: {d}" for d in diffs]
            print(f"{script}: {len(diffs)} of {n} files differ", flush=True)
    for line in differences:
        print(line)
    print(f"{compared - len(differences)} of {compared} files identical to {rev}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
