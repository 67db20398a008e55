"""Compare every preset output of this tree with those of another revision.

    python tests/digest_diff.py [--size SIZE] BASE_REV [PRESET ...]

BASE_REV is checked out with plain `git worktree add --detach` into a
temporary directory. This tree's `tests/preset_digest.py` then runs the
presets (all of them by default) at SIZE (`tiny`, the default, or `shapes`,
the presets' own model widths and batch sizes; see that script) twice, once
with each tree's `src/` first on PYTHONPATH, each time into an output
directory of its own. Every output path whose bytes differ, or that only one
tree writes, is printed, and the number of paths compared goes to stderr.
The exit status is 1 if a path is printed, 0 if none is, and 2 if BASE_REV
cannot be checked out or either tree's digest lists no path (then nothing
was compared); the worktree is removed either way. Both trees run with
OPENBLAS_NUM_THREADS=1, whatever the caller's environment holds: some
outputs depend on the number of BLAS threads (ROADMAP item 9).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = os.path.join(ROOT, "tests", "preset_digest.py")


def digest(src: str, out: str, presets: list[str],
           size: str = "tiny") -> dict[str, str]:
    """The sha256 of every output file, by path, that `preset_digest.py`
    finds after running `presets` (all if empty) at `size` with `src` first
    on PYTHONPATH, one BLAS thread and `out` as its output directory."""
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, DIGEST, "--size", size, out, *presets],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"preset_digest.py on {src} exited {proc.returncode}")
    return {path: sha for sha, path in
            (line.split("  ", 1) for line in proc.stdout.splitlines())}


def changed_paths(base: dict[str, str], new: dict[str, str]) -> list[str]:
    """The paths whose digests differ, or that only one side has, sorted."""
    return sorted(p for p in base.keys() | new.keys() if base.get(p) != new.get(p))


def verdict(base: dict[str, str], new: dict[str, str], size: str,
            rev: str) -> int:
    """Print the changed paths, say on stderr how many paths were compared,
    and return the exit status: 2 if either digest is empty, else 1 if a
    path changed and 0 if none did."""
    print(f"compared {len(base.keys() | new.keys())} paths at size {size} "
          f"against {rev}", file=sys.stderr)
    if not base or not new:
        print("a digest lists no path, so nothing was compared", file=sys.stderr)
        return 2
    paths = changed_paths(base, new)
    for path in paths:
        print(path)
    return 1 if paths else 0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description="diff preset outputs")
    parser.add_argument("--size", choices=["tiny", "shapes"], default="tiny")
    parser.add_argument("rev")
    parser.add_argument("presets", nargs="*")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        tree = os.path.join(work, "tree")
        if subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                           "--quiet", tree, args.rev]).returncode != 0:
            return 2
        try:
            base = digest(os.path.join(tree, "src"), os.path.join(work, "base"),
                          args.presets, args.size)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            tree], check=True)
        new = digest(os.path.join(ROOT, "src"), os.path.join(work, "new"),
                     args.presets, args.size)
    return verdict(base, new, args.size, args.rev)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
