"""Same outputs: run a fixed set of CLI commands on a parent revision and on
the working tree, and compare every file they write byte for byte.

The set is ``sweep`` (rows and summary) on every ``configs/*.yaml`` and
``perfbench/workloads/*.yaml``; ``simulate --trace`` (frames and trace) for
``ibt`` on ``sweep_small`` at lambda = 0.02, ``ibt_half`` on ``scale`` and
``consensus`` on ``fading``; and ``build-tree`` on ``scale`` and on
``fading`` (a random layout with noisy sensing), on ``sweep_small`` with one
budgeted random-tree scheme at trial 2, and on ``sweep_small`` with a mixed
scheme list (a budgeted IBT first, beside a random tree and an unbudgeted
IBT of the same ``gamma_delay``) at trial 1.  Both sides
read the working tree's config files; the parent side runs ``src/`` of
``--parent-rev`` (extracted with ``git archive``), the other the working
tree's ``src/``.  BLAS is pinned to one thread, as in ``perfbench``.

    python3 bench/same_outputs.py --parent-rev HEAD~1

Prints one line per file, then one JSON line
``{"identical": ..., "files": ..., "differ": [...]}``, and exits 1 if any
file differs or is written by one side only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from setup_scaling import PINNED_ENV, ROOT, extracted_src

WORKLOADS = ROOT / "perfbench" / "workloads"
SWEEP_SMALL = ROOT / "configs" / "sweep_small.yaml"
MAIN = "import sys; from hiersense.cli import main; sys.exit(main(sys.argv[1:]))"


def commands(out: Path) -> list[list[str]]:
    """Each command's arguments, writing into ``out``."""
    cmds = [["sweep", "--config", str(path), "-o",
             str(out / f"sweep-{path.parent.name}-{path.stem}.csv")]
            for pattern in ("configs/*.yaml", "perfbench/workloads/*.yaml")
            for path in sorted(ROOT.glob(pattern))]
    for config, scheme, extra in (
            (SWEEP_SMALL, "ibt", ["--grid-value", "0.02"]),
            (WORKLOADS / "scale.yaml", "ibt_half", []),
            (WORKLOADS / "fading.yaml", "consensus", [])):
        stem = f"simulate-{config.stem}-{scheme}"
        cmds.append(["simulate", "--config", str(config), "--scheme", scheme,
                     "-o", str(out / f"{stem}.csv"),
                     "--trace", str(out / f"{stem}-trace.csv")] + extra)
    for name in ("scale", "fading"):
        cmds.append(["build-tree", "--config", str(WORKLOADS / f"{name}.yaml"),
                     "-o", str(out / f"tree-{name}.json")])
    cmds.append(["build-tree", "--config", str(SWEEP_SMALL),
                 "-o", str(out / "tree-sweep_small-rt.json"), "--trial", "2",
                 "-D", "schemes=[{name: rt, kind: rt, gamma_delay: 0.02, "
                 "c_max: 40}]"])
    cmds.append(["build-tree", "--config", str(SWEEP_SMALL),
                 "-o", str(out / "tree-sweep_small-mixed.json"), "--trial",
                 "1", "-D", "schemes=[{name: unc, kind: uncoordinated}, "
                 "{name: h, kind: ibt, gamma_delay: 0.02, c_max: 86.0}, "
                 "{name: r, kind: rt, gamma_delay: 0.02}, "
                 "{name: f, kind: ibt, gamma_delay: 0.02}]"])
    return cmds


def run_side(src: Path, out: Path) -> None:
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED_ENV)
    for argv in commands(out):
        subprocess.run([sys.executable, "-c", MAIN] + argv, env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-rev", default="HEAD",
                    help="git revision whose src/ writes the reference files")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp, \
            extracted_src(args.parent_rev) as parent_src:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        run_side(parent_src, sides["parent"])
        run_side(ROOT / "src", sides["change"])
        names = sorted({p.name for out in sides.values() for p in out.iterdir()})
        differ = []
        for name in names:
            parent, change = (out / name for out in sides.values())
            same = parent.is_file() and change.is_file() \
                and parent.read_bytes() == change.read_bytes()
            print(f"{'same  ' if same else 'DIFFER'}  {name}")
            if not same:
                differ.append(name)
    print(json.dumps({"identical": not differ, "files": len(names),
                      "differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
