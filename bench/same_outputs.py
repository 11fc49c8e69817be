"""Same outputs: run a fixed set of CLI commands on a parent revision and on
the working tree, and compare every file they write, and what each prints,
byte for byte.

The set is ``sweep`` (rows and summary) on every ``configs/*.yaml`` and
``perfbench/workloads/*.yaml``, on the ``fading`` workload again at
``master_seed`` 3 (frames in which every SU transmits, and frames with more
than 64 active SUs, which the SU->SU gather takes in row blocks), and with
consensus schemes only on
``sweep_small`` (degrees 2, 3 and 15, the complete graph on its 16 cells)
and on a 9-cell random layout (degrees 2, 4 and 8); ``simulate --trace``
(frames and trace) for ``ibt`` on ``sweep_small`` at lambda = 0.02,
``ibt_half`` on ``scale`` and ``consensus`` on ``fading``; ``build-tree`` on
``scale`` and on ``fading`` (a random layout with noisy sensing), on
``sweep_small`` with one budgeted random-tree scheme at trial 2, and on
``sweep_small`` with a mixed scheme list (a budgeted IBT first, beside a
random tree and an unbudgeted IBT of the same ``gamma_delay``) at trial 1;
and ``validate``, with no config and on ``blockage_tradeoff``.  Each
command's stdout is one more compared file,
``<name>.stdout``, with the side's output directory replaced by ``<out>``.
Both sides read the working tree's config files; the parent side runs
``src/`` of ``--parent-rev`` (extracted with ``git archive``), the other the
working tree's ``src/``.  BLAS is pinned to one thread, as in ``perfbench``.

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


def commands(out: Path) -> dict[str, list[str]]:
    """Each command's arguments, writing into ``out``, by the name its
    stdout is saved under."""
    cmds = {}
    for pattern in ("configs/*.yaml", "perfbench/workloads/*.yaml"):
        for path in sorted(ROOT.glob(pattern)):
            name = f"sweep-{path.parent.name}-{path.stem}"
            cmds[name] = ["sweep", "--config", str(path), "-o",
                          str(out / f"{name}.csv")]
    # trial 0 at seed 3: each coordinated scheme's grid points hold a frame
    # in which every SU transmits, and frames with more than 64 active SUs
    cmds["sweep-workloads-fading-seed3"] = [
        "sweep", "--config", str(WORKLOADS / "fading.yaml"), "-o",
        str(out / "sweep-workloads-fading-seed3.csv"),
        "-D", "experiment.master_seed=3"]
    random9 = ["-D", "topology.kind=random", "-D", "topology.n_cells=9",
               "-D", "topology.n_blockages=0"]
    for layout, degrees, extra in (("sweep_small", (2, 3, 15), []),
                                   ("random9", (2, 4, 8), random9)):
        name = f"sweep-{layout}-consensus"
        schemes = ", ".join(f"{{name: c{d}, kind: consensus, degree: {d}}}"
                            for d in degrees)
        cmds[name] = ["sweep", "--config", str(SWEEP_SMALL), "-o",
                      str(out / f"{name}.csv"), "-D",
                      f"schemes=[{schemes}]"] + extra
    for config, scheme, extra in (
            (SWEEP_SMALL, "ibt", ["--grid-value", "0.02"]),
            (WORKLOADS / "scale.yaml", "ibt_half", []),
            (WORKLOADS / "fading.yaml", "consensus", [])):
        name = f"simulate-{config.stem}-{scheme}"
        cmds[name] = ["simulate", "--config", str(config), "--scheme", scheme,
                      "-o", str(out / f"{name}.csv"),
                      "--trace", str(out / f"{name}-trace.csv")] + extra
    for name in ("scale", "fading"):
        cmds[f"tree-{name}"] = ["build-tree", "--config",
                                str(WORKLOADS / f"{name}.yaml"),
                                "-o", str(out / f"tree-{name}.json")]
    cmds["tree-sweep_small-rt"] = [
        "build-tree", "--config", str(SWEEP_SMALL),
        "-o", str(out / "tree-sweep_small-rt.json"), "--trial", "2",
        "-D", "schemes=[{name: rt, kind: rt, gamma_delay: 0.02, c_max: 40}]"]
    cmds["tree-sweep_small-mixed"] = [
        "build-tree", "--config", str(SWEEP_SMALL),
        "-o", str(out / "tree-sweep_small-mixed.json"), "--trial", "1",
        "-D", "schemes=[{name: unc, kind: uncoordinated}, "
        "{name: h, kind: ibt, gamma_delay: 0.02, c_max: 86.0}, "
        "{name: r, kind: rt, gamma_delay: 0.02}, "
        "{name: f, kind: ibt, gamma_delay: 0.02}]"]
    cmds["validate"] = ["validate"]
    cmds["validate-blockage_tradeoff"] = [
        "validate", "--config", str(ROOT / "configs" / "blockage_tradeoff.yaml")]
    return cmds


def run_side(src: Path, out: Path) -> None:
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED_ENV)
    for name, argv in commands(out).items():
        stdout = subprocess.run([sys.executable, "-c", MAIN] + argv, env=env,
                                cwd=ROOT, check=True, stdout=subprocess.PIPE,
                                text=True).stdout
        (out / f"{name}.stdout").write_text(stdout.replace(str(out), "<out>"))


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
