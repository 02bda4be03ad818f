"""Run the output matrix in process and print a digest of everything it wrote.

Usage: python tests/output_matrix.py [SRC] [--keep DIR]
       python tests/output_matrix.py PARENT_SRC CHANGE_SRC

SRC is the directory holding the ``ferrocal`` package to run (default: this
repository's ``src``). Each of ten configurations (seeds 11 and 3, both
observables, read noise 0 and 0.05 nm, the other settings at their
defaults; and the mirrored branch, ``reset_peak_V = 9`` and
``write_peak_V = -5``, at seed 3 and 0.05 nm for both observables) runs 13
command forms
through ``cli.main``: ``simulate``; ``fit`` and ``fit --share-offsets``; on
each of the two reports ``merz`` nested and with ``--tau-inf 1.4e-14``,
``collapse`` and ``program --targets 0.25,0.5,0.75``; ``levels`` plain and
with ``--margin 0.09``. Each form writes into a directory of its own,
``<configuration>/<form>``.

It prints one ``run`` line per form (exit code, sha256 of stdout and
stderr), one ``file`` line per file written (sha256), and last a
``digest`` line over all of those. Before stdout and stderr are hashed,
the exact output root is replaced by a placeholder. The digests hold for
one machine and numpy version: vectorized math may round differently on
another CPU, so none is committed; compare two trees on one machine.

Read noise applies to displacement sweeps only, so each
``polarization_change-noise0.05`` configuration writes the same files as its
``-noise0`` twin, and the mirrored polarization configuration is noiseless.

Given two trees, the script runs each in a process of its own and prints
both digests, then each ``run`` and ``file`` line that differs, under a
``## <configuration>`` heading: ``-`` for the first tree, ``+`` for the
second. A line only one tree wrote is printed with its sign alone.
"""

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (11, 3)
OBSERVABLES = ("displacement", "polarization_change")
READ_NOISE_NM = ("0", "0.05")
MIRRORED = "[protocol]\nreset_peak_V = 9.0\nwrite_peak_V = -5.0\n\n"
PLACEHOLDER = "<OUT>"


def configurations():
    """(name, seed, INI text) of each configuration."""
    def ini(kind, noise):
        return f"[device]\nread_noise_sigma_nm = {noise}\n\n[sweep]\nobservable = {kind}\n"
    for seed in SEEDS:
        for kind in OBSERVABLES:
            for noise in READ_NOISE_NM:
                yield f"seed{seed}-{kind}-noise{noise}", seed, ini(kind, noise)
    for kind in OBSERVABLES:
        yield f"mirrored-seed3-{kind}-noise0.05", 3, MIRRORED + ini(kind, "0.05")


def forms(conf_dir, seed):
    """(name, argv) of each form of one configuration, in run order."""
    sweep = str(conf_dir / "simulate" / "sweep.csv")
    yield "simulate", ["--seed", str(seed), "simulate", "--config", str(conf_dir / "run.ini"),
                       "--out", "sweep.csv"]
    yield "fit", ["fit", "--input", sweep]
    yield "fit-shared", ["fit", "--input", sweep, "--share-offsets"]
    for fit in ("fit", "fit-shared"):
        report = str(conf_dir / fit / "fit_report.csv")
        yield f"{fit}.merz", ["merz", "--fits", report]
        yield f"{fit}.merz-tau", ["merz", "--fits", report, "--tau-inf", "1.4e-14"]
        yield f"{fit}.collapse", ["collapse", "--input", sweep, "--fits", report]
        yield f"{fit}.program", ["program", "--fits", report, "--targets", "0.25,0.5,0.75"]
    yield "levels", ["levels", "--input", sweep]
    yield "levels-margin", ["levels", "--input", sweep, "--margin", "0.09"]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def text_sha(text, root):
    return sha256(text.replace(str(root), PLACEHOLDER).encode())


def run_matrix(main, root):
    """The ``run`` and ``file`` lines of the whole matrix, written under root."""
    lines = []
    for conf, seed, ini in configurations():
        conf_dir = root / conf
        conf_dir.mkdir()
        (conf_dir / "run.ini").write_text(ini)
        for form, argv in forms(conf_dir, seed):
            out = conf_dir / form
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["--out-dir", str(out)] + argv)
            lines.append(f"run {conf}/{form} exit {code} "
                         f"stdout {text_sha(stdout.getvalue(), root)} "
                         f"stderr {text_sha(stderr.getvalue(), root)}")
            lines += [f"file {conf}/{form}/{path.name} {sha256(path.read_bytes())}"
                      for path in sorted(out.iterdir())]
    return lines


def compare(parent_src, change_src):
    """Both digests, then the lines that differ, grouped by configuration."""
    outputs = [subprocess.run([sys.executable, __file__, src], capture_output=True, text=True,
                              check=True).stdout.splitlines() for src in (parent_src, change_src)]
    # each line keyed by its run or file name; the last line is the digest
    tables = [{line.split()[1]: line for line in out[1:-1]} for out in outputs]
    print(f"# parent {parent_src} {outputs[0][-1]}")
    print(f"# change {change_src} {outputs[1][-1]}")
    conf = None
    for name in dict.fromkeys([*tables[0], *tables[1]]):
        old, new = (table.get(name) for table in tables)
        if old == new:
            continue
        if name.split("/")[0] != conf:
            conf = name.split("/")[0]
            print(f"## {conf}")
        print("\n".join(f"{sign} {line}" for sign, line in (("-", old), ("+", new)) if line))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(Path(__file__).parents[1] / "src")],
                        help="directory holding the ferrocal package; two compare two trees")
    parser.add_argument("--keep", default=None,
                        help="write the outputs into this new directory and keep them")
    args = parser.parse_args(argv)
    if len(args.src) == 2 and args.keep is None:
        compare(*args.src)
        return 0
    if len(args.src) != 1:
        parser.error("give one SRC, or two without --keep")
    sys.path.insert(0, str(Path(args.src[0]).resolve()))
    from ferrocal import cli

    print(f"# ferrocal from {Path(cli.__file__).parent}")
    with contextlib.ExitStack() as stack:
        if args.keep is None:
            root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            root = Path(args.keep)
            root.mkdir(parents=True)
        lines = run_matrix(cli.main, root.resolve())
    text = "".join(line + "\n" for line in lines)
    print(text + f"digest {sha256(text.encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
