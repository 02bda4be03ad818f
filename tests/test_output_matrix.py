"""The output matrix of ``output_matrix.py``: one digest whatever the hash
seed, the bytes ``python -m ferrocal`` writes, each command's file set, and
the comparison of two trees."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import output_matrix
from output_matrix import sha256, text_sha

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"
LEVEL_FILES = {f"levels_{w}us.csv" for w in (10, 20, 100, 200, 500)}
# the files each form writes: what the README documents for its command
FILE_SETS = {"simulate": {"sweep.csv"}, "fit": {"fit_report.csv"},
             "fit-shared": {"fit_report.csv"},
             "merz": {"merz_summary.txt", "merz_points.csv"},
             "merz-tau": {"merz_summary.txt", "merz_points.csv"},
             "collapse": {"collapse.dat", "collapse_summary.txt"},
             "program": {"program_table.csv"},
             "levels": LEVEL_FILES, "levels-margin": LEVEL_FILES}


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """The tool's output lines from two processes run side by side with
    different PYTHONHASHSEED, and the directory the first one kept."""
    keep = tmp_path_factory.mktemp("matrix") / "out"
    procs = [subprocess.Popen([sys.executable, str(TESTS / "output_matrix.py"), str(SRC)] + extra,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
             for seed, extra in (("0", ["--keep", str(keep)]), ("4242", []))]
    outputs = []
    for proc in procs:
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        outputs.append(out.splitlines())
    return outputs, keep


def test_two_hash_seeds_give_one_digest(matrix):
    (first, second), _ = matrix
    assert first[-1].startswith("digest ")
    assert first == second


def test_each_command_writes_exactly_its_files(matrix):
    (lines, _), _ = matrix
    runs = [line.split()[1] for line in lines if line.startswith("run ")]
    assert len(runs) == 10 * 13
    assert all(" exit 0 " in line for line in lines if line.startswith("run "))
    written = {run: set() for run in runs}
    for line in lines:
        if line.startswith("file "):
            run, name = line.split()[1].rsplit("/", 1)
            written[run].add(name)
    for run, names in written.items():
        form = run.split("/")[1].rsplit(".", 1)[-1]
        assert names == FILE_SETS[form], run


def test_python_m_ferrocal_writes_the_in_process_bytes(matrix, tmp_path):
    (lines, _), keep = matrix
    conf = "seed11-displacement-noise0.05"
    out = tmp_path / conf / "fit"
    proc = subprocess.run([sys.executable, "-m", "ferrocal", "--out-dir", str(out), "fit",
                           "--input", str(keep / conf / "simulate" / "sweep.csv")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
    run = (f"run {conf}/fit exit {proc.returncode} stdout {text_sha(proc.stdout, tmp_path)} "
           f"stderr {text_sha(proc.stderr, tmp_path)}")
    report = f"file {conf}/fit/fit_report.csv {sha256((out / 'fit_report.csv').read_bytes())}"
    assert run in lines
    assert report in lines


def test_two_trees_print_both_digests_and_the_lines_that_differ(monkeypatch, capsys):
    runs = {"old": ["# ferrocal from old", "run a/simulate exit 0", "file a/simulate/s.csv 1",
                    "run b/fit exit 0", "file b/fit/r.csv 2", "digest 11"],
            "new": ["# ferrocal from new", "run a/simulate exit 0", "file a/simulate/s.csv 1",
                    "run b/fit exit 1", "file b/fit/extra.csv 3", "digest 22"]}
    monkeypatch.setattr(output_matrix.subprocess, "run", lambda argv, **kwargs: (
        subprocess.CompletedProcess(argv, 0, "\n".join(runs[argv[-1]]) + "\n", "")))
    assert output_matrix.main(["old", "new"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "# parent old digest 11", "# change new digest 22", "## b",
        "- run b/fit exit 0", "+ run b/fit exit 1", "- file b/fit/r.csv 2",
        "+ file b/fit/extra.csv 3"]
