"""The bundled scripts, run end to end as a user runs them."""
import os
import subprocess
import sys

import pytest

from support import ROOT


def run_script(name: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    # No PYTHONPATH: each script that imports qcatalyst puts its checkout's
    # src first itself.  ``flags`` go to the interpreter, before the script.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *flags, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_reproduce_worked_examples():
    result = run_script("reproduce_worked_examples.py")
    assert result.returncode == 0, result.stderr
    assert "feasible p: [3/5, 5/8]" in result.stdout


def test_agreement_experiment():
    result = run_script("agreement_experiment.py", "--pairs", "200")
    assert result.returncode == 0, result.stderr
    assert "disagreements: 0" in result.stdout


# The hash of the CLI's answers to these 64 calls, and to the 3,060 calls of
# the script's default run (seeds 1-3, 1,000 requests and 20 sweep calls
# each).  A change that moves one changed some byte of stdout or stderr, or
# an exit code.  The 64 calls also run under -O and -OO: the CLI's answers
# hold without asserts and without docstrings.
FINGERPRINT_64 = "cd6c524bab97f7a617f44374ee9b158f06d4a1b82eb0fab74e457ee324d3a98a"
FINGERPRINT_3060 = "4353545c5e8d6ca4a8f213d18995f6b7e90cc0b6e400e17c2de1907683ebfec8"
SAMPLE_64 = ["--requests", "30", "--sweep-calls", "2", "--seeds", "1", "2"]


@pytest.mark.parametrize(
    "flags, args, expected",
    [
        ((), SAMPLE_64, ["calls: 64", f"sha256: {FINGERPRINT_64}"]),
        ((), [], ["calls: 3060", f"sha256: {FINGERPRINT_3060}"]),
        (("-O",), SAMPLE_64, ["calls: 64", f"sha256: {FINGERPRINT_64}"]),
        (("-OO",), SAMPLE_64, ["calls: 64", f"sha256: {FINGERPRINT_64}"]),
    ],
    ids=["64-calls", "default", "64-calls-O", "64-calls-OO"],
)
def test_cli_fingerprint(flags, args, expected):
    result = run_script("cli_fingerprint.py", *args, flags=flags)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected


@pytest.mark.parametrize("name, args", [("source_size.py", ()), ("lattice_census.py", ("3",))])
def test_scripts_run_without_docstrings(name, args):
    # -OO strips every docstring, the one argparse's description is read from.
    result = run_script(name, *args, flags=("-OO",))
    assert result.returncode == 0, result.stderr


def test_source_size_counts_one_module(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring\n'
        'over two lines."""\n'
        "\n"
        "# A comment.\n"
        "import os\n"
        "\n"
        "\n"
        "class Thing:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def method(self):\n"
        '        """Function docstring."""\n'
        "        text = '''not a docstring'''  # trailing comment\n"
        "        return text\n"
    )
    result = run_script("source_size.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert rows == [["14", "5", "mod.py"], ["14", "5", "total"]]


def test_source_size_total_is_the_sum_of_the_files():
    result = run_script("source_size.py")
    assert result.returncode == 0, result.stderr
    *files, total = [line.split() for line in result.stdout.splitlines()[1:]]
    assert len(files) >= 8 and total[2] == "total"
    assert int(total[0]) == sum(int(row[0]) for row in files)
    assert int(total[1]) == sum(int(row[1]) for row in files)


def census_rows(*args: str) -> dict:
    """Run the lattice census; its rows by D, each a dict of its columns."""
    result = run_script("lattice_census.py", *args)
    assert result.returncode == 0, result.stdout + result.stderr
    header, *rows = [line.split() for line in result.stdout.splitlines()[:-1]]
    return {row[0]: dict(zip(header[1:], map(int, row[1:]))) for row in rows}


def test_lattice_census_one_denominator():
    # Every ordered pair of distinct spectra over each D <= 20: the rule and
    # the oracle agree on all 46,006, and 30 pairs are catalyzable.
    rows = census_rows("20")
    assert rows["total"]["pairs"] == 46_006
    assert rows["total"]["catalyzable"] == 30
    assert rows["total"]["disagreements"] == 0
    catalyzable = [rows[str(d)]["catalyzable"] for d in range(1, 21)]
    assert catalyzable == [0] * 13 + [1, 1, 2, 3, 5, 6, 12]
    assert rows["12"]["pairs"] == 34 * 33  # 34 partitions of 12 into at most 4 parts


def test_lattice_census_mixed_denominators():
    rows = census_rows("10", "--mixed")
    assert rows["total"]["pairs"] == 4_556
    assert rows["total"]["disagreements"] == 0
    catalyzable = [rows[str(d)]["catalyzable"] for d in range(1, 11)]
    assert catalyzable == [0] * 7 + [1, 1, 4]
