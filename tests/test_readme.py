"""The commands the README shows parse, name existing files and select tests,
and its library example runs as written."""

import os
import re
import shlex
import subprocess
import sys

import knowspan
from knowspan.cli import STAGES, main
from knowspan.synthgen import SynthConfig, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    README = fh.read()

FENCED_BASH = [
    line.split(" #")[0].strip()
    for block in re.findall(r"^```bash\n(.*?)^```", README, re.S | re.M)
    for line in block.splitlines()
    if line.strip() and not line.lstrip().startswith("#")
]
FENCED_PYTHON = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
INLINE = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", README, flags=re.S | re.M))


def test_fenced_knowspan_commands_parse():
    commands = [line for line in FENCED_BASH if line.startswith("knowspan ")]
    assert commands
    for line in commands:
        name, *args = shlex.split(line)[1:]
        assert name in main.commands, line
        main.commands[name].make_context(name, args)  # raises on a bad option


def test_python_commands_name_existing_files():
    for path in re.findall(r"\bpython3? +(?!-)(\S+)", README):
        assert os.path.isfile(os.path.join(ROOT, path)), path


def test_pytest_selections_collect_tests():
    commands = [c for c in FENCED_BASH + INLINE if re.search(r"\bpytest\b.* -k ", c)]
    assert commands
    src = os.path.dirname(os.path.dirname(knowspan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in commands:
        argv = shlex.split(command)
        args = argv[argv.index("pytest") + 1 :]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *args],
            cwd=ROOT, capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, f"{command!r} selects no test:\n{result.stdout}"


def test_library_example_runs(tmp_path, monkeypatch):
    """Run in a directory holding a small corpus.jsonl, as the example assumes."""
    (example,) = FENCED_PYTHON
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in generate(SynthConfig(n_papers=120)))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert len(namespace["distances"]) == len(namespace["corpus"])


def test_stage_table_needs_the_inputs_each_stage_declares():
    """Each row of the Pipeline stages table, in the order of cli.STAGES,
    names in its "needs" cell exactly the artifacts STAGES declares the stage
    reads; `pipeline` needs what no stage it runs writes."""
    table = re.search(r"^\| stage .*?\n\n", README, re.S | re.M).group(0)
    cells = [line.split("|") for line in table.strip().splitlines()[2:]]
    needs = {re.sub(r"[`*()\s]", "", row[1]): row[2] for row in cells}
    reads = {stage: set(names) for stage, (_, names, _) in STAGES.items()}
    written = {name for _, _, checked in STAGES.values() for name in checked}
    reads["pipeline"] = set().union(*reads.values()) - written
    assert list(needs) == list(reads)
    for stage, cell in needs.items():
        named = {name for name in re.findall(r"`([^`]+)`", cell) if not name.startswith("--")}
        assert named == reads[stage], stage
