"""Golden CLI outputs: every command in `golden/cli.json` must reproduce its
recorded stdout, written files and exit code byte for byte.

Each case runs its steps in order in one fresh directory; `{tmp}` in the
recorded argv and outputs stands for that directory.  A step is checked
for its exit code, stdout, stderr (except argparse usage errors, whose
wording depends on the Python version, recorded as null), and every file
left in the directory: `.dmt` traces by SHA-256, CSV and JSON reports by
full text.  Non-trace outputs are removed after each step, so a step is
only credited with the files it wrote itself.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dmclab.cli import main

TMP = "{tmp}"
CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def _files(tmp: Path) -> dict:
    files = {}
    for path in sorted(tmp.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".dmt":
            files[path.name] = {"sha256": hashlib.sha256(data).hexdigest()}
        else:
            files[path.name] = {"text": data.decode()}
    return files


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_matches_golden(case, tmp_path, capsys):
    root = str(tmp_path)
    for name, text in case.get("setup", {}).items():
        (tmp_path / name).write_text(text)
    for step in case["steps"]:
        code = main([arg.replace(TMP, root) for arg in step["argv"]])
        captured = capsys.readouterr()
        assert code == step["exit"], step["argv"]
        assert captured.out.replace(root, TMP) == step["stdout"], step["argv"]
        if step["stderr"] is not None:
            assert captured.err.replace(root, TMP) == step["stderr"], step["argv"]
        files = _files(tmp_path)
        for name, entry in files.items():
            if "text" in entry:
                entry["text"] = entry["text"].replace(root, TMP)
        assert files == step["files"], step["argv"]
        for path in tmp_path.iterdir():
            if path.suffix != ".dmt":
                path.unlink()
