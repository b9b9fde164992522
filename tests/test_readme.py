"""README's code stays runnable: its Library block runs and its command lines parse."""

import ast
import re
import shlex
from pathlib import Path

from specto.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def _blocks():
    """(section heading, fence language, body) of every fenced block."""
    text = README.read_text(encoding="utf-8")
    for match in FENCE.finditer(text):
        headings = re.findall(r"^## (.+)$", text[: match.start()], re.M)
        yield (headings[-1] if headings else ""), match.group(1), match.group(2)


def test_readme_code_runs_and_parses(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = list(_blocks())
    parser = build_parser()
    commands = 0
    for section, lang, body in blocks:
        if lang == "python":
            tree = ast.parse(body)
            if section == "Library":
                exec(compile(tree, "README Library block", "exec"), {})
            else:  # run only the imports: every name the snippet uses must exist
                imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
                exec(compile(ast.Module(imports, []), f"README {section}", "exec"), {})
            continue
        for line in body.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["specto"]:
                parser.parse_args(argv[1:])  # exits 2 on an unknown flag or command
                commands += 1
    assert any(section == "Library" and lang == "python" for section, lang, _ in blocks)
    assert commands > 0
